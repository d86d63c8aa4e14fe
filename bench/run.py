"""The repository's benchmark: run one named workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  A workload is an instance file under
`bench/workloads/`.  The seed permutes the order of its requests and
changes nothing else.  One pass parses the file with `cli.parse` and runs
every request with `cli.run_request`, one after another, in a fresh
worker process (`bench/worker.py`), so no in-process cache carries over
between passes.  Passes are whole: after the first, the run starts
another only while it is expected to end within S seconds of the first
pass's start, judged by the pass before it.  Untraced passes count time
at a fixed reference speed (`bench/speed.py`), so that the host's
neighbours, which can halve the machine's speed for minutes, do not
move the numbers.  Before untraced passes the run starts one process
that only imports the library and parses the file, to warm the file
cache, and then half of SETUP_RUNS more; the other half follow the
passes.  Each is scaled by the speed measured just before and after it,
and set-up time is the median over those SETUP_RUNS.
The run and every process it starts keep to one CPU.

Every request's verdict and machine section are compared with
`bench/reference.json`.  The workload names and the metrics' names and
units are those that BENCHMARK.json declares.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 every pass runs with
spans around the library's public functions (`bench/tracer.py`) and the
run reports the per-layer metrics.  Human-readable lines come first, the result JSON is the last
line of standard output, and the details (metadata, every request's
time, every per-layer value) go to `.bench_out/`.  Exit code 0 on a
complete run, 2 when the library or BENCHMARK.json is missing, 1 when a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_RUNS = 30
DEADLINE_S = 170.0

# requests that fail today and are kept out of the timed workloads; each
# is run once per run of its workload, after the passes, and reported
KNOWN_FAILURES = {"finite-certify": "known-failures.dila"}


def declared() -> dict:
    """BENCHMARK.json: the workload names and the metrics' names and units."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def instance_of(workload: str) -> str:
    return os.path.join(HERE, "workloads", f"{workload}.dila")


class BenchError(RuntimeError):
    """A worker failed or the run cannot finish in time."""


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith(("_s", ".s")) else "count"


def metadata() -> dict:
    """Load average, and the median time of 101 speed probes: the load
    average does not show neighbours outside the machine's kernel, the
    probe's time does."""
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().split()[:3]
    probe = statistics.median(speed.probe() for _ in range(101))
    return {"time": time.time(), "loadavg": [float(x) for x in load], "probe_s": probe}


def spawn(instance: str, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start a worker, wait for it, return (spawn time, its report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), instance, *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {instance} ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {instance} exited with {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def matches(entry: dict, ref: dict | None) -> bool:
    return ref is not None and "error" not in entry and entry["ok"] == ref["ok"] and entry["machine"] == ref["machine"]


def count_requests(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.split("#", 1)[0].split()[:1] == ["request"])


def run(opts, spec: dict) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    instance = instance_of(opts.workload)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"

    order = list(range(count_requests(instance)))
    random.Random(opts.seed).shuffle(order)
    order_arg = ",".join(map(str, order))
    allowed = sorted(os.sched_getaffinity(0))
    # set-up samples are scaled by probes taken in this process, so the
    # workers must run on the CPU those probes measure; vCPUs of a shared
    # host do not keep the same speed
    os.sched_setaffinity(0, {allowed[0]})
    meta = {
        "python": platform.python_version(),
        "nproc": len(allowed),
        "cpu": allowed[0],
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "order": order,
        "start": metadata(),
    }

    setups: list[float] = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            before = speed.scale_now()
            t0, rep = spawn(instance, deadline, "--mode", "setup")
            setups.append((rep["parsed_at"] - t0) * (before + speed.scale_now()) / 2)

    if not opts.trace:
        spawn(instance, deadline, "--mode", "setup")
        sample_setup(SETUP_RUNS // 2)

    passes = []
    measure_start = time.monotonic()
    while True:
        n = len(passes)
        extra = ["--order", order_arg, "--trace", str(opts.trace)]
        if opts.trace:
            extra += ["--spans", os.path.join(OUT_DIR, f"{tag}-pass{n}.spans.json")]
        t0, rep = spawn(instance, deadline, *extra)
        passes.append(rep)
        now = time.monotonic()
        last = now - t0
        if now + last - measure_start > opts.seconds or now + 1.5 * last > deadline:
            break

    if not opts.trace:
        sample_setup(SETUP_RUNS - SETUP_RUNS // 2)

    probe = []
    if opts.workload in KNOWN_FAILURES:
        _, rep = spawn(os.path.join(HERE, "workloads", KNOWN_FAILURES[opts.workload]), deadline)
        for entry in rep["requests"]:
            ref = reference["known-failures"].get(entry["request"])
            now_passes = "error" not in entry and entry["ok"] == ref["ok"] and all(
                entry["machine"].get(k) == v for k, v in ref["machine"].items()
            )
            probe.append({"request": entry["request"], "expected": ref, "now_passes": now_passes,
                          "got": entry.get("error") or entry["machine"]})
    meta["end"] = metadata()

    refs = reference[opts.workload]
    attempted = failed = 0
    failures = []
    for rep in passes:
        for entry in rep["requests"]:
            attempted += 1
            if not matches(entry, refs.get(entry["request"])):
                failed += 1
                failures.append({"request": entry["request"], "got": entry.get("error") or entry["machine"]})

    def med(values):
        return statistics.median(values)

    if opts.trace:
        per_pass = []
        for rep in passes:
            layers = dict(rep["layers"])
            for kind in ("groebner.limit_errors", "oracle.size_cap_errors"):
                layers[kind] = sum(1 for e in rep["requests"] if e.get("error_kind") == kind)
            per_pass.append(layers)
        names = sorted(set().union(*per_pass))
        everything = {k: med([p.get(k, 0) for p in per_pass]) for k in names}
        kind = "per_layer"
    else:
        walls = [r["requests"][-1]["end"] - r["requests"][0]["start"] for r in passes]
        slowest = [max(e["end"] - e["start"] for e in r["requests"]) for r in passes]
        everything = {
            "wall_s": med(walls),
            "cpu_s": med([r["cpu_s"] for r in passes]),
            "setup_s": med(setups),
            "slowest_request_s": med(slowest),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in passes]),
        }
        kind = "end_to_end"
    metrics = {m["name"]: {"value": everything.get(m["name"], 0), "unit": m["unit"]} for m in spec[kind]}

    detail = {
        "meta": meta,
        "setup_samples": setups,
        "passes": [
            {k: v for k, v in rep.items() if k != "requests"}
            | {"requests": [{k: e.get(k) for k in ("request", "label", "start", "end", "ok", "error")}
                            for e in rep["requests"]]}
            for rep in passes
        ],
        "all_metrics": everything,
        "failures": failures,
        "known_failures": probe,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {opts.workload}  seed {opts.seed}  trace {opts.trace}  passes {len(passes)}"
          f"  python {meta['python']}  nproc {meta['nproc']}")
    print(f"loadavg start {meta['start']['loadavg']}  end {meta['end']['loadavg']}"
          f"  speed probe start {meta['start']['probe_s'] * 1e3:.3f} ms  end {meta['end']['probe_s'] * 1e3:.3f} ms")
    for name in sorted(everything):
        print(f"  {name:44s} {everything[name]:.6g} {unit_of(name)}")
    print(f"requests attempted {attempted}  failed {failed}")
    for f in failures:
        print(f"  FAILED {f['request']}: {f['got']}")
    for p in probe:
        state = "now matches its reference" if p["now_passes"] else "still fails"
        print(f"  known failure, outside the workload: {p['request']}: {state} ({p['got']})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    if not (os.path.isfile(os.path.join("src", "dilatations", "cli.py")) and os.path.isfile("BENCHMARK.json")):
        print("bench/run.py: no src/dilatations or BENCHMARK.json here; run it from the repository root",
              file=sys.stderr)
        return 2
    spec = declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    try:
        result = run(opts, spec)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
