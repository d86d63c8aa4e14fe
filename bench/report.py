"""Run every workload untraced and traced, and print all its metrics.

    python3 bench/report.py

Run it from the repository root; it takes a few minutes.  It runs every
workload that BENCHMARK.json declares, with seed 1 and the declared
run_seconds.  For each workload it prints the end-to-end metrics of an
untraced run, failures against their base, the full per-layer table of a traced run (every
span name, not only those BENCHMARK.json declares), the tracing overhead
(traced minus untraced wall-clock seconds of a pass) and whether the shares predicted in
bench/README.md hold.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run as bench

SEED = 1
# (workload, numerator, denominator, predicate, text)
SHARES = [
    ("verify-battery", "groebner.buchberger.s", "trace.wall_s", lambda r: r >= 0.90, ">= 90%"),
    ("wide-dilate", "groebner.buchberger.s", "trace.wall_s", lambda r: r >= 0.90, ">= 90%"),
    ("finite-certify", "groebner.buchberger.s", "trace.wall_s", lambda r: r < 0.01, "< 1%"),
    ("verify-battery", "ideals.saturate.s", "trace.wall_s", None, "share"),
    ("wide-dilate", "ideals.saturate.s", "trace.wall_s", None, "share"),
]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(bench.OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def main() -> int:
    spec = bench.declared()
    declared = {m["name"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        plain, plain_detail = one_run(workload, SEED, spec["run_seconds"], 0)
        _, traced_detail = one_run(workload, SEED, spec["run_seconds"], 1)
        meta = plain_detail["meta"]
        print(f"== {workload}  seed {SEED}  python {meta['python']}  nproc {meta['nproc']}"
              f"  loadavg {meta['start']['loadavg']} -> {meta['end']['loadavg']}"
              f"  speed probe {meta['start']['probe_s'] * 1e3:.3f} ms -> {meta['end']['probe_s'] * 1e3:.3f} ms")
        print("end-to-end (untraced run)")
        for name, m in plain["metrics"].items():
            print(f"  {name:40s} {m['value']:12.6g} {m['unit']}")
        print(f"  {'failed_frac':40s} {plain['failed']}/{plain['attempted']}")
        for probe in plain_detail["known_failures"]:
            state = "now matches its reference" if probe["now_passes"] else "fails"
            print(f"  known failure outside the workload: {probe['request']}: {state}")
        layers = traced_detail["all_metrics"]
        print("per-layer (traced run; * = declared in BENCHMARK.json)")
        for name in sorted(layers):
            mark = "*" if name in declared else " "
            print(f" {mark}{name:40s} {layers[name]:12.6g} {bench.unit_of(name)}")
        # both sides in wall-clock seconds: the traced run keeps no speed clock
        wall = statistics.median(p["probes"]["raw_s"] for p in plain_detail["passes"])
        overhead = layers["trace.wall_s"] - wall
        print(f"tracing overhead: trace.wall_s - untraced wall-clock seconds = {overhead:.3f} s"
              f" ({overhead / wall:+.1%})")
        for w, num, den, ok, text in SHARES:
            if w != workload:
                continue
            share = layers.get(num, 0.0) / layers[den]
            verdict = "" if ok is None else ("  holds" if ok(share) else "  DOES NOT HOLD")
            print(f"  {num} / {den} = {share:.1%} (predicted {text}){verdict}")
        ideal_self = {k: v for k, v in layers.items() if k.startswith("ideals.") and k.endswith(".self_s")}
        if ideal_self:
            top = max(ideal_self, key=ideal_self.get)
            print(f"  largest ideals self time: {top} = {ideal_self[top]:.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
