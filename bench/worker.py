"""One benchmark process: import the library, parse one instance file and
run its requests through `cli.run_request`, one after another.

    python3 bench/worker.py INSTANCE --mode setup|pass|profile
                            [--order 3,0,2,...] [--trace 0|1] [--spans FILE]

It is started from the repository root by `bench/run.py`, once per pass,
so that nothing cached in the process carries over.  It prints one JSON
line: the monotonic time at which the instance was parsed (the parent
measures set-up from its own spawn time), and for a pass each request's
verdict, machine section and seconds, the process's CPU time and peak
RSS, and with --trace 1 the per-layer summary.  An untraced pass runs
under `speed.SpeedClock`: its request times and CPU time are reference
seconds, and its wall-clock seconds go to the report's "probes"; a
traced pass keeps wall-clock seconds throughout.  --mode profile runs the
pass untraced under cProfile and reports the call counts of the traced
functions instead; `bench/selftest.py` compares them with span counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import types

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import tracer as tr  # noqa: E402


def run_pass(cli, inst, order, tracer, now=time.monotonic) -> list[dict]:
    from dilatations.groebner import ResourceLimitError
    from dilatations.oracle import SizeCapError, SIZE_CAP

    flags = types.SimpleNamespace(oracle_size_cap=SIZE_CAP, bidegree_bound=4, jobs=1, machine_only=True)
    out = []
    for idx in order:
        _, args = inst.requests[idx]
        entry = {"request": " ".join(args), "label": args[0]}
        if tracer is not None:
            tracer.request = idx
        with tracer.span("cli.request") if tracer is not None else contextlib.nullcontext() as span:
            t0 = now()
            try:
                res = cli.run_request(inst, args, flags)
                entry.update(label=res.label, ok=res.ok, machine=res.machine)
            except Exception as exc:  # a failed request is data, not a crash
                entry["error"] = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, ResourceLimitError):
                    entry["error_kind"] = "groebner.limit_errors"
                elif isinstance(exc, SizeCapError):
                    entry["error_kind"] = "oracle.size_cap_errors"
            t1 = now()
        if tracer is not None:
            # named after the call, by the label cli gives the result
            tracer.names[span] = f"cli.request.{entry['label']}"
        entry.update(start=t0, end=t1)
        out.append(entry)
    return out


def profile_counts(run) -> dict:
    """Run `run()` under cProfile; return the call counts that the spans
    of a traced run must reproduce."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.runcall(run)
    stats = pstats.Stats(prof).stats

    def key(fn):
        code = fn.__code__
        return (code.co_filename, code.co_firstlineno, code.co_name)

    def calls(fn):
        entry = stats.get(key(fn))
        return entry[1] if entry else 0

    counts = {}
    for module, attr, name in tr.SPANS:
        fn = tr.original(module, attr)
        label = name if isinstance(name, str) else attr
        counts[label] = calls(fn)
    nf = stats.get(key(tr.original("dilatations.groebner", "normal_form")))
    gb = sys.modules["dilatations.groebner"]
    inside = {key(gb.buchberger_reduced), key(gb._interreduce)}
    counts["groebner.reductions"] = sum(v[1] for k, v in nf[4].items() if k in inside) if nf else 0
    counts["congruence.mat_mul.calls"] = calls(tr.original("dilatations.congruence", "mat_mul"))
    run_request = sys.modules["dilatations.cli"].run_request
    counts["cli.run_request"] = calls(run_request)
    return counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("instance")
    ap.add_argument("--mode", choices=("setup", "pass", "profile"), default="pass")
    ap.add_argument("--order", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default="")
    opts = ap.parse_args()

    from dilatations import cli

    tracer = None
    if opts.trace:
        tracer = tr.Tracer()
        tracer.install()
    inst = cli.parse(opts.instance)
    parsed_at = time.monotonic()
    if opts.mode == "setup":
        print(json.dumps({"parsed_at": parsed_at}))
        return 0

    order = [int(x) for x in opts.order.split(",")] if opts.order else list(range(len(inst.requests)))
    report: dict = {"parsed_at": parsed_at}
    if opts.mode == "profile":
        holder = {}

        def job():
            holder["requests"] = run_pass(cli, cli.parse(opts.instance), order, None)

        report["counts"] = profile_counts(job)
        report["requests"] = holder["requests"]
        print(json.dumps(report))
        return 0

    if tracer is not None:
        report["requests"] = run_pass(cli, inst, order, tracer)
    else:
        clock = speed.SpeedClock()
        cpu0, raw0 = time.process_time(), time.monotonic()
        clock.start()
        report["requests"] = run_pass(cli, inst, order, None, clock.now)
        clock.stop()
        ref = clock.now()
        raw = time.monotonic() - raw0 - clock.spent
        cpu = time.process_time() - cpu0 - clock.spent
        # the pass's CPU time without the probes, at the reference speed
        report["cpu_s"] = cpu * ref / raw
        report["probes"] = {"count": len(clock.probes), "median_s": statistics.median(clock.probes),
                            "raw_s": raw, "ref_s": ref}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.summarize()
        layers["trace.wall_s"] = report["requests"][-1]["end"] - report["requests"][0]["start"]
        report["layers"] = layers
        report["binding_sites"] = dict(tracer.sites)
        if opts.spans:
            tracer.write(opts.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
