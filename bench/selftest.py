"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Run it from the repository root; it takes under a minute.  It runs the
repository's `instances/demo.dila` and `bench/selftest.dila`, which
reaches the layers the demo does not (the oracle bridge, the universal
property scan and the congruence normalizer).  For each instance it
checks:

1. The exact counters are identical across two traced passes that run
   the requests in different orders.
2. Every span count equals the number of calls cProfile sees in an
   untraced pass, for each wrapped function.  A binding site that the
   tracer misses makes the span count smaller, so the test fails.

Across both instances, every wrapped function and every counter must be
called at least once, so that no comparison in check 2 is 0 against 0.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import run as bench
import tracer as tr

INSTANCES = [os.path.join("instances", "demo.dila"), os.path.relpath(os.path.join(bench.HERE, "selftest.dila"))]
EXACT = [
    "dilatation.dilate.calls",
    "dilatation.dilate.distinct",
    "groebner.buchberger.calls",
    "groebner.reductions",
    "ideals.groebner.builds",
    "congruence.mat_mul.calls",
]


def check(instance: str, problems: list[str]) -> Counter:
    """Run the checks on one instance; return cProfile's call counts."""
    n = bench.count_requests(instance)
    deadline = time.monotonic() + 600
    forward = ",".join(str(i) for i in range(n))
    backward = ",".join(str(i) for i in reversed(range(n)))
    _, one = bench.spawn(instance, deadline, "--order", forward, "--trace", "1")
    _, two = bench.spawn(instance, deadline, "--order", backward, "--trace", "1")
    _, prof = bench.spawn(instance, deadline, "--order", forward, "--mode", "profile")
    print(f"== {instance}")

    for name in EXACT:
        a, b = one["layers"].get(name, 0), two["layers"].get(name, 0)
        print(f"  {name:34s} {a:>10} {b:>10}")
        if a != b:
            problems.append(f"{instance}: {name} differs between two runs: {a} vs {b}")

    layers, counts = one["layers"], prof["counts"]
    spans = {}
    for _, _, name in tr.SPANS:
        if isinstance(name, str):
            spans[name] = layers.get(f"{name}.calls", 0)
    spans["colon"] = layers.get("ideals.saturate.calls", 0) + layers.get("ideals.colon.calls", 0)
    spans["cli.run_request"] = sum(
        v for k, v in layers.items() if k.startswith("cli.request.") and k.endswith(".calls")
    )
    for _, _, name in tr.COUNTS:
        spans[name] = layers.get(name, 0)
    for name, got in spans.items():
        print(f"  {name:34s} spans {got:>8}  cProfile {counts[name]:>8}")
        if got != counts[name]:
            problems.append(f"{instance}: {name}: {got} spans but {counts[name]} calls under cProfile")
    return Counter(counts)


def main() -> int:
    problems: list[str] = []
    total: Counter = Counter()
    for instance in INSTANCES:
        total += check(instance, problems)
    for name in [n if isinstance(n, str) else a for _, a, n in tr.SPANS] + [n for _, _, n in tr.COUNTS]:
        if total[name] == 0:
            problems.append(f"{name} is never called by the self-test's instances")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
