"""Write bench/reference.json: the expected verdict and machine section of
every request of every workload.

    python3 bench/make_reference.py

Run it from the repository root.  Each workload is run once, in file
order, so the reference does not depend on any seed.  Regenerate it only
when a change is meant to alter results, and review the diff: the file is
what `bench/run.py` checks every request against.

Requests known to fail today (`workloads/known-failures.dila`) cannot be
recorded from a run; their expected verdicts are written here by hand.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run as bench

KNOWN_FAILURES = {
    # the paper's universal property holds for this center, so the scan
    # must pass; only the verdict is known, not every clause name
    "universal CU scan": {"ok": True, "machine": {"universal_scan": "pass"}},
}


def record(instance: str) -> dict:
    cmd = [sys.executable, os.path.join(bench.HERE, "worker.py"), instance]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    table = {}
    for entry in json.loads(out.strip().splitlines()[-1])["requests"]:
        if "error" in entry:
            raise SystemExit(f"{entry['request']}: {entry['error']}")
        if entry["request"] in table:
            raise SystemExit(f"request text {entry['request']!r} is not unique in {instance}")
        table[entry["request"]] = {"ok": entry["ok"], "machine": entry["machine"]}
    return table


def main() -> int:
    reference = {}
    for name in [w["name"] for w in bench.declared()["workloads"]]:
        reference[name] = record(bench.instance_of(name))
        print(f"{name}: {len(reference[name])} requests", file=sys.stderr)
    reference["known-failures"] = KNOWN_FAILURES
    with open(os.path.join(bench.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
