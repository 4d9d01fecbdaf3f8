"""Record the golden routes: the first ``CHECKED`` queries of every workload
on ``GOLDEN_SEED``, each checked before it is written.

Run from the root of a checkout: ``python3 perfbench/record_golden.py``.
Re-record only when a change is meant to alter routes, and say so.
"""

import json
import sys

import run  # first: puts the checkout's src/ on the import path

import check
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for name, wl in WORKLOADS.items():
        records = []
        for i in range(run.CHECKED):
            q = wl.make(check.GOLDEN_SEED, i)
            outcome, _, crash = run.run_query(wl, q)
            problems = [crash] if crash else check.check_outcome(wl.kind, q, outcome)
            if problems:
                sys.exit(f"{name} query {i}: {problems}")
            records.append(check.record(outcome))
        golden[name] = records
        print(f"{name}: {len(records)} routes")
    check.GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
