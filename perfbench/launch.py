"""Run every workload once, one after another, each in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/launch.py [--seed N] [--seconds S] [--trace 0|1]

Each workload gets its own ``run.py`` process, so ``peak_rss_mb`` is its
own. Every ``run.py`` process pins the OpenMP, OpenBLAS and MKL thread pools
to one thread before numpy loads, so no run starts more threads than the one
client it measures. Exits 1 if any workload's run fails or is not correct.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense-random", "journey-reveal", "fan3d")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, check=False)
        status = status or int(done.returncode != 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
