"""gridroute benchmark: one workload as a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-random --seed 1 --seconds 30 --trace 0

The run plans the workload's seeded queries one after another in this
single-threaded process until the timed query intervals add up to
``--seconds`` (and at least the first ``CHECKED`` queries ran). Input
generation and route checks sit outside the timed intervals. Every route is
checked (see ``check.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines above it report the same numbers for people,
together with the input digest, the route digest and the error rate.

The traced run plans every query twice on identical inputs, once plain and
once with the wrappers of ``tracing.py`` installed, so ``trace.overhead_frac``
compares the two on the same queries. Its spans are written to
``.bench_out/`` when the run ends.

``setup_s`` is the median, over ``SETUP_REPEATS`` fresh processes started
after the timed loop, of the time from starting ``run.py --setup-only`` to
the moment that process is ready for its first timed query: interpreter
start, imports, input generation, loading the golden file and warm-up, each
done once and cold.

The end-to-end times are host-speed-normalised seconds. The speed of a
shared host drifts by tens of percent over minutes, so every timed interval
is bracketed by two runs of a fixed pure-Python calibration loop and scaled
by ``CALIB_REF_S`` over the loop's median time nearby. The raw wall times
are printed beside them.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# Pin native thread pools before numpy loads: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "gridroute" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gridroute sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from gridroute.errors import NoPathError  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WARMUP, WORKLOADS, input_digest  # noqa: E402

CHECKED = 8          # queries per run covered by the golden file and the digests
SETUP_REPEATS = 5    # fresh processes whose set-up is timed; the median is reported
TAIL_BEYOND = 10     # the tail percentile keeps at least this many queries above it
READY = "ready"      # what a --setup-only process prints once it is set up
# A normalised second is a wall second at the host speed where the
# calibration loop takes this long; a 2.1 GHz Xeon with Python 3.11 runs it
# in 1.9-2.9 ms. Changing it or the loop rescales every end-to-end time.
CALIB_REF_S = 0.0025
CALIB_WINDOW = 4     # queries on each side whose calibration samples set a query's scale

END_TO_END_UNITS = {
    "latency_p50_s": "s", "latency_tail_s": "s", "queries_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of the host's
    current speed. The loop is the benchmark's own code, never the program's."""
    t = time.perf_counter()
    s, d = 0, {}
    for i in range(20000):
        s += i * i % 7
        d[i & 255] = s
    return time.perf_counter() - t


def normalised(lat: list[float], cal: list[float]) -> list[float]:
    """Each latency in reference-host seconds. Query ``k`` sits between
    calibration samples ``2k`` and ``2k + 1``. The host's speed at ``k`` is
    the median of the samples within ``CALIB_WINDOW`` queries of it, because
    one sample of a 2 ms loop is itself noisy while the drift is slow."""
    out = []
    for k, dt in enumerate(lat):
        window = cal[max(0, 2 * (k - CALIB_WINDOW)):2 * (k + CALIB_WINDOW + 1)]
        out.append(dt * CALIB_REF_S / statistics.median(window))
    return out


def run_query(wl, q):
    """Plan one query; returns (outcome, seconds, problem or None).

    The outcome is the planner's result or the ``NoPathError`` it raised.
    """
    t = time.perf_counter()
    try:
        outcome = wl.run(q)
    except NoPathError as exc:
        outcome = exc
    except Exception as exc:  # a query that crashes is counted as failed
        return exc, time.perf_counter() - t, f"raised {exc!r}"
    return outcome, time.perf_counter() - t, None


def query_problems(wl, q, outcome, crash, golden, index) -> list[str]:
    if crash is not None:
        return [crash]
    problems = check.check_outcome(wl.kind, q, outcome)
    if index < len(golden):
        problems += check.check_golden(check.record(outcome), golden[index])
    return problems


def set_up(wl, seed):
    """Generate the checked inputs, load the golden file and warm up: all a
    run does between its imports and its first timed query. Returns the
    inputs, their digest and the golden records."""
    prefix = [wl.make(seed, i) for i in range(CHECKED)]
    golden = check.load_golden(wl.name, seed)
    warm = WARMUP[wl.name]
    try:
        warm.run(warm.make(0, 0))
    except NoPathError:
        pass
    return prefix, input_digest(prefix), golden


def cold_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh ``run.py --setup-only`` process to the
    line saying it is ready for its first timed query, for
    ``SETUP_REPEATS`` processes run one after another, and the calibration
    samples taken before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    times, cal = [], []
    for _ in range(SETUP_REPEATS):
        cal.append(calibrate())
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - t)
            child.communicate()
        cal.append(calibrate())
        if child.returncode != 0 or ready.strip() != READY:
            raise RuntimeError(f"set-up process failed: exit {child.returncode}, said {ready!r}")
    return times, cal


def tail(latencies):
    """Latency at the highest percentile with ``TAIL_BEYOND`` queries above
    it, with that percentile; the maximum when there are too few queries."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def measure(wl, seed, seconds, prefix, golden, tracer):
    """The closed loop. Returns wall latencies, calibration samples, traced
    wall latencies, per-query layer values, the tally, the records of the
    checked queries and the number of queries that correctly found no route."""
    tally = check.Tally()
    lat, cal, traced_lat, layers, records = [], [], [], [], []
    no_route = 0
    busy = 0.0
    i = 0
    while i < CHECKED or busy < seconds:
        q = prefix[i] if i < CHECKED else wl.make(seed, i)
        cal.append(calibrate())
        outcome, dt, crash = run_query(wl, q)
        cal.append(calibrate())
        busy += dt
        lat.append(dt)
        no_route += isinstance(outcome, NoPathError)
        problems = query_problems(wl, q, outcome, crash, golden, i)
        # Normalising assumes the program runs in this one thread only: a
        # thread left running would slow the calibration loop with it.
        if threading.active_count() > 1:
            problems.append(f"{threading.active_count()} threads running after the query")
        if tracer is not None:
            q2 = wl.make(seed, i)
            with tracer.installed(i, wl.kind, q2.legs):
                outcome2, dt2, crash2 = run_query(wl, q2)
            busy += dt2
            traced_lat.append(dt2)
            problems += query_problems(wl, q2, outcome2, crash2, golden, i)
            if crash is None and crash2 is None and check.record(outcome) != check.record(outcome2):
                problems.append("traced route differs from the untraced one")
            layers.append(tracer.query_metrics(i))
        if i < CHECKED:
            records.append(check.record(outcome) if crash is None else {"crash": crash})
        tally.add(i, problems)
        i += 1
    return lat, cal, traced_lat, layers, tally, records, no_route


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=f"set up, print {READY!r} and exit (times setup_s)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]
    prefix, in_digest, golden = set_up(wl, args.seed)
    own_setup_s = time.perf_counter() - _PROCESS_T0
    if args.setup_only:
        print(READY, flush=True)
        return 0
    tracer = tracing.Tracer() if args.trace else None
    lat, cal, traced_lat, layers, tally, records, no_route = measure(
        wl, args.seed, args.seconds, prefix, golden, tracer)

    print(f"workload {wl.name} seed {args.seed}: closed loop, 1 client, "
          f"{tally.attempted} queries, trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}")
    print(f"input digest (first {CHECKED} queries): {in_digest}")
    print(f"route digest (first {CHECKED} queries): {digest_of(records)}")
    if golden:
        print(f"golden routes checked: {min(len(golden), CHECKED)}")
    for p in tally.problems:
        print(f"FAILED {p}")
    print(f"queries that found no route (each confirmed by the lattice oracle): {no_route}")
    print(f"error_rate = {tally.error_rate!r} ({tally.failed}/{tally.attempted})")

    if tracer is None:
        setups, setup_cal = cold_setups(wl.name, args.seed)
        print(f"wall: set-up of this process {own_setup_s:.4f} s; of {SETUP_REPEATS} fresh "
              f"processes " + ", ".join(f"{t:.4f}" for t in setups) + " s; "
              f"latency p50 {statistics.median(lat):.4f} s")
        norm = normalised(lat, cal)
        tail_s, pct = tail(norm)
        metrics = {
            "latency_p50_s": statistics.median(norm),
            "latency_tail_s": tail_s,
            "queries_per_s": (len(norm) - tally.failed) / sum(norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups) * CALIB_REF_S / statistics.median(setup_cal),
        }
        units = END_TO_END_UNITS
        print(f"latency_tail_s is p{pct:.1f} of {len(norm)} queries; times below are "
              f"normalised to the reference host (calibration loop {CALIB_REF_S} s)")
        correct = tally.failed == 0
    else:
        metrics = {name: statistics.median(v[name] for v in layers)
                   for name in tracing.UNITS if name != "trace.overhead_frac"}
        base = statistics.median(lat)
        metrics["trace.overhead_frac"] = (statistics.median(traced_lat) - base) / base
        units = tracing.UNITS
        counts = [{k: v for k, v in m.items() if tracing.UNITS[k] != "s"}
                  for m in layers[:CHECKED]]
        print(f"count digest (first {CHECKED} queries): {digest_of(counts)}")
        accounting = tracer.accounting_problems()
        for p in accounting:
            print(f"FAILED span accounting: {p}")
        total, parts = tracer.plan2d_breakdown()
        print(f"plan2d spans {total!r} s = "
              + " + ".join(f"{name} {t!r} s" for name, t in parts.items()))
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps(tracer.spans))
        print(f"spans written to {out.relative_to(ROOT)}")
        correct = tally.failed == 0 and not accounting

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in tracing.REPORT_ONLY},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
