"""Engine benchmark: fixed seeded workloads against the public voracious API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json):
  verify-334       Verifier(...).run_suite() at radius 8 on triangle (3,3,4)
  automaton-a3t    build the affine A~3 automaton (cap 11) and to_json(), then
                   accepts() on uniformly random words of length 50
  normal-form-334  with the (3,3,4) cap-6 automaton built in set-up, the
                   canonical word of random length-16 geodesics (nf), then
                   accepts() of that canonical word (accept)

Each repeat runs in a fresh worker process, one at a time.  With --trace 0,
repeats start until S seconds have passed (at least MIN_REPEATS of them), and
the end-to-end metrics are medians over repeats: setup_s (process start to the
first timed operation, import included), run_s (the timed phase of one
repeat) and peak_rss_mb (ru_maxrss of the worker).  Both times are rescaled to
a nominal CPU speed by the reference pace of pace.py; their wall-time values
are printed too.  Latencies of single operations are pooled over repeats and
printed with error_rate.  With --trace 1, one plain and one traced repeat run
on the same inputs; the per-layer metrics come from the traced one,
trace.overhead is traced over plain run wall time, and the two output digests
must agree.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is non-zero if any output is wrong, and no
result is printed if a worker cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("verify-334", "automaton-a3t", "normal-form-334")

MIN_REPEATS = 3
MAX_REPEATS = 40
BUDGET_S = 160  # every run must end within 180 s
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, index, trace, deadline):
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(seed),
           "--index", str(index)]
    if trace:
        cmd.append("--trace")
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            timeout=max(1.0, deadline - time.monotonic()),
            check=False,
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{workload} repeat {index} ran out of time") from e
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} repeat {index} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None, None


def run_plain(workload, seed, seconds, deadline):
    repeats = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        repeats.append(spawn(workload, seed, len(repeats), False, deadline))
        last = time.monotonic() - t0
        now = time.monotonic()
        if len(repeats) >= MAX_REPEATS or now + last > deadline:
            break
        if len(repeats) >= MIN_REPEATS and now - start >= seconds:
            break
    return repeats


def end_to_end(repeats):
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in repeats), "s"),
        "run_s": (statistics.median(r["run_s"] for r in repeats), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in repeats), "MB"),
    }


def print_end_to_end(workload, repeats, attempted, failed):
    print(f"{workload}: {len(repeats)} repeats")
    for name, (value, unit) in end_to_end(repeats).items():
        print(f"  {name:<16} {value:12.6f} {unit:<5} median of {len(repeats)} repeats")
    for name in ("setup_wall_s", "run_wall_s"):
        value = statistics.median(r[name] for r in repeats)
        print(f"  {name:<16} {value:12.6f} {'s':<5} wall time, not at reference pace")
    print(f"  {'error_rate':<16} {failed / attempted:12.6f} {'1':<5} "
          f"{failed} of {attempted} operations")
    for op in ("accept", "nf"):
        samples = [x for r in repeats for x in r["ops"].get(op, ())]
        if not samples:
            print(f"  {op + '_p50_ms':<16} {'n/a':>12} ms")
            print(f"  {op + '_tail_ms':<16} {'n/a':>12} ms")
            continue
        p, value = tail(samples)
        print(f"  {op + '_p50_ms':<16} {statistics.median(samples) * 1e3:12.6f} ms    "
              f"of {len(samples)} samples")
        if p is None:
            print(f"  {op + '_tail_ms':<16} {'n/a':>12} ms    too few samples")
        else:
            print(f"  {op + '_tail_ms':<16} {value * 1e3:12.6f} ms    "
                  f"p{p:g} of {len(samples)} samples")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voracious" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            repeats = [
                spawn(args.workload, args.seed, 0, False, deadline),
                spawn(args.workload, args.seed, 0, True, deadline),
            ]
        else:
            repeats = run_plain(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    for r in repeats:
        for text in r["problems"]:
            print(f"wrong output: {text}", file=sys.stderr)
    correct = failed == 0

    if args.trace:
        plain, traced = repeats
        print_end_to_end(args.workload, [plain], plain["attempted"], plain["failed"])
        layers = traced["layers"]
        layers["trace.overhead"] = traced["run_wall_s"] / plain["run_wall_s"]
        if traced["digest"] != plain["digest"]:
            print("wrong output: traced digest differs from the plain run", file=sys.stderr)
            correct = False
        print(f"{args.workload}: per-layer metrics of one traced repeat")
        metrics = {}
        for name, unit, _ in PER_LAYER:
            value = layers[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<42} {value:>16.6f} {unit}" if unit in ("s", "ratio")
                  else f"  {name:<42} {value:>16} {unit}")
    else:
        print_end_to_end(args.workload, repeats, attempted, failed)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(repeats).items()
        }

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
