"""One repeat of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD --seed N --index I --spawned-at T [--trace]

Imports the engine from the checkout's `src/`, sets the workload up, runs its
timed operations, checks their outputs and prints one JSON line.  T is the
parent's perf_counter() (CLOCK_MONOTONIC) just before it started this process.

A plain repeat reports setup_s (from T to the first timed operation) and
run_s (the timed phase) at the reference pace of pace.py; setup_wall_s and
run_wall_s are the same spans in wall time, less the reference slices.  A
traced repeat takes no pace samples: the engine is wrapped by the span tracer
from before set-up until the timed phase ends, its times are wall times, and
the spans are written under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    pace = None if args.trace else Pace()
    if pace is not None:
        pace.start()
    sys.path.insert(0, str(ROOT / "src"))
    import voracious

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](voracious, args.seed, args.index)
    tracer = Tracer(voracious) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
        if pace is not None:
            workload.clock = pace.clock
        setup_end = time.perf_counter()
        setup_wall = setup_end - args.spawned_at - (pace.handler_s if pace else 0.0)
        run_start = time.perf_counter()
        handler_before = pace.handler_s if pace else 0.0
        workload.run()
        run_end = time.perf_counter()
        run_wall = run_end - run_start - ((pace.handler_s - handler_before) if pace else 0.0)
    finally:
        if tracer is not None:
            tracer.restore()
        if pace is not None:
            pace.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check()

    out = {
        "setup_s": setup_wall,
        "run_s": run_wall,
        "setup_wall_s": setup_wall,
        "run_wall_s": run_wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": workload.ops,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "digest": workload.digest.hexdigest(),
    }
    if pace is not None:
        out["setup_s"] = pace.nominal(setup_wall, args.spawned_at, setup_end)
        out["run_s"] = pace.nominal(run_wall, run_start, run_end)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"{args.workload}.spans")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
