"""One pass of a workload, in the fresh interpreter run.py starts for it.

The pass builds its inputs from the seed, runs every operation back to back
(closed loop, one client), checks each output outside the timed interval
and prints one JSON line: set-up time, per-operation latencies, the times of
the reference computation run between operations, failures, peak RSS and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.25


def reference():
    """Fixed work that uses only the standard library: row-reduce 25 seeded
    5 x 6 rational matrices.  Timed between operations, it tracks how fast
    the machine runs this kind of code at that moment."""
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)] for _ in range(5)]
        rank = 0
        for col in range(6):
            pivot = next((i for i in range(rank, 5) if rows[i][col] != 0), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inverse = 1 / rows[rank][col]
            for i in range(5):
                if i != rank and rows[i][col] != 0:
                    factor = rows[i][col] * inverse
                    rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
            rank += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() in the parent just before it started this interpreter",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import tropaint
    import workloads

    source = Path(tropaint.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"tropaint imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.size, ROOT, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    latencies, failures, reference_s, reference_at = [], [], [], []

    def sample_reference():
        # without the collector, the time does not grow with the heap the
        # operations leave behind
        gc.disable()
        t0 = clock()
        reference()
        reference_s.append(clock() - t0)
        gc.enable()
        reference_at.append(len(latencies))
        return clock()

    sampled = sample_reference()
    for op in ops:
        if clock() - sampled >= REFERENCE_EVERY_S:
            sampled = sample_reference()
        t0 = clock()
        try:
            with tracer.op() if tracer else nullcontext():
                out = op.run()
        except Exception:
            latencies.append(clock() - t0)
            failures.append(f"{op.label}: raised\n{traceback.format_exc(limit=-4)}")
            continue
        latencies.append(clock() - t0)
        try:
            with tracer.paused() if tracer else nullcontext():
                op.check(out)
        except Exception as exc:
            failures.append(f"{op.label}: check failed: {type(exc).__name__}: {exc}")

    sample_reference()
    result.update(
        latencies_s=latencies,
        reference_s=reference_s,
        reference_at=reference_at,
        failures=failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        per_layer=tracer.per_layer_metrics() if tracer else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
