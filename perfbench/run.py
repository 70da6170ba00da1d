"""tropaint benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload liftings --seed 1 --seconds 35 --trace 0

Every pass runs in a fresh interpreter (worker.py), so tropaint's
module-level caches start cold, as they do for every CLI command.  Within
the time budget the run repeats passes over the same seeded inputs and
reports medians.  Operation times are scaled by a reference computation
timed in the same pass, so that they do not follow the machine's load.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics, including the tracer's own overhead.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines above it are for
people.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("liftings", "edge_lengths", "theorems")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5  # set-up-only interpreters per run, besides one per pass
# Operation times are scaled to a machine on which worker.reference() takes
# this long.  The reference machine's speed for this code swings by up to 2x
# within seconds under other load; the reference, timed between operations
# of the same pass, tracks it (see README.md).  Per-layer times, which are
# sums over a pass, are scaled by the pass's median reference time.
REFERENCE_NOMINAL_S = 0.015
PASS_TIMEOUT_S = 170


class PassFailed(Exception):
    """A worker interpreter exited abnormally or printed no result."""


def spawn(args, workdir: Path, traced: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", "1" if traced else "0", "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir()
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not end within {PASS_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def op_percentile(passes, q, scaled=True):
    """The q-th percentile of each pass's operation latencies, interpolating
    between the nearest ranks; median over the passes."""
    return statistics.median(
        statistics.quantiles(
            scaled_latencies(p) if scaled else p["latencies_s"], n=100, method="inclusive"
        )[q - 1]
        for p in passes
    )


def scale(worker_pass) -> float:
    """Factor from a pass's wall times to times at the reference speed."""
    return REFERENCE_NOMINAL_S / statistics.median(worker_pass["reference_s"])


def scaled_latencies(worker_pass) -> list[float]:
    """Operation latencies at the reference speed: each is scaled by the mean
    of the reference times sampled just before and just after it."""
    refs, at = worker_pass["reference_s"], worker_pass["reference_at"]
    out = []
    for i, latency in enumerate(worker_pass["latencies_s"]):
        after = bisect.bisect_right(at, i)
        out.append(latency * 2 * REFERENCE_NOMINAL_S / (refs[after - 1] + refs[after]))
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout, or None outside a git work tree (then the
    source digest identifies the code)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(args, run_dir: Path):
    """Set-up probes, then passes until the time budget is spent."""
    setups = [
        spawn(args, run_dir / f"setup-{i}", traced=False, setup_only=True)["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    kinds = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    started = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for traced in kinds:
            index = len(passes[False]) + len(passes[True])
            passes[traced].append(spawn(args, run_dir / f"pass-{index}", traced))
        now = time.monotonic()
        if now - started + (now - cycle_start) > args.seconds:
            break
    return setups, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="0 selects the golden inputs")
    parser.add_argument("--seconds", type=float, default=35, help="time budget for passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few operations per pass, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups, passes = measure(args, run_dir)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    everything = passes[False] + passes[True]
    attempted = sum(len(p["latencies_s"]) for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    untraced = passes[False]
    run_s = statistics.median(sum(scaled_latencies(p)) for p in untraced)

    ops = len(untraced[0]["latencies_s"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": ops,
        "passes_untraced": len(untraced),
        "passes_traced": len(passes[True]),
        "runs": "cold: each pass and set-up probe in a fresh interpreter",
        "load": "closed loop, one client, operations back to back",
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    print("meta " + json.dumps(meta))
    for failure in failures[:20]:
        print("FAILED " + failure)
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:g}")

    if args.trace:
        traced = passes[True]
        traced_run_s = statistics.median(sum(scaled_latencies(p)) for p in traced)
        values = {
            name: statistics.median(
                p["per_layer"][name] * (scale(p) if unit == "s" else 1) for p in traced
            )
            for name, unit in PER_LAYER.items()
            if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = traced_run_s / run_s - 1
        units = PER_LAYER
    else:
        setup_samples = setups + [p["setup_s"] for p in untraced]
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "op_p50_ms": 1000 * op_percentile(untraced, 50),
            "op_p95_ms": 1000 * op_percentile(untraced, 95),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
        }
        units = END_TO_END
        references = [x for p in untraced for x in p["reference_s"]]
        print(f"setup_s over {len(setup_samples)} set-ups; run_s, op percentiles and "
              f"peak_rss_mb per pass of {ops} operations, median over {len(untraced)} passes")
        print(f"wall clock, unscaled: run_s "
              f"{statistics.median(sum(p['latencies_s']) for p in untraced):.6g} s, "
              f"op_p50_ms {1000 * op_percentile(untraced, 50, scaled=False):.6g} ms, "
              f"op_p95_ms {1000 * op_percentile(untraced, 95, scaled=False):.6g} ms; reference "
              f"{1000 * statistics.median(references):.4g} ms (median of {len(references)}), "
              f"scaled to {1000 * REFERENCE_NOMINAL_S:g} ms")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
