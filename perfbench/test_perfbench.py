"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload, trace, seed=0):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_the_declared_metrics(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(workload, 1, seed=5)["metrics"] for _ in range(2))
    counts = [n for n, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_liftings_make_no_lp_solves():
    metrics = result("liftings", 1)["metrics"]
    assert metrics["geometry.lp.calls"]["value"] == 0
    assert metrics["regular_subdivision.secondary_cone.calls"]["value"] == 0
    assert metrics["tropical_dual.dual_complex.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
