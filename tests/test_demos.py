"""Every demo script runs to completion against the code under test."""

import pathlib
import subprocess
import sys

import pytest

from cli_cases import child_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert [d.name for d in DEMOS] == [
        "multiplihedron_gallery.py",
        "painted_complex_tour.py",
        "painting_polytope_heptagon.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=child_env())
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout
