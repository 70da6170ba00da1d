"""Shared table of CLI invocations pinned by golden files.

Each case names a command line (INPUT is replaced by the input file path),
the golden file for stdout, the golden file per --out artifact, and the
PYTHONHASHSEED values to run under.  Seeds differ per case so hash-order
leaks into any output would show up as byte drift.  run_cli runs one
command line in a child interpreter that child_env points at the code
under test.
"""

import os
import pathlib
import subprocess
import sys

import tropaint

GOLDEN_DIR_NAME = "golden"


def child_env():
    """The environment for a child interpreter that runs the code under test.

    pytest's pythonpath setting does not reach child processes, so the
    directory holding the tropaint this process imported (src/ in a plain
    checkout) goes first on the child's PYTHONPATH.
    """
    src = str(pathlib.Path(tropaint.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def run_cli(args, seed=None, out_dir=None):
    """Run python -m tropaint.cli with args in a child interpreter set up by
    child_env.  seed, when given, sets PYTHONHASHSEED."""
    env = child_env()
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    cmd = [sys.executable, "-m", "tropaint.cli", *args]
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    return subprocess.run(cmd, capture_output=True, env=env)

# name, input key or None, argv after prog, stdout golden,
# {artifact name: golden name}, seeds
CASES = [
    (
        "subdivide_quad",
        "quad",
        ["subdivide", "INPUT", "--eta", "[-1,1,0,2,0]"],
        "subdivide_quad.json",
        {},
        ("0", "1"),
    ),
    (
        "subdivide_bipyramid",
        "bipyramid",
        ["subdivide", "INPUT", "--eta", "[1,0,2,0,1]"],
        "subdivide_bipyramid.json",
        {},
        ("0", "1"),
    ),
    (
        "tropical_quad",
        "quad",
        ["tropical", "INPUT", "--eta", "[-1,1,0,2,0]", "--svg", "--bbox=-3,-3,3,3"],
        "tropical_quad.json",
        {"complex.svg": "tropical_quad.svg"},
        ("0", "1"),
    ),
    (
        "tropical_bipyramid",
        "bipyramid",
        ["tropical", "INPUT", "--eta", "[1,0,2,0,1]"],
        "tropical_bipyramid.json",
        {},
        ("2",),
    ),
    (
        "paint_quad",
        "quad",
        ["paint", "INPUT", "--eta", "[-1,1,0,2,0]", "--level", "1/2", "--svg", "--bbox=-3,-3,3,3"],
        "paint_quad.json",
        {"painted.svg": "paint_quad.svg"},
        ("0", "1"),
    ),
    (
        "paint_bipyramid",
        "bipyramid",
        ["paint", "INPUT", "--eta", "[1,0,2,0,1]", "--level", "1/3"],
        "paint_bipyramid.json",
        {},
        ("2",),
    ),
    (
        "secondary_quad",
        "quad",
        ["secondary", "INPUT"],
        "secondary_quad.json",
        {"hasse.dot": "secondary_quad_hasse.dot"},
        ("0", "1"),
    ),
    (
        "secondary_bipyramid",
        "bipyramid",
        ["secondary", "INPUT"],
        "secondary_bipyramid.json",
        {"hasse.dot": "secondary_bipyramid_hasse.dot"},
        ("2",),
    ),
    (
        "multiplihedron_m3",
        None,
        ["multiplihedron", "-m", "3"],
        "multiplihedron_m3.json",
        {"multiplihedron.dot": "multiplihedron_m3.dot"},
        ("0", "1"),
    ),
    (
        "painting_polytope_bipyramid",
        "bipyramid",
        ["painting-polytope", "INPUT"],
        "pp_bipyramid_report.json",
        {
            "extended_configuration.json": "pp_bipyramid_extended.json",
            "painted_hasse.dot": "pp_bipyramid_painted.dot",
            "subdivision_hasse.dot": "pp_bipyramid_subdivision.dot",
        },
        ("0", "1"),
    ),
    (
        "painting_polytope_quad",
        "quad",
        ["painting-polytope", "INPUT"],
        "pp_quad_report.json",
        {},
        ("0",),
    ),
    (
        "verify_pp_bipyramid",
        "bipyramid",
        ["verify", "painting-polytope", "INPUT"],
        "pp_bipyramid_report.json",
        {},
        ("1",),
    ),
    (
        "verify_multiplihedron_m2",
        None,
        ["verify", "multiplihedron", "-m", "2"],
        "verify_multiplihedron_m2.json",
        {},
        ("0", "1"),
    ),
]

INPUT_FILES = {"quad": "quad.json", "bipyramid": "bipyramid.json"}
