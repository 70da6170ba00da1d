"""No library module solves an LP or a square system.  Cones are certified by
a witness or by polarity and every constraint is an integer circuit, so the
exact simplex, the square solve, the subdivision validator built on them and
the refinement test it came with live only in tests/oracles.py.  This lint
fails when any module under src/ defines, imports or names one of them."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent.parent
BANNED = ("lp_maximize", "lp_feasible_strict", "solve_square", "validate_subdivision", "refines")


def _banned_mentions(tree) -> list[tuple[str, int]]:
    """(name, line) for every definition, import, name, attribute or string
    that is one of the banned routines."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name.rpartition(".")[2], a.asname)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        out += [(name, node.lineno) for name in names if name in BANNED]
    return out


def test_lp_routines_stay_confined():
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _banned_mentions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "LP routines named in the library: " + ", ".join(found)


def test_detector_flags_each_reference_form():
    flagged = [
        "def lp_maximize(objective): pass",
        "class refines: pass",
        "from .geometry import lp_maximize",
        "from .geometry import solve_square as solve",
        "import tropaint.geometry.lp_feasible_strict",
        "from . import geometry\ndef f(): return geometry.lp_maximize",
        "getattr(geometry, 'lp_feasible_strict')",
        "__all__ = ['validate_subdivision']",
        "def f(s1, s2): return refines(s1, s2)",
    ]
    allowed = [
        "def f(lp): return lp.maximize",
        "def refine(s): return s",
        "'''A triangulation refines every coarsening of it.'''",
    ]
    for text in flagged:
        assert _banned_mentions(ast.parse(text)), text
    for text in allowed:
        assert not _banned_mentions(ast.parse(text)), text
