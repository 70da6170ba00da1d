"""The exact LP stays where it is needed.  Cones are certified by polarity, so
outside geometry.py only validate_subdivision's _lp_min solves an LP
(lp_maximize), and lp_feasible_strict is only re-exported by __init__.py."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent
LP_NAMES = ("lp_feasible_strict", "lp_maximize")
# (file, routine) -> where the file may mention it: "import" for the import
# that brings it in, "export" for a string naming it (an __all__ entry), or
# the name of the function whose body may use it
ALLOWED = {
    ("__init__.py", "lp_feasible_strict"): {"import", "export"},
    ("regular_subdivision.py", "lp_maximize"): {"import", "_lp_min"},
}


def _lp_references(tree) -> list[tuple[str, str, int]]:
    """(routine, where, line) for every mention of an LP routine: where is
    "import", "export", or the innermost enclosing function ("module" at
    top level).  Names an import binds to a routine count as the routine."""
    aliases = {name: name for name in LP_NAMES}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rpartition(".")[2]
                if name in LP_NAMES and alias.asname:
                    aliases[alias.asname] = name
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rpartition(".")[2]
                if name in LP_NAMES:
                    out.append((name, "import", node.lineno))
        elif isinstance(node, ast.Name) and node.id in aliases:
            out.append((aliases[node.id], where, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in LP_NAMES:
            out.append((node.attr, where, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in LP_NAMES:
            out.append((node.value, "export", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "module")
    return out


def _stray(name: str, tree) -> list[str]:
    return [
        f"{name}:{line} {routine} ({where})"
        for routine, where, line in _lp_references(tree)
        if where not in ALLOWED.get((name, routine), ())
    ]


def test_lp_routines_stay_confined():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "geometry.py":
            found += _stray(path.name, ast.parse(path.read_text(), filename=str(path)))
    assert not found, "LP routines used outside their places: " + ", ".join(found)


def test_detector_flags_each_reference_form():
    stray = [
        ("painting.py", "from .geometry import lp_maximize"),
        ("painting.py", "from . import geometry\ndef f(): return geometry.lp_maximize"),
        ("painting.py", "import tropaint.geometry.lp_feasible_strict"),
        ("painting.py", "getattr(geometry, 'lp_feasible_strict')"),
        ("regular_subdivision.py", "from .geometry import lp_feasible_strict"),
        ("regular_subdivision.py", "def _certify_cone(): return lp_maximize()"),
        ("regular_subdivision.py", "from .geometry import lp_maximize as solve\ndef f(): solve()"),
        ("__init__.py", "def f(): return lp_feasible_strict()"),
        ("__init__.py", "from .geometry import lp_maximize"),
    ]
    allowed = [
        ("__init__.py", "from .geometry import lp_feasible_strict\n__all__ = ['lp_feasible_strict']"),
        (
            "regular_subdivision.py",
            "from .geometry import lp_maximize\ndef _lp_min(): return lp_maximize()",
        ),
        ("painting.py", "def f(lp):\n    return lp.maximize"),
    ]
    for name, text in stray:
        assert _stray(name, ast.parse(text)), text
    for name, text in allowed:
        assert not _stray(name, ast.parse(text)), text
