"""Every function, method and class defined in the library is referenced
somewhere in the library, the tests or the demos.  Dunder methods are left
out: Python calls them."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def _definitions(tree) -> list[tuple[str, int]]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _references(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
    return out


def _unreferenced(library: dict[str, ast.AST], others: list[ast.AST]) -> list[str]:
    used = set()
    for tree in list(library.values()) + others:
        used |= _references(tree)
    return [
        f"{name}:{line} {defined}"
        for name, tree in sorted(library.items())
        for defined, line in _definitions(tree)
        if defined not in used
    ]


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_defines_nothing_unreferenced():
    library = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    others = [
        _parse(path)
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.parent != SRC
    ]
    found = _unreferenced(library, others)
    assert not found, "definitions referenced nowhere: " + ", ".join(found)


def test_detector_sees_each_reference_form():
    defined = (
        "def f(): pass\n"
        "def g(): pass\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def __repr__(self): return ''\n"
    )
    assert _unreferenced({"lib.py": ast.parse(defined)}, []) == [
        "lib.py:1 f",
        "lib.py:2 g",
        "lib.py:3 C",
        "lib.py:4 m",
    ]
    users = ["f()\nx = C\ny.m", "from lib import f as h, g\nC().m()"]
    assert _unreferenced({"lib.py": ast.parse(defined)}, [ast.parse(u) for u in users]) == []
