"""Every function, method and class defined in the library, and every name
a module assigns at its top level, is referenced somewhere in the library,
the tests or the demos.  A module-level function or class must serve the
program: it is named in tropaint.__all__ or referenced from the library,
the demos or the benchmark harness, so code that only tests call belongs in
tests/oracles.py.  Dunder methods and __all__ are left out: Python reads
them."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")
PROGRAM = ("src", "demos", "perfbench")


def _assigned(node) -> list[ast.Name]:
    """The names a top-level statement assigns."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions(tree) -> list[tuple[str, int, bool, bool]]:
    """(name, line, whether it is a method, whether it is a module-level
    function or class) per definition; a method is a def directly in a class
    body."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    out = [
        (node.name, node.lineno, node in methods, node in tree.body)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    out += [
        (name.id, name.lineno, False, False)
        for node in tree.body
        for name in _assigned(node)
        if name.id != "__all__"
    ]
    return out


def _references(tree) -> tuple[set[str], set[str]]:
    """(bare names read, attribute and import names).  A method is reached
    only through the second: a bare name of its name is some other binding."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.update(node.name.split("."))
            if node.asname:
                attributes.add(node.asname)
    return names, attributes


def _unreferenced(
    library: dict[str, ast.AST], others: list[ast.AST], exported: set[str] | None = None
) -> list[str]:
    """The definitions in library that no tree of library or others
    references.  Given exported, only module-level functions and classes are
    checked, and those it names count as referenced."""
    names, attributes = set(), set()
    for tree in list(library.values()) + others:
        n, a = _references(tree)
        names |= n
        attributes |= a
    return [
        f"{name}:{line} {defined}"
        for name, tree in sorted(library.items())
        for defined, line, is_method, top in _definitions(tree)
        if (exported is None or (top and defined not in exported))
        and defined not in attributes
        and (is_method or defined not in names)
    ]


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _trees(tops) -> list[ast.AST]:
    return [
        _parse(path)
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.parent != SRC
    ]


def _library() -> dict[str, ast.AST]:
    return {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}


def test_library_defines_nothing_unreferenced():
    found = _unreferenced(_library(), _trees(SCANNED))
    assert not found, "definitions referenced nowhere: " + ", ".join(found)


def test_module_level_definitions_serve_the_program():
    found = _unreferenced(_library(), _trees(PROGRAM), set(tropaint.__all__))
    assert not found, "definitions only tests reference: " + ", ".join(found)


def test_detector_sees_each_reference_form():
    defined = (
        "def f(): pass\n"
        "def g(): pass\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def __repr__(self): return ''\n"
        "    K = 1\n"
        "ONE = 1\n"
        "A, B = 2, 3\n"
        "T: int = 4\n"
        "__all__ = ['f']\n"
    )
    assert _unreferenced({"lib.py": ast.parse(defined)}, []) == [
        "lib.py:1 f",
        "lib.py:2 g",
        "lib.py:3 C",
        "lib.py:4 m",
        "lib.py:7 ONE",
        "lib.py:8 A",
        "lib.py:8 B",
        "lib.py:9 T",
    ]
    users = ["f()\nx = C\ny.m\nONE + A + B", "from lib import f as h, g, T\nC().m()"]
    assert _unreferenced({"lib.py": ast.parse(defined)}, [ast.parse(u) for u in users]) == []
    # a local named like the method is some other binding
    shadowing = ["f()\nx = C\nm = 0\nprint(m + ONE + A + B)", "from lib import g, T"]
    assert _unreferenced({"lib.py": ast.parse(defined)}, [ast.parse(u) for u in shadowing]) == [
        "lib.py:4 m"
    ]
    # against the program, only module-level functions and classes count,
    # and an exported one is referenced
    assert _unreferenced({"lib.py": ast.parse(defined)}, [], {"f"}) == [
        "lib.py:2 g",
        "lib.py:3 C",
    ]
    assert _unreferenced({"lib.py": ast.parse(defined)}, [ast.parse("C")], {"f"}) == [
        "lib.py:2 g"
    ]
