"""Every local a library function assigns is read somewhere in it.  Names
starting with an underscore are left out: they mark a value that is
deliberately dropped, as in `p, _ = dual_complex(...)`."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _outermost_functions(tree):
    """Functions not nested in another function; a nested one is scanned
    with its enclosing function, whose locals it may read."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                yield child
            else:
                stack.append(child)


def _unused_locals(tree) -> list[tuple[str, int]]:
    found = []
    for fn in _outermost_functions(tree):
        stored: dict[str, int] = {}
        loaded = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
        found += [
            (name, line)
            for name, line in stored.items()
            if name not in loaded and not name.startswith("_")
        ]
    return sorted(found, key=lambda item: (item[1], item[0]))


def test_library_has_no_unused_locals():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _unused_locals(tree)]
    assert not found, "locals assigned and never read: " + ", ".join(found)


def test_detector_flags_each_assignment_form():
    unused = [
        "def f():\n    x = 1",
        "def f():\n    p, s = g()\n    return p",
        "def f():\n    x: int = 1",
        "def f():\n    for i in range(3):\n        pass",
        "def f():\n    with g() as h:\n        pass",
        "def f():\n    if (n := g()):\n        pass",
        "class C:\n    def m(self):\n        x = self.a",
        "def f():\n    def g():\n        y = 1\n    return g",
    ]
    used = [
        "x = 1",  # module level: other modules may read it
        "class C:\n    x = 1",
        "def f():\n    x = 1\n    return x",
        "def f():\n    p, _ = g()\n    return p",
        "def f():\n    _unused = g()",
        "def f():\n    x = 0\n    x += 1\n    return x",
        "def f():\n    x = 1\n    def g():\n        return x\n    return g",
        "X = 0\ndef f():\n    global X\n    X = 1",
        "def f():\n    return [y for y in g()]",
    ]
    for text in unused:
        assert _unused_locals(ast.parse(text)), text
    for text in used:
        assert not _unused_locals(ast.parse(text)), text
