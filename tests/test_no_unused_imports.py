"""Every name a library module imports is used there.  __init__.py is left
out: its imports are the package's re-exports."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent


def _unused_imports(tree) -> list[tuple[str, int]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert not found, "unused imports in library code: " + ", ".join(found)


def test_detector_flags_each_import_form():
    unused = [
        "import os",
        "import os.path",
        "from os import path",
        "from os import path as p",
        "from .geometry import vdot\ndef vdot_twice(x): return 2 * x",
    ]
    used = [
        "from __future__ import annotations",
        "import os\nos.getcwd()",
        "import os.path\nos.path.join('a')",
        "from os import path as p\np.join('a')",
        "from .geometry import Vec\ndef f(x: Vec): return x",
    ]
    for text in unused:
        assert _unused_imports(ast.parse(text)), text
    for text in used:
        assert not _unused_imports(ast.parse(text)), text
