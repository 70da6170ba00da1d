"""Module-level caches must be bounded: an unbounded one grows for the life
of the process and makes counts and times depend on what ran before."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent


def _unbounded(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute):
        owner = node.value
        return node.attr == "cache" and isinstance(owner, ast.Name) and owner.id == "functools"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
    return False


def test_library_has_no_unbounded_caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _unbounded(n)]
    assert not found, "unbounded caches in library code: " + ", ".join(found)


def test_detector_flags_each_unbounded_form():
    unbounded = [
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x",
        "import functools\n@functools.lru_cache(None)\ndef f(x): return x",
        "import functools\n@functools.cache\ndef f(x): return x",
        "from functools import cache",
    ]
    bounded = [
        "from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): return x",
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x",
        "from functools import cached_property",
    ]
    for text in unbounded:
        assert any(_unbounded(n) for n in ast.walk(ast.parse(text))), text
    for text in bounded:
        assert not any(_unbounded(n) for n in ast.walk(ast.parse(text))), text
