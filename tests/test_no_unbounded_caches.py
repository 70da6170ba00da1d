"""Library code keeps no module-level cache: one that outlives a call, bounded
or not, makes counts and times depend on what ran before.  Per-instance
memos stay allowed, since they live and die with one object: a
cached_property, or a dict that a method fills on its own instance, as
PointConfiguration.circuit and scaled_volume do."""

import ast
import pathlib

import tropaint

SRC = pathlib.Path(tropaint.__file__).resolve().parent


def _cache(node) -> bool:
    """True for any use of functools.lru_cache or functools.cache."""
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in ("cache", "lru_cache") for alias in node.names)
    if isinstance(node, ast.Attribute):
        owner = node.value
        return (
            node.attr in ("cache", "lru_cache")
            and isinstance(owner, ast.Name)
            and owner.id == "functools"
        )
    return False


def test_library_has_no_unbounded_caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _cache(n)]
    assert not found, "module-level caches in library code: " + ", ".join(found)


def test_detector_flags_each_unbounded_form():
    caches = [
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x",
        "import functools\n@functools.lru_cache(None)\ndef f(x): return x",
        "import functools\n@functools.cache\ndef f(x): return x",
        "from functools import cache",
        "from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): return x",
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x",
        "import functools\n@functools.lru_cache(maxsize=256)\ndef f(x): return x",
    ]
    allowed = [
        "from functools import cached_property",
        "import functools\nclass C:\n    @functools.cached_property\n    def f(self): return 1",
        "from functools import wraps",
    ]
    for text in caches:
        assert any(_cache(n) for n in ast.walk(ast.parse(text))), text
    for text in allowed:
        assert not any(_cache(n) for n in ast.walk(ast.parse(text))), text
