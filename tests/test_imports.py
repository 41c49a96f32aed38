"""Every module of the package uses each name it imports, and every private
module-level name the package defines is read somewhere in the package.
Importing the package leaves out ``scipy.interpolate``, which only a
tabulated field needs.  No function sits behind an unbounded cache
(``functools.cache`` or ``lru_cache(maxsize=None)``), which would grow for
the life of the process.

``__init__.py`` is exempt from the import check: it imports names to
re-export them.  Reads from test files do not count for private names.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracsource"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _orphans(sources: list[str]) -> list[str]:
    """Private module-level names (one leading underscore, not dunder) that
    some source defines and no source reads, by name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def _called(node: ast.expr) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_unbounded_cache(node: ast.expr) -> bool:
    """``functools.cache``, or ``lru_cache`` given maxsize None, as a
    decorator or as the wrapper applied in a call."""
    if isinstance(node, ast.Call):
        if _called(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            return any(isinstance(a, ast.Constant) and a.value is None for a in sizes)
        return _is_unbounded_cache(node.func)
    return _called(node) == "cache"


def _unbounded_caches(source: str) -> list[str]:
    """Names of functions decorated with an unbounded cache, or assigned
    the result of wrapping one in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_unbounded_cache(d) for d in node.decorator_list):
                found.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_unbounded_cache(node.value):
                found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return sorted(found)


def test_detector_flags_unused_names():
    source = "import os.path\nimport sys\nfrom math import pi as p, tau\nprint(sys, tau)\n"
    assert _unused_imports(source) == ["os", "p"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detector_flags_orphan_names():
    defining = (
        "__all__ = []\n_A, _b = 1, 2\n_used: int = 3\n_c = _A\n"
        "def _helper():\n    return 0\nclass _Kind:\n    pass\ndef public():\n    return 1\n"
    )
    reading = "from . import a\nprint(a._used)\n"
    assert _orphans([defining, reading]) == ["_Kind", "_b", "_c", "_helper"]


def test_no_orphan_private_names():
    sources = [p.read_text() for p in sorted(_PACKAGE.glob("*.py"))]
    assert _orphans(sources) == []


def test_detector_flags_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef _a():\n    pass\n"
        "@cache\ndef _b():\n    pass\n"
        "@lru_cache(maxsize=None)\ndef _c():\n    pass\n"
        "@functools.lru_cache(None)\ndef _d():\n    pass\n"
        "_e = lru_cache(maxsize=None)(len)\n"
        "_f = functools.cache(len)\n"
        "@lru_cache(maxsize=16)\ndef _bounded():\n    pass\n"
        "@functools.lru_cache\ndef _default_size():\n    pass\n"
        "_g = lru_cache(8)(len)\n"
        "_h = len(cache.__name__)\n"
    )
    assert _unbounded_caches(source) == ["_a", "_b", "_c", "_d", "_e", "_f"]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    assert _unbounded_caches(path.read_text()) == []


def test_package_import_leaves_out_scipy_interpolate():
    # scipy.interpolate also loads scipy.optimize: time and memory that
    # every process importing the package would pay for one rare input form
    src = str(_PACKAGE.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import fracsource; "
    code += "print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
