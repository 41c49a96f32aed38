"""Every module of the package uses each name it imports, and every private
module-level name the package defines is read somewhere in the package.
Importing the package leaves out ``scipy.interpolate``, which only a
tabulated field needs.

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
