"""Every module of the package uses each name it imports.

``__init__.py`` is exempt: it imports names to re-export them.
"""

import ast
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


def test_detector_flags_unused_names():
    source = "import os.path\nimport sys\nfrom math import pi as p, tau\nprint(sys, tau)\n"
    assert _unused_imports(source) == ["os", "p"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
