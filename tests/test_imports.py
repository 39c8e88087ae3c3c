"""Every module-level import of the package is used in its module: no linter runs on it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spatialsdr"


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that no expression reads;
    ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_an_unread_import_is_found():
    source = "from __future__ import annotations\nimport numpy as np\nimport os.path\nfrom a import b, c as d\nd(np)\n"
    assert unused_imports(source) == ["os", "b"]
