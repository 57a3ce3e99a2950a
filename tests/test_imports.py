"""Static check on the package source: every import is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roughvol"
# __init__ imports names only to re-export them as the public API.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nx: 'Path' = pi\nfrom pathlib import Path\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
