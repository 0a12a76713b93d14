"""Every name a tsvote module imports is used in that module.

No linter ships with the test environment, so this walks each module's AST:
an imported name that no expression, annotation or string annotation reads
fails the test. The package's __init__.py only re-exports, so it is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tsvote"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Label"
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from typing import Optional, Sequence\nimport numpy as np\n\nx: 'Optional[int]' = 1\n"
    assert unused_imports(source) == [(1, "Sequence"), (2, "np")]
