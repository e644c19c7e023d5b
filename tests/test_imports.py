"""Every name a kecsm module imports is used in it; no linter ships with the
test dependencies, so this reads the source with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kecsm"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else in it names.

    A name counts as used wherever it occurs, also inside a string that
    parses as an expression, such as a quoted annotation; ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from .core import Edge, MetricInstance\n\n"
              "def f(e: 'Edge') -> float:\n    return np.pi\n")
    assert unused_imports(source) == ["math (line 2)", "MetricInstance (line 4)"]


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(path):
    assert unused_imports((SRC / path).read_text()) == []
