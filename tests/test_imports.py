"""Every name a kecsm module imports is used in it, no import sits inside a
function, and every function and class a module defines is used by the
library; no linter ships with the test dependencies, so this reads the
source with ``ast``."""

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


def imports_in_functions(source: str) -> list[str]:
    """``function (line)`` of each import statement inside a function of
    ``source``, at any depth; the function is named by its qualified name."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], in_function or not isinstance(child, ast.ClassDef))
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.append(f"{'.'.join(scope)} (line {child.lineno})")
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_the_check_finds_an_import_inside_a_function():
    source = ("import math\n\ndef f():\n    if True:\n        from .core import Edge\n\n"
              "class A:\n    import sys\n\n    def g(self):\n        import os\n")
    assert imports_in_functions(source) == ["f (line 5)", "A.g (line 11)"]


ALLOWED_FUNCTION_IMPORTS = {}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_imports_stay_at_module_level(path):
    found = [name.split(" ")[0] for name in imports_in_functions((SRC / path).read_text())]
    assert found == ALLOWED_FUNCTION_IMPORTS.get(path, [])


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class in ``sources``
    (module name -> source) that no ``ast.Name`` or ``ast.Attribute`` in any
    of them names outside the definition itself."""
    statements = []  # (module, top-level statement, the names it holds)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            statements.append((module, stmt, names))
    return [f"{module}.{stmt.name}" for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not any(stmt.name in names for _, other, names in statements if other is not stmt)]


def test_the_check_finds_a_definition_nothing_else_names():
    sources = {"a": "def used():\n    pass\n\ndef recursive():\n    return recursive()\n\nclass Thing:\n    pass\n",
               "b": "from . import a\nfrom .a import used\n\nx = used(), a.Thing\n"}
    assert unnamed_definitions(sources) == ["a.recursive"]


# a name that only tests use belongs in tests/; the package's __init__ only re-exports
def test_every_definition_is_used_by_the_library():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert unnamed_definitions(sources) == []
