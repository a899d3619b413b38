"""Checks over the package source itself."""

import ast
from pathlib import Path


def test_no_assert_statements():
    """`python -O` strips assert statements, so a runtime check must raise."""
    sources = sorted((Path(__file__).parents[1] / "src" / "watchlab").glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_imports():
    """Every name a module imports is used in it; `__init__.py` re-exports."""
    sources = sorted((Path(__file__).parents[1] / "src" / "watchlab").glob("*.py"))
    found = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, found
