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
