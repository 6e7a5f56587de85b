"""Modules of the package reach each other through public names only."""

import ast
from pathlib import Path

import partembed

PACKAGE = Path(partembed.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("partembed")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
