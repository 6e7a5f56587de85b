"""Package-wide rules: modules reach each other through public names only,
and every error type is one that some caller catches by name."""

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


def test_every_error_class_is_caught_by_name_somewhere():
    defined = {node.name for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert sorted(defined - caught) == []
