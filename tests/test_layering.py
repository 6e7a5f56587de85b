"""Package-wide rules: modules reach each other through public names only,
every error type is one that some caller catches by name, every public
function and class has a caller outside the tests, the README's config
table names every config field, its command-line section every
command-line flag, and its shape-format paragraph every key of a native
JSON shape."""

import argparse
import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import partembed
from partembed import (BenchmarkSpec, PartHierarchy, PenConfig, ShapeRecord, TrainConfig,
                       TriangleMesh)
from partembed.cli import build_parser
from partembed.ingest import dumps_shape

PACKAGE = Path(partembed.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


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


def test_every_public_function_and_class_is_used_outside_the_tests():
    # a reference inside the name's own definition (recursion) and a package
    # re-export do not count; the demos and the benchmark harness do
    defined, used = set(), set()
    sources = [*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "demos").glob("*.py"),
               *(PACKAGE.parents[1] / "perfbench").glob("*.py")]
    for path in sorted(set(sources) - {PACKAGE / "__init__.py"}):
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and path.parent == PACKAGE and not own.startswith("_"):
                defined.add(own)
            used |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    assert sorted(defined - used) == []


def test_readme_kind_table_names_exactly_the_config_fields():
    text = README.read_text()
    table = text[text.index("| kind | fields |"):].split("\n\n", 1)[0]
    rows = [line.split("|")[2] for line in table.splitlines()[2:]]
    named = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    assert len(named) == len(set(named)), "a field is listed twice"
    assert set(named) == {f.name for cls in (PenConfig, TrainConfig, BenchmarkSpec)
                          for f in fields(cls)}


def test_readme_command_line_names_exactly_the_cli_flags():
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start)]
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section))
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {option for parser in sub.choices.values() for action in parser._actions
             for option in action.option_strings} - {"-h", "--help"}
    assert sorted(named - flags) == [] and sorted(flags - named) == []


def test_readme_names_exactly_the_json_shape_keys():
    text = README.read_text()
    paragraph = text[text.index("A native JSON shape holds"):].split("\n\n", 1)[0]
    named = re.findall(r"`([^`]+)`", paragraph)
    assert len(named) == len(set(named)), "a key is named twice"
    mesh = TriangleMesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]],
                        tri_leaf=[1], tri_semantic=[0])
    rec = ShapeRecord("s", "c", mesh, PartHierarchy([None, 0], ["root", "a"]))
    assert set(named) == set(json.loads(dumps_shape(rec)))
