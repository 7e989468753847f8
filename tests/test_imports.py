"""A lint check written with ``ast`` alone: every name a source module
imports at module level is read somewhere in that module."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent
                  / "src" / "czfkit").glob("*.py"))


def _unused_imports(source: str) -> dict[str, int]:
    """The names bound by module-level imports that the module never
    reads, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in imported.items()
            if name not in read}


def test_the_check_sees_unused_imports():
    assert _unused_imports("import os\nimport a.b as c\nfrom x import (y,"
                           " z)\nfrom __future__ import annotations\n"
                           "def f() -> y:\n    return os.sep\n") == \
        {"c": 2, "z": 3}
    assert {p.name for p in SOURCES} >= {"formula.py", "prover.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert _unused_imports(path.read_text()) == {}, path.name
