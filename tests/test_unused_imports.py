"""No file of the tests, the demos or the package imports a name that it
never reads: each file is parsed with ast, and every name that an import
binds must be loaded somewhere in the file or listed in its __all__."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path.relative_to(ROOT).as_posix()
               for folder in ("tests", "demos", "src/jacklaurent")
               for path in (ROOT / folder).glob("*.py"))


def unused_imports(source):
    """(line, name) for each name bound by an import of `source` that is
    never loaded and not listed in __all__; __future__ imports bind no
    name."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from json import dumps as d, loads\n"
              "import sys\n"
              "__all__ = ['sys']\n"
              "loads(os.sep)\n")
    assert unused_imports(source) == [(3, "d")]
    assert unused_imports("import a.b\n") == [(1, "a")]


def test_every_file_is_found():
    assert "tests/test_unused_imports.py" in FILES
    assert "demos/06_conjecture_report.py" in FILES
    assert "src/jacklaurent/__init__.py" in FILES


@pytest.mark.parametrize("path", FILES)
def test_no_unused_import(path):
    assert unused_imports((ROOT / path).read_text()) == []
