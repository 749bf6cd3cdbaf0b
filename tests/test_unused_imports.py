"""No module of the package imports a name it never uses.

``__init__.py`` is left out: its imports are the package's public names.
A name counts as used when it appears anywhere in the module as a bare
name, annotations included; ``from __future__`` imports are not names.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "poissonflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom .ratpoly import Poly, common_degree as cd\n"
              "def f(x: Poly):\n    return os.sep\n")
    assert unused_imports(source) == [(3, "cd")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
