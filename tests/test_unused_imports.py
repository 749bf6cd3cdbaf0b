"""No module of the package, test module or demo imports a name it never
uses.

``__init__.py`` is left out: its imports are the package's public names.
A name counts as used when it appears anywhere in the module as a bare
name, annotations included; ``from __future__`` imports are not names.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "poissonflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=[p.name for p in MODULES]
                         + [p.relative_to(ROOT).as_posix() for p in SCRIPTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
