"""The runtime dependencies in pyproject.toml are exactly the third-party
packages that src/formukit imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

import formukit

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(formukit.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _imported_top_levels():
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


@pytest.mark.skipif(not PYPROJECT.exists(), reason="needs the source tree's pyproject.toml")
def test_runtime_dependencies_are_what_the_package_imports():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    assert _imported_top_levels() == declared
