"""No module in src/formukit imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import formukit

PACKAGE = Path(formukit.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, ``__future__`` aside. A name read
    anywhere counts, in an annotation too, quoted or not."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in filter(None, annotations):
            for part in ast.walk(note):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_counts_annotations_and_finds_what_is_unused():
    source = ("from __future__ import annotations\n"
              "import os, urllib.parse\n"
              "from typing import TYPE_CHECKING\n"
              "from json import dumps as to_json, loads\n"
              "if TYPE_CHECKING:\n"
              "    from pathlib import Path\n"
              "    from decimal import Decimal\n"
              "def f(a: 'Path', b: urllib.parse.SplitResult) -> Decimal:\n"
              "    return to_json(a)\n")
    assert _unused_imports(source) == ["line 2: os", "line 4: loads"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
