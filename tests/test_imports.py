"""Each library module reads every name it imports.

An unused import costs start-up time and memory in every CLI run, and it
outlives the code that needed it unnoticed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "confmetrics"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads; a name listed in
    its ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


@pytest.mark.parametrize(
    "source, unused",
    [("import io\nimport json\njson.loads('1')\n", ["io"]),
     ("from typing import Iterator, Sequence\nx: Sequence\n", ["Iterator"]),
     ("import numpy as np\nfrom . import a as b\n__all__ = ['b']\n", ["np"]),
     ("import os.path\nos.sep\n", []),
     ("from __future__ import annotations\n", [])],
    ids=["module", "from-import", "alias-and-all", "dotted", "future"],
)
def test_finds_the_unused_names(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
