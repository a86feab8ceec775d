"""Every imported name is used in the file that imports it.

A name that only a literal `__all__` lists counts as used (a re-export),
and `from __future__` imports are exempt.  A computed `__all__`, as in a
package whose exports load lazily, re-exports no imported name.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_finds_unused_names():
    source = "from __future__ import annotations\nimport os, re\nfrom a import b, c\nprint(re, c)\n"
    assert unused_imports(source) == ["os", "b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from a import b\n__all__ = list(T)\n") == ["b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
