"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "adjmatroid").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node or string in
    __all__ refers to; __future__ imports are directives, not bindings."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import a.b\n"
        "from x import used, exported, unused\n"
        "__all__ = ['exported']\n"
        "print(used, a.b.c, os)\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 4: unused"]


def test_no_unused_imports():
    assert FILES
    found = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
