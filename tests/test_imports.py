"""Every name a ``repro`` module imports is read somewhere in it.

A dead import makes a module look coupled to one it no longer uses.
Package ``__init__`` modules re-export, a name listed in a module's
``__all__`` is exported, and an import marked ``# noqa: F401`` is kept
for its side effect (registering workloads), so all three are exempt.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unread_imports(source: str) -> list:
    """``(line, name)`` of every name *source* imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            "noqa: F401" in line
            for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    exempt = read | _exported(tree)
    return sorted(
        (line, name) for name, line in imported.items() if name not in exempt
    )


def test_scanner_flags_only_unread_names():
    source = (
        "import os\n"
        "import os.path\n"
        "from typing import List, Optional as Opt\n"
        "from x import exported\n"
        "from y import registers  # noqa: F401\n"
        "__all__ = ['exported']\n"
        "def f(a: List) -> None:\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == [(3, "Opt")]


def test_no_module_imports_a_name_it_never_reads():
    dead = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert dead == []
