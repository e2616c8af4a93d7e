"""Every module-level function under ``src/repro`` has a caller.

A function counts as used when its name appears outside its own
``def`` — as a name, an attribute or an imported name — somewhere in
``src/``, ``bench/``, ``benchmarks/`` or ``examples/``.  Tests do not
count: a helper that only its own test calls is dead code.  The check
is by name, so it can miss a dead function whose name another one
shares, but never flags a used one.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: Entry points with no caller in the tree, and why they stay.
ALLOWED = {
    "isa.encoding.encode_program":
        "emits the Table 1 binary encoding as an artifact for users",
    "sim.timeline.debug_run":
        "the documented debugger entry point, called interactively",
}


def _names(node: ast.AST) -> Counter:
    """Every identifier *node* names: names, attributes, imports."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
            if sub.asname:
                found[sub.asname] += 1
    return found


def _trees():
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _uncalled() -> set:
    """Dotted names of the module-level functions with no caller."""
    uses: Counter = Counter()
    defs = []
    for path, tree in _trees():
        uses += _names(tree)
        if PACKAGE not in path.parents:
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = _names(stmt)[stmt.name]  # recursive calls
                defs.append((f"{module}.{stmt.name}", stmt.name, own))
    return {dotted for dotted, name, own in defs if uses[name] <= own}


def test_every_module_level_function_has_a_caller():
    dead = sorted(_uncalled() - set(ALLOWED))
    assert dead == [], f"module-level functions with no caller: {dead}"


def test_allowlist_names_real_uncalled_functions():
    assert set(ALLOWED) <= _uncalled()
