"""Importing ``rankpl`` stays cheap: each module-level import of the package
names one of its own modules or a standard-library module pinned here.

Every start of ``rankpl`` imports what its modules import at module level,
and compiles each module whose bytecode is not cached.  So a new
module-level import adds to the start-up time of every run.  Import a new
dependency inside the function that needs it, or pin it here with a reason.
"""

import ast
from pathlib import Path

import rankpl

SRC = Path(__file__).resolve().parent.parent / "src" / "rankpl"

PINNED = {
    "__future__",
    "argparse",
    "bisect",
    "collections.abc",
    "dataclasses",
    "functools",
    "itertools",
    "json",
    "re",
    "sys",
    "typing",
}


def module_level_imports(source: str):
    """The absolute imports that importing ``source`` runs: those outside
    function bodies, in classes and module-level blocks too."""
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def test_the_scan_sees_what_an_import_runs():
    source = (
        "from . import engine\n"
        "try:\n    import decimal\nexcept ImportError:\n    pass\n"
        "class A:\n    from fractions import Fraction\n"
        "def f():\n    import statistics\n"
    )
    assert set(module_level_imports(source)) == {"decimal", "fractions"}


def test_module_level_imports_are_pinned():
    unpinned = {}
    for path in sorted(SRC.glob("*.py")):
        found = set(module_level_imports(path.read_text(encoding="utf-8")))
        if found - PINNED:
            unpinned[path.name] = sorted(found - PINNED)
    assert unpinned == {}


def test_every_exported_name_resolves_once():
    assert len(rankpl.__all__) == len(set(rankpl.__all__))
    assert [name for name in rankpl.__all__ if not hasattr(rankpl, name)] == []
