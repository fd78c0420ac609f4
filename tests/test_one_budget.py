"""One block budget: ``linalg.BLOCK_BYTES``, read only by ``linalg.blocks``.

Every blocked walk in ``src/bellkit`` takes its slices from ``blocks`` and
passes the bytes per item of its largest block array, so how large a block
may be is decided once.  This test parses the source and fails if a module
other than ``linalg`` binds a module-level name that looks like a block
budget (it contains ``BLOCK`` or ``CHUNK``, or ends in ``_ENTRIES`` or
``_BYTES``; an imported name counts), or if anything but ``blocks`` reads
``BLOCK_BYTES``.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellkit"
BUDGET_NAME = re.compile(r"BLOCK|CHUNK|_ENTRIES$|_BYTES$")


def _bound_names(tree: ast.Module):
    """Every name a module's top-level statements bind: assignments, defs, classes and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_block_budget_outside_linalg():
    found = [
        f"{module}.{name}"
        for module, tree in _trees().items()
        if module != "linalg"
        for name in _bound_names(tree)
        if BUDGET_NAME.search(name)
    ]
    assert not found, f"block budgets belong in linalg.BLOCK_BYTES: {found}"


def test_budget_read_only_by_blocks():
    readers = [
        f"{module}.{getattr(node, 'name', type(node).__name__)}"
        for module, tree in _trees().items()
        for node in tree.body
        if any(
            isinstance(sub.ctx, ast.Load) and getattr(sub, "id", getattr(sub, "attr", None)) == "BLOCK_BYTES"
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        )
    ]
    assert readers == ["linalg.blocks"]
