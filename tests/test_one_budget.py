"""One block budget: ``linalg.BLOCK_BYTES``, read only by ``linalg.blocks``.

Every blocked walk in ``src/bellkit`` takes its slices from ``blocks`` and
passes the bytes per item of its largest block array, so how large a block
may be is decided once; a walk that writes its blocks into arrays takes
them from ``linalg.walk``, which sizes the arrays once per call.  This test
parses the source and fails if a module other than ``linalg`` binds a
module-level name that looks like a block budget (it contains ``BLOCK`` or
``CHUNK``, or ends in ``_ENTRIES`` or ``_BYTES``; an imported name counts),
if anything but ``blocks`` reads ``BLOCK_BYTES``, or if a function outside
``linalg`` materialises a walk, ``list(blocks(...))``.
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


# Materialising a walk is needed only to size its arrays from its first block, which
# linalg.walk does.  _gram_residuals walks each row-map group at that group's edges and
# writes every group into one allocation sized from the largest first block; one walk at
# group 0's edges, or one linalg.walk per group, gave the same reports but ran 12-13 %
# slower (basis-theorem --d 8 --trials 50, --d 32 --trials 5, --family multi --n 5).
MATERIALISED_WALKS = {"verify._gram_residuals"}


def test_no_materialised_walk_outside_linalg():
    found = sorted(
        f"{module}.{node.name}"
        for module, tree in _trees().items()
        if module != "linalg"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and getattr(sub.func, "id", None) == "list"
        and sub.args
        and isinstance(sub.args[0], ast.Call)
        and getattr(sub.args[0].func, "id", getattr(sub.args[0].func, "attr", None)) == "blocks"
    )
    assert set(found) == MATERIALISED_WALKS, f"size a walk's arrays with linalg.walk: {found}"
