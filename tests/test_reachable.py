"""No function, class or method in ``src/bellkit`` that no command can reach.

The walk is over the source's syntax trees, by name.  Roots are every def
in ``cli.py`` (the commands), each module's top-level statements other
than defs and imports, every dunder method (Python calls those itself)
and the names in ``bellkit.__all__``.  A def reaches every def whose name
appears anywhere in it (body, decorators, defaults, annotations) as a
``Name`` or an ``Attribute``, so ``setting.use(m)`` reaches every method
called ``use``.
Matching by bare name can only over-count what is reached, so a def this
walk reports is one that nothing in ``src`` names outside itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellkit"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set[str]:
    """Every name used as a ``Name`` or an ``Attribute`` under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _defs(module: str, tree: ast.Module):
    """``(qualified name, bare name, names its body uses)`` for each top-level def and method.

    A class's own names are those outside its methods; each method is a def of its own.
    """
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        qual = f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, DEFS)]
            rest = [m for m in node.body if not isinstance(m, DEFS)]
            yield qual, node.name, _names(rest + node.decorator_list + node.bases)
            for m in methods:
                yield f"{qual}.{m.name}", m.name, _names([m])
        else:
            yield qual, node.name, _names([node])


def unreached(sources: dict[str, str], exports=()) -> list[str]:
    """The qualified names of the defs in ``sources`` (module name -> text) that no root reaches."""
    uses, by_name, names, todo = {}, {}, set(exports), []
    for module, text in sources.items():
        tree = ast.parse(text)
        names |= _names(n for n in tree.body if not isinstance(n, DEFS + (ast.Import, ast.ImportFrom)))
        for qual, name, body in _defs(module, tree):
            uses[qual] = body
            by_name.setdefault(name, []).append(qual)
            if module == "cli" or (name.startswith("__") and name.endswith("__")):
                todo.append(qual)
    todo += [qual for name in names for qual in by_name.get(name, ())]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            todo += [q for name in uses[qual] for q in by_name.get(name, ())]
    return sorted(set(uses) - seen)


def _exports(text: str) -> list[str]:
    """The names a package's ``__init__`` lists in ``__all__``."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_def_in_src_is_reached_from_a_command():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "cli" in sources
    assert unreached(sources, _exports(sources["__init__"])) == []


def test_walk_reports_a_dead_def():
    lib = (
        "LIMIT = bound()\n\n"
        "def bound():\n    return 3\n\n"
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    def read(self):\n        return self.size\n"
        "    def unread(self):\n        return self.read()\n"
    )
    cli = "def main():\n    return used() + Box().read()\n"
    assert unreached({"cli": cli, "lib": lib}) == ["lib.Box.unread", "lib.dead"]
    assert unreached({"cli": cli, "lib": lib}, exports=["dead"]) == ["lib.Box.unread"]
