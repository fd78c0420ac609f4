"""No function, class, method or statement in ``src/bellkit`` that no command can reach.

Two checks.  The first walks the source's syntax trees, by name, from the
commands to every def they can name.  The second runs the smallest call of
each command and branch, and one call per usage error, under
``sys.settrace`` and reports every statement inside a ``src`` def that no
call ran, other than a ``raise`` (a guard), a docstring, or a statement on
``ALLOWED`` with the reason it stays.

The def walk is over the source's syntax trees, by name.  Roots are every def
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
import importlib.util
import sys
from pathlib import Path

from bellkit import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "bellkit"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


# ---------------------------------------------------------------------------
# statements


def trace_lines(run, files) -> set[tuple[str, int]]:
    """The ``(file, line)`` pairs of ``files`` on which ``run()`` executes a line."""
    hits = set()

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(before)
    return hits


def _statements(body, qual: str):
    """``(qualified def name, statement)`` for each statement under ``body``, the defs inside it under their own names."""
    for stmt in body:
        if isinstance(stmt, DEFS):
            yield qual, stmt
            yield from _statements(stmt.body, f"{qual}.{stmt.name}")
            continue
        yield qual, stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []), qual)
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body, qual)


def _lines(stmt) -> range:
    """The lines on which running ``stmt`` executes a line: a compound statement's header, else the whole statement."""
    body = getattr(stmt, "body", None)
    if isinstance(stmt, ast.Try):
        return _lines(body[0])
    if body and isinstance(body, list):
        return range(stmt.lineno, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def unexecuted(paths: dict[str, Path], hits) -> list[tuple[str, str]]:
    """``(qualified def name, first line)`` of each statement inside a def of ``paths`` (module -> file) that
    no line of ``hits`` touches; ``raise`` statements and docstrings are not counted."""
    out = []
    for module, path in paths.items():
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            qual = f"{module}.{node.name}" if isinstance(node, DEFS) else None
            if isinstance(node, FUNCS):
                stmts = _statements(node.body, qual)
            elif isinstance(node, ast.ClassDef):
                methods = (m for m in node.body if isinstance(m, FUNCS))
                stmts = (pair for m in methods for pair in _statements(m.body, f"{qual}.{m.name}"))
            else:
                continue
            for name, stmt in stmts:
                if isinstance(stmt, ast.Raise) or (
                    isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
                ):
                    continue
                if not any((str(path), n) in hits for n in _lines(stmt)):
                    out.append((name, lines[stmt.lineno - 1].strip()))
    return out


# The smallest call of each command and of each branch its flags select, then
# one call per usage-error path and a help call: (exit code, argv), OUT standing for a file.
# The first call prints its report; the others write it.
CALLS = [
    (0, "verify gram"),
    (0, "verify gram --family multi --n 1 --json OUT"),
    (0, "verify completeness --json OUT"),
    (0, "verify completeness --family multi --n 1 --json OUT"),
    (0, "verify basis-theorem --trials 1 --json OUT"),
    (0, "verify basis-theorem --family multi --n 1 --trials 1 --json OUT"),
    (0, "verify basis-group --json OUT"),
    (0, "verify basis-group --family multi --n 1 --json OUT"),
    (0, "verify observables --conjugated 1 --json OUT"),
    (0, "verify observables --family multi --n 1 --json OUT"),
    (0, "verify twist --json OUT"),
    (0, "verify concurrence --n 1 --trials 1 --json OUT"),
    (0, "verify teleport-eq --json OUT"),
    (0, "verify teleport-eq --variant nqubit22 --n 1 --json OUT"),
    (0, "verify teleport-eq --variant qudit11 --m general --json OUT"),
    (0, "verify teleport-eq --variant qudit22 --m identity --json OUT"),
    (0, "verify projective-eq --json OUT"),
    (0, "verify projective-eq --variant nqubit --n 1 --json OUT"),
    (0, "verify projective-eq --variant qudit11 --json OUT"),
    (0, "verify linearity-reduction --json OUT"),
    (0, "verify linearity-reduction --variant nqubit11 --n 1 --json OUT"),
    (0, "verify transfer-identity --json OUT"),
    (0, "verify bell-action --json OUT"),
    (0, "verify ybe --json OUT"),
    (0, "verify ybe --gate swap --json OUT"),
    (0, "verify ybe --gate twisted --n 1 --json OUT"),
    (0, "verify ybe --gate twisted-plain --n 1 --json OUT"),
    (0, "verify braid --strands 4 --json OUT"),
    (1, "verify braid --gate cnot --json OUT"),
    (0, "verify tl --strands 4 --json OUT"),
    (0, "verify tl --m identity --json OUT"),
    (1, "verify tl --m nonunitary --json OUT"),
    (0, "verify braid-teleport --n 1 --json OUT"),
    (0, "verify braid-teleport --json OUT"),
    (0, "verify trace-constraint --n 1 --json OUT"),
    (0, "teleport --json OUT"),
    (0, "teleport --variant qudit --d 3 --json OUT"),
    (0, "teleport --variant nqubit --json OUT"),
    (0, "circuit --n 1 --alpha 1 --beta 1 --out OUT"),
    (0, "circuit --twist 2 --out OUT"),
    (2, "verify nosuch"),
    (2, "verify gram --tol 1"),
    (2, "verify gram --d 1"),
    (2, "verify gram --family multi --d 3"),
    (2, "verify basis-group --d 8"),
    (2, "verify gram --foo"),
    (0, "verify tl --help"),
]

# Statements that no call above runs, and why each stays: (qualified def name, first line) -> reason.
ALLOWED = {
    ("linalg.is_unitary", "return False"):
        "guard: a non-square array is not unitary, and its Gram would not say so",
    ("pauli._nearest", "best[rows] = residuals(Monomial._of(perm[rows, None], phase[rows, None]), words).min(axis=1)"):
        "failure only: the search over every member, for a product or adjoint that no member with its row map matches",
    ("teleport._Setting.meas", "return bell_vector(self.words[b] @ self.m.T if self.form == 22 else self.words[b].dense())"):
        "failure only: the measurement vector that names a failing outcome's witness entry",
    ("teleport.projective_eq_check", 'witness = f" witness=entry {np.argmax(np.abs(setting.meas([a])[0])) * dim + np.argmax(diffs[a])}"'):
        "failure only: a failing outcome's witness",
    ("report._witness", "at = pick(residual)"):
        "failure only: the witness of a failing run of residuals",
    ("report._witness", "if isinstance(index, str):"):
        "as above",
    ("report._witness", 'return f" witness={index} {at}"'):
        "as above",
    ("report._witness", "label = np.unravel_index(at, residual.shape) if index is None else index[at]"):
        "as above",
    ("report._witness", 'return " witness=(" + ",".join("".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in label) + ")"'):
        "as above",
}


def _run_calls(tmp_path):
    for code, line in CALLS:
        argv = [str(tmp_path / "out") if word == "OUT" else word for word in line.split()]
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # --help prints the flags and exits
            got = exc.code
        assert got == code, line


def test_every_statement_in_src_runs_from_a_command(tmp_path, capsys):
    paths = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    hits = trace_lines(lambda: _run_calls(tmp_path), {str(p) for p in paths.values()})
    capsys.readouterr()
    left = unexecuted(paths, hits)
    assert sorted(set(left) - set(ALLOWED)) == []
    # an entry that a call now runs, or whose statement is gone, is stale
    assert sorted(set(ALLOWED) - set(left)) == []


def test_trace_reports_a_dead_statement(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(
        "def pick(x):\n"
        '    """Docstring."""\n'
        "    if x is None:\n"
        "        raise ValueError('no x')\n"
        "    if x > 0:\n"
        "        return 'positive'\n"
        "    return 'other'\n\n"
        "class Box:\n"
        "    def size(self, wide):\n"
        "        total = (\n"
        "            3\n"
        "            + wide\n"
        "        )\n"
        "        for _ in range(2):\n"
        "            if wide:\n"
        "                total += 1\n"
        "        return total\n"
    )
    spec = importlib.util.spec_from_file_location("toy", toy)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hits = trace_lines(lambda: (module.pick(1), module.Box().size(0)), {str(toy)})
    assert unexecuted({"toy": toy}, hits) == [("toy.pick", "return 'other'"), ("toy.Box.size", "total += 1")]
