"""Outside-in tracer for bellkit: wraps the package's public callables.

`Tracer.install()` wraps every public function defined in a `bellkit.*`
module, every public method and property of the classes defined there, and
every suite function in `bellkit.cli.SUITES`.  Each wrapper is then rebound,
by object identity, wherever the original is bound: in every `bellkit.*`
module namespace (modules import names with `from .linalg import tensor`, so
patching `bellkit.linalg` alone would miss most calls), on the classes, and
in module-level dicts such as `cli.SUITES`.  No bellkit source changes.

A traced call is named `<module>.<qualname>`; its module is its layer.  Each
call records a span (call id, parent call id, request index, name, start,
end), kept in memory.  Calls to the HOT leaves run hundreds of thousands of
times a pass, so they are only aggregated, never recorded as spans.  Every
call, hot or not, adds to its name's count, inclusive time, self time (its
duration minus that of its traced children) and the bytes of the ndarrays it
returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import time

import numpy as np

PACKAGE = "bellkit"

# Names called so often that a span per call would cost more memory and time
# than it tells.  They call only other HOT names, so every recorded span's
# parent is itself recorded (run.py --self-test checks this).
HOT = frozenset({
    "linalg.residual",
    "linalg.tensor",
    "linalg.tensor_all",
    "linalg.dagger",
    "linalg.hs_inner",
    "linalg.identity",
    "linalg.basis_state",
    "pauli.word_matrix",
    "pauli.gen_word_matrix",
    "pauli.gen_u",
    "pauli.gen_x",
    "pauli.gen_z",
    "pauli.pauli_gate",
    "pauli.omega_root",
    "pauli.as_bits",
    "pauli.bits_to_int",
    "pauli.bit_xor",
    "pauli.bit_dot",
    "pauli.PauliWord.n",
    "pauli.word_dagger",
    "pauli.word_mul",
    "pauli.gen_word_dagger",
    "pauli.gen_word_mul",
    "bell.omega",
    "braid.sign_exponent",
    "braid.bell_bijection",
    "report.Report.add",
    "report.Report.add_expect_fail",
})


def _nbytes(out) -> int:
    """Bytes of the ndarrays a call returns, directly or in a tuple/list."""
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, (tuple, list)):
        return sum(x.nbytes for x in out if isinstance(x, np.ndarray))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        # name -> [calls, inclusive seconds, self seconds, returned bytes]
        self.stats: dict[str, list] = {}
        self.request = 0
        self._stack: list[list] = []
        self._ids = itertools.count()

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        hot = name in HOT
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # call id, time spent in traced children
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    spans.append((frame[0], parent[0] if parent else None, self.request, name, start, end))
            stats[3] += _nbytes(out)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every public callable and rebind the wrappers everywhere."""
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}") for m in pkgutil.iter_modules(pkg.__path__)]
        wrapped: dict[int, object] = {}

        def add(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)

        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    add(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        qual = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(member):
                            add(member, qual)
                            setattr(obj, meth, wrapped[id(member)])
                        elif isinstance(member, property) and member.fget is not None:
                            add(member.fget, qual)
                            setattr(obj, meth, property(wrapped[id(member.fget)], member.fset))
            if layer == "cli":
                for fn in mod.SUITES.values():
                    add(fn, f"cli.{fn.__name__}")

        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]
