"""Structured outcome of one verification suite, JSON-serializable.

The JSON form is a CI artifact: key order is fixed, floats use Python's
shortest-roundtrip repr, and wall time is deliberately left out so that
rerunning a suite with the same seed yields byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import fold

SCHEMA = "bellkit-report/1"


@dataclass(frozen=True)
class Case:
    case_id: str
    residual: float
    passed: bool


def _witness(residual, passed: bool, pick, index) -> str:
    """`` witness=…`` naming the entry of a failing run that ``pick`` (``np.argmax`` or ``np.argmin``) finds.

    ``index`` says how the entry reads: a noun (``trial 3``), the labels
    of the run's entries (``(1,0)``, or ``(01,10)`` for bit tuples), or by
    default the entry's index tuple (``(i,j)``, ``(k)``).  A passing case,
    a scalar and an empty run name none.
    """
    if passed or not isinstance(residual, np.ndarray) or not residual.size:
        return ""
    at = pick(residual)
    if isinstance(index, str):
        return f" witness={index} {at}"
    label = np.unravel_index(at, residual.shape) if index is None else index[at]
    return " witness=(" + ",".join("".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in label) + ")"


@dataclass
class Report:
    """The cases of one suite.

    A case's residual is one number or a run of them, an ndarray folded to
    its worst (``add``) or best (``add_expect_fail``) by ``linalg.fold``,
    so a NaN anywhere in the run decides the case.  A failing run appends
    one witness to the case id (``_witness``): its first NaN entry, else
    its first worst (best) one.
    """

    suite: str
    params: dict
    cases: list[Case] = field(default_factory=list)
    tolerance: float = 1e-12
    seed: int | None = None

    def add(self, case_id: str, residual, tol: float | None = None, index=None, also=()) -> None:
        """Record a case that passes iff its residual is below ``tol`` (the report's by default).

        ``also`` holds more residuals, folded into the case's residual but
        never named as a witness.
        """
        tol = self.tolerance if tol is None else tol
        worst = fold(residual) if isinstance(residual, np.ndarray) else residual
        total = fold((worst, *also)) if also else worst
        case_id += _witness(residual, worst < tol, np.argmax, index)
        self.cases.append(Case(case_id, float(total), bool(total < tol)))

    def add_expect_fail(self, case_id: str, residual, floor: float, index=None) -> None:
        """Record a falsifiability control: the case passes iff residual >= floor."""
        best = fold(residual, np.min, np.inf) if isinstance(residual, np.ndarray) else residual
        case_id += _witness(residual, best >= floor, np.argmin, index)
        self.cases.append(Case(case_id, float(best), bool(best >= floor)))

    @property
    def passed(self) -> bool:
        """Whether every case passed; a report with no cases checked nothing, and fails."""
        return bool(self.cases) and all(c.passed for c in self.cases)

    @property
    def max_residual(self) -> float:
        return fold(c.residual for c in self.cases)

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA,
            "suite": self.suite,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "tolerance": self.tolerance,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        out["cases"] = [
            {"id": c.case_id, "residual": c.residual, "pass": c.passed} for c in self.cases
        ]
        out["pass"] = self.passed
        return out
