"""Structured outcome of one verification suite, JSON-serializable.

The JSON form is a CI artifact: key order is fixed, floats use Python's
shortest-roundtrip repr, and wall time is deliberately left out so that
rerunning a suite with the same seed yields byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import fold

SCHEMA = "bellkit-report/1"


@dataclass(frozen=True)
class Case:
    case_id: str
    residual: float
    passed: bool


@dataclass
class Report:
    suite: str
    params: dict
    cases: list[Case] = field(default_factory=list)
    tolerance: float = 1e-12
    seed: int | None = None

    def add(self, case_id: str, residual: float, tol: float | None = None) -> None:
        tol = self.tolerance if tol is None else tol
        self.cases.append(Case(case_id, float(residual), bool(residual < tol)))

    def add_expect_fail(self, case_id: str, residual: float, floor: float) -> None:
        """Record a falsifiability control: the case passes iff residual >= floor."""
        self.cases.append(Case(case_id, float(residual), bool(residual >= floor)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

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
