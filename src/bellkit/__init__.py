"""bellkit: numerical verification of generalized Bell bases, teleportation
equations, Yang-Baxter gates and Temperley-Lieb representations.

Every identity handled here is exact linear algebra at desk scale; the
library constructs both sides of each one and reports max-abs residuals
against an absolute tolerance (1e-12 by default).
"""

from .linalg import DEFAULT_TOL, apply_local, dagger, residual
from .report import Case, Report

__all__ = [
    "DEFAULT_TOL",
    "Case",
    "Report",
    "apply_local",
    "dagger",
    "residual",
]

__version__ = "0.1.0"
