"""Dense reference forms that only the tests use.

The library applies local operators with ``linalg.apply_local`` and never
forms ``op x 1`` as a matrix; the tests build that Kronecker form here, as
an oracle to compare against.
"""

import numpy as np


def kron(*factors) -> np.ndarray:
    """Left-to-right Kronecker product, row-major block convention."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dagger b) / d for d x d matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hs_inner requires equal square shapes, got {a.shape}, {b.shape}")
    return complex(np.trace(a.conj().T @ b) / a.shape[0])
