"""Dense complex linear-algebra kernel shared by all other modules.

Conventions, fixed once here:

* states are 1-D complex ``numpy`` arrays, operators 2-D;
* qudit ordering is big-endian: wire 0 is the most significant digit,
  so a basis ket labelled by the digit string ``s[0] s[1] ... s[k-1]``
  sits at flat index ``sum(s[q] * D**(k-1-q))``;
* all equality checks are absolute-tolerance (``DEFAULT_TOL``); every
  quantity handled here is O(1) so no relative tolerance is needed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12

# Dense storage only; a Kronecker product whose result would exceed this
# per-axis size is refused instead of thrashing memory.
MAX_DIM = 2**24


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the standard row-major block convention."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError(
            f"tensor result dimension {a.shape[0] * b.shape[0]} exceeds cap {MAX_DIM}"
        )
    return np.kron(a, b)


def tensor_all(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of arrays."""
    factors = list(factors)
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dagger b) / d for d x d matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hs_inner requires equal square shapes, got {a.shape}, {b.shape}")
    return complex(np.trace(a.conj().T @ b) / a.shape[0])


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_state(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def permutation_matrix(perm, local_dim: int = 2) -> np.ndarray:
    """Unitary 0/1 matrix rearranging the digits of a basis ket.

    ``perm`` must be a bijection on ``{0..k-1}``; the ket with digit
    string ``s`` is sent to the ket with digits ``t[perm[q]] = s[q]``.
    Moving axis ``q`` of ``arange(D).reshape((d,)*k)`` to position
    ``perm[q]`` lists, in target order, the source index of every ket, so
    the matrix is written as ``P[t, src(t)] = 1`` in one scatter.
    """
    perm = list(perm)
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a bijection on 0..{k - 1}")
    dim = local_dim**k
    src = np.moveaxis(np.arange(dim).reshape((local_dim,) * k), range(k), perm)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), src.reshape(-1)] = 1.0
    return mat


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entrywise difference; the residual used by every suite."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in residual: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def fold(values, op=np.max, empty: float = 0.0) -> float:
    """Worst (``op=np.max``) or best (``op=np.min``) of a run of residuals.

    Any NaN makes the result NaN, so a NaN residual fails both a must-pass
    case (``NaN < tol`` is false) and an expect-fail control
    (``NaN >= floor`` is false).  The built-in ``max``/``min`` would keep
    or drop a NaN depending on where it sits.  ``empty`` is returned for
    an empty run.
    """
    arr = np.fromiter(values, dtype=float)
    return float(op(arr)) if arr.size else empty


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and residual(
        a.conj().T @ a, np.eye(a.shape[0])
    ) < tol


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm state with Gaussian real and imaginary parts."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    q, r = np.linalg.qr(random_matrix(dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))
