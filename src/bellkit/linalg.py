"""Linear-algebra kernel shared by all other modules: dense arrays, local
operators, monomial (one nonzero per column) operators and stacks of
them, and the blocks in which a stack is walked.

Conventions, fixed once here:

* states are 1-D ``numpy`` arrays, operators 2-D; real operands stay
  float64 and a result is complex only when an operand is (``real_if_real``
  turns an exactly real complex array into float64, so that its products
  run as real GEMMs);
* an operator on some sites of a larger space, ``1 x op x 1``, is applied
  by ``apply_local`` to a state or to the columns of an operator, never
  formed as a Kronecker product with identities;
* qudit ordering is big-endian: wire 0 is the most significant digit,
  so a basis ket labelled by the digit string ``s[0] s[1] ... s[k-1]``
  sits at flat index ``sum(s[q] * D**(k-1-q))``;
* all equality checks are absolute-tolerance (``DEFAULT_TOL``).  Most
  compared quantities are O(1) entries of unitaries and unit states, but
  not all: the basis theorem's reduced completeness compares entries of
  ``M^dag M``, which are O(D) for a Gaussian M, so its residual grows
  with D while the tolerance does not.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12
# Every blocked walk holds at most this many bytes per block array, or one
# item's: half of glibc's default 128 KiB mmap threshold, so a block's
# arrays come from the heap instead of fresh pages faulted in on every block.
BLOCK_BYTES = 2**16


def blocks(total: int, item_bytes: int):
    """Slices of ``range(total)``, in order, of ``BLOCK_BYTES // item_bytes`` items each (at least one).

    A walk passes the bytes per item of its largest block array, so that
    array holds at most ``BLOCK_BYTES``, or one item.
    """
    step = max(1, BLOCK_BYTES // item_bytes)
    return (slice(start, min(start + step, total)) for start in range(0, total, step))


def walk(total: int, *items) -> list:
    """The ``blocks`` of ``range(total)`` as a list of ``(block, views)``, one view per item.

    An item is the ``(shape, dtype)`` of one entry of a block array; the
    largest sets ``item_bytes``.  Each array is allocated once, for the
    first block, and a block's view is its first rows, one per entry, so
    every pass over the list writes into the same arrays.
    """
    walked = list(blocks(total, max(int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in items)))
    arrays = [np.empty((walked[0].stop if walked else 0, *shape), dtype) for shape, dtype in items]
    return [(block, [a[: block.stop - block.start] for a in arrays]) for block in walked]


def apply_local(op: np.ndarray, x: np.ndarray, before: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """``(1_before x op x 1_rest) @ x`` for ``x`` of shape ``(D,)`` or ``(..., D, C)``.

    ``op`` is k x k, or a stack ``(..., k, k)`` whose leading axes
    broadcast against those of ``x``; ``before`` is the dimension of the
    factor ahead of it (``d**s`` for an operator starting at qudit ``s``)
    and ``rest = D / (before * k)``.  Entry ``[(b, i, r), c]`` of ``x`` is
    entry ``[b, i, (r, c)]`` of its ``(before, k, rest * C)`` view, so the
    product is one batched ``matmul`` of ``op`` with that view: no
    transpose, and no Kronecker product with an identity is formed.
    ``out``, a C-contiguous array of the result's shape and dtype,
    receives the product through the same view and is returned, with the
    values of the allocating call.
    """
    op = np.asarray(op)
    x = np.asarray(x)
    k = op.shape[-1]
    if op.shape[-2:] != (k, k) or not x.ndim or x.shape[-2:][0] % (before * k):
        raise ValueError(f"cannot apply a {op.shape} operator after {before} to shape {x.shape}")
    # a stack of operators meets the view's (before, k, rest * C) axes across one more axis
    op = op if op.ndim == 2 else op[..., None, :, :]
    view = x.reshape(x.shape[:-2] + (before, k, -1))
    if out is None:
        prod = np.matmul(op, view)
        return prod.reshape(prod.shape[:-3] + x.shape[-2:])
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    np.matmul(op, view, out=out.reshape(out.shape[: out.ndim - len(x.shape[-2:])] + view.shape[-3:]))
    return out


def real_if_real(a) -> np.ndarray:
    """``a`` as a contiguous float64 array when its imaginary part is exactly zero, else as given.

    A NaN imaginary part counts as nonzero, so an array holding one stays
    complex and the NaN still reaches every residual computed from it.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def dagger(a):
    """Conjugate transpose, of a dense array or a ``Monomial``."""
    if isinstance(a, Monomial):
        return a.adjoint()
    return np.asarray(a).conj().T


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_state(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


class Monomial:
    """Operator with one nonzero entry per column, ``M[perm[j], j] = phase[j]``, or a stack of them.

    Pauli and clock/shift words, a whole Bell family of them, digit
    permutations and SWAP/CNOT circuits are all of this form; held as a
    ``(perm, phase)`` pair of arrays (the signed-permutation view of
    Aaronson-Gottesman, with phases kept numeric) they multiply, invert,
    act on states and compare by ``residual`` in O(D) instead of as dense
    D x D operators.  ``perm`` and ``phase`` are ``(..., D)``: K words are
    ``(K, D)`` arrays, ``M_a[perm[a, j], j] = phase[a, j]``, indexed on
    their leading axes by ``[]``.  A product takes every operand with every
    other, one single index each: ``m @ words`` and ``words @ m`` for a
    dense ``m`` ``(..., r, D)`` or ``(..., D, c)`` are ``(..., K, r, D)`` or
    ``(..., K, D, c)``, one product per M and word, and a stack of K
    words times one of L words is ``(K, L, D)``.  With one operand
    unstacked this is ``matmul`` on the dense ``(..., D, D)`` stack
    (``dense``).  Each row of ``perm`` must be a bijection on ``0..D-1``.
    ``phase`` keeps its dtype, at least float64: real for n-qubit words and
    permutations, complex for qudit words; products give the operands'
    result type.
    """

    __slots__ = ("perm", "phase")
    # numpy defers ``m @ words``, for a dense m, to ``__rmatmul__``
    __array_ufunc__ = None

    def __init__(self, perm, phase=None):
        perm = np.asarray(perm, dtype=np.intp)
        _check_bijections(perm)
        phase = np.ones(perm.shape) if phase is None else np.asarray(phase)
        phase = phase.astype(np.result_type(phase, float), copy=False)
        if phase.shape != perm.shape:
            raise ValueError(f"phase shape {phase.shape} does not match perm {perm.shape}")
        self.perm, self.phase = perm, phase

    @classmethod
    def _of(cls, perm: np.ndarray, phase: np.ndarray) -> Monomial:
        """A monomial from arrays known to be valid (a product, transpose or slice of valid ones), unchecked."""
        out = object.__new__(cls)
        out.perm, out.phase = perm, phase
        return out

    @property
    def dim(self) -> int:
        return self.perm.shape[-1]

    def __getitem__(self, key) -> Monomial:
        """The words ``key`` of a stack, indexed on its leading axes."""
        return Monomial._of(self.perm[key], self.phase[key])

    def __matmul__(self, other):
        """``self @ other``: a monomial for a monomial, else ``apply``."""
        if not isinstance(other, Monomial):
            return self.apply(other)
        _same_dim(self, other)
        # column j of other has other.phase[j] in row other.perm[j], which
        # self sends to row self.perm[other.perm[j]]
        return Monomial._of(self.perm[..., other.perm], self.phase[..., other.perm] * other.phase)

    def __rmatmul__(self, m) -> np.ndarray:
        """``m @ self`` for a dense ``m`` ``(..., r, D)``: column j is column ``perm[j]`` of m times ``phase[j]``."""
        # gather the rows of m^T, then read the result transposed back
        return np.swapaxes(np.swapaxes(m, -1, -2)[..., self.perm, :] * self.phase[..., None], -1, -2)

    @property
    def T(self) -> Monomial:
        """Transpose: column ``perm[j]`` gets ``phase[j]`` in row ``j``; the inverse row maps are one scatter."""
        perm = self.perm.reshape(-1, self.dim)
        words = np.arange(len(perm))[:, None]
        inv = np.empty_like(perm)
        inv[words, perm] = np.arange(self.dim)
        phase = self.phase.reshape(perm.shape)[words, inv]
        return Monomial._of(inv.reshape(self.perm.shape), phase.reshape(self.perm.shape))

    def adjoint(self) -> Monomial:
        """Conjugate transpose."""
        t = self.T
        return Monomial._of(t.perm, t.phase.conj())

    def apply(self, x) -> np.ndarray:
        """``self @ x``, x a state ``(D,)`` or dense ``(..., D, C)``: row j of x times ``phase[j]`` goes to row ``perm[j]``."""
        x = np.asarray(x)
        cols = x[:, None] if x.ndim == 1 else x
        if cols.shape[-2:-1] != (self.dim,):
            raise ValueError(f"cannot apply a {self.dim}-dim monomial to shape {x.shape}")
        perm = self.perm.reshape(-1, self.dim)
        moved = cols[..., None, :, :] * self.phase.reshape(perm.shape)[..., None]
        out = np.empty_like(moved)
        out[..., np.arange(len(perm))[:, None], perm, :] = moved
        out = out.reshape(cols.shape[:-2] + self.perm.shape + cols.shape[-1:])
        return out[..., 0] if x.ndim == 1 else out

    def dense(self) -> np.ndarray:
        """The ``(..., D, D)`` matrices, written in one scatter."""
        mat = np.zeros(self.perm.shape + (self.dim,), dtype=self.phase.dtype)
        np.put_along_axis(mat, self.perm[..., None, :], self.phase[..., None, :], -2)
        return mat


def map_groups(words: Monomial) -> dict:
    """The members of a stack ``(N, D)`` by row map: the bytes of each distinct map to the indices of its members.

    Any stack is grouped, a Bell family or not (``bell.word_groups`` is the
    batched grouping that refuses anything but a Bell family).
    """
    groups: dict = {}
    for i, row in enumerate(words.perm):
        groups.setdefault(row.tobytes(), []).append(i)
    return {key: np.array(idx) for key, idx in groups.items()}


def _check_bijections(perm: np.ndarray) -> None:
    """Raise ValueError unless every row of ``perm`` ``(..., D)``, D >= 1, is a bijection on ``0..D-1``.

    Entry j of row r of a block is counted at ``r D + perm[r, j]``.  With
    no entry negative, each count is 1 exactly when each row is a
    bijection: an entry past D - 1 leaves its own row's bins one short.
    Blocks of rows (``blocks``) keep the counts small.
    """
    if not perm.ndim or not perm.shape[-1]:
        raise ValueError("perm must be a bijection on 0..D-1, D >= 1")
    dim = perm.shape[-1]
    flat = perm.reshape(-1, dim)
    for block in blocks(len(flat), flat.itemsize * dim):
        part = flat[block]
        offsets = np.arange(0, part.size, dim)[:, None]
        if part.min() < 0 or (np.bincount((part + offsets).ravel(), minlength=part.size) != 1).any():
            raise ValueError("perm must be a bijection on 0..D-1")


def _same_dim(a: Monomial, b) -> None:
    if not isinstance(b, Monomial):
        raise TypeError(f"expected a Monomial, got {type(b).__name__}")
    if a.dim != b.dim:
        raise ValueError(f"monomial dimension mismatch: {a.dim} vs {b.dim}")


def permutation(perm, local_dim: int = 2) -> Monomial:
    """Monomial rearranging the digits of a basis ket.

    ``perm`` must be a bijection on ``{0..k-1}``; the ket with digit
    string ``s`` is sent to the ket with digits ``t[perm[q]] = s[q]``.
    Moving axis ``perm[q]`` of ``arange(D).reshape((d,)*k)`` (target
    indices) to position ``q`` lists, in source order, the target index
    of every ket.
    """
    perm = list(perm)
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a bijection on 0..{k - 1}")
    targets = np.moveaxis(np.arange(local_dim**k).reshape((local_dim,) * k), perm, range(k))
    return Monomial(targets.reshape(-1))


def residual(a, b) -> float:
    """Max-abs entrywise difference; the residual used by every suite.

    Two ``Monomial`` operators give the value of their dense matrices,
    from the arrays (``residuals``).  Dense operands hold one temporary,
    their difference, whose magnitudes overwrite it in place when it is
    real; a NaN in either operand makes the residual NaN.
    """
    if isinstance(a, Monomial):
        return float(np.max(residuals(a, b)))
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in residual: {a.shape} vs {b.shape}")
    diff = np.asarray(a - b)
    return float((np.abs(diff) if np.iscomplexobj(diff) else np.abs(diff, out=diff)).max())


def residuals(a, b) -> np.ndarray:
    """``residual`` of each matrix of a stack ``(..., m, n)``, or of each pair of two broadcast ``Monomial`` stacks.

    Max-abs over each matrix, NaN kept.  Column j of the difference of two
    monomials holds ``phase_a - phase_b`` where the permutations agree, else
    ``phase_a`` and ``-phase_b`` in two rows, so its max-abs is ``|phase_a
    - phase_b|`` or ``max(|phase_a|, |phase_b|)``.
    """
    if isinstance(a, Monomial):
        _same_dim(a, b)
        return np.where(
            a.perm == b.perm,
            np.abs(a.phase - b.phase),
            np.maximum(np.abs(a.phase), np.abs(b.phase)),
        ).max(axis=-1)
    return np.abs(np.asarray(a) - b).max(axis=(-2, -1))


def fold(values, op=np.max, empty: float = 0.0) -> float:
    """Worst (``op=np.max``) or best (``op=np.min``) of a run of residuals.

    Any NaN makes the result NaN, so a NaN residual fails both a must-pass
    case (``NaN < tol`` is false) and an expect-fail control
    (``NaN >= floor`` is false).  The built-in ``max``/``min`` would keep
    or drop a NaN depending on where it sits.  ``empty`` is returned for
    an empty run.  An ndarray, of any shape, is reduced as it is.
    """
    arr = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    return float(op(arr)) if arr.size else empty


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a``, or every matrix of a stack ``(..., D, D)``, is unitary to ``tol``."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        return False
    return bool((residuals(np.swapaxes(a.conj(), -1, -2) @ a, np.eye(a.shape[-1])) < tol).all())


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm state with Gaussian real and imaginary parts."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_matrix(dim: int, rng: np.random.Generator, lead: tuple = ()) -> np.ndarray:
    """Complex Gaussian matrix, or a ``(*lead, dim, dim)`` stack of them, from one draw.

    Each matrix draws its real part, then its imaginary part, so a stack
    holds the same numbers as one call per matrix in row-major order.
    """
    z = rng.standard_normal((*lead, 2, dim, dim))
    out = z[..., 0, :, :].astype(complex)
    out.imag = z[..., 1, :, :]
    return out


def qr_unitary(z: np.ndarray) -> np.ndarray:
    """The Q factor of each matrix of ``z`` with the R diagonal phase-fixed, by one batched QR.

    For a complex Gaussian ``z`` this is a Haar unitary (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices
    AMS 54, 2007).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def haar_unitary(dim: int, rng: np.random.Generator, lead: tuple = ()) -> np.ndarray:
    """Haar-random unitary, or a ``(*lead, dim, dim)`` stack of them drawn as one ``random_matrix`` stack."""
    return qr_unitary(random_matrix(dim, rng, lead))
