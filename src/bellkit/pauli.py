"""Pauli and clock/shift words, and the basis-group closure check.

Covers the qubit gates X, Z, H, and the one formula for words: n-qubit
tensor words ``T(ab) = (-1)^g  prod_k Z^{a_k} X^{b_k}`` and qudit words
``omega^g Z^a X^b`` (omega = exp(2 pi i / d), ``ZX = omega XZ``), built
from integer exponents as one ``linalg.Monomial`` (``word``): one word
from scalar exponents, a stack of K words (a Bell family, the basis-group
candidate sets) from ``(K, 1)`` arrays.  A dense stack is that
monomial's ``dense()``.

Phases are never floated through matrices when combining words: signs
and phases are integer exponents, so the braid outcome table, which adds
them, stays exact.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, Monomial, fold, identity, residual, residuals
from .report import Report

# multi_bell builds its word dense, 2^n x 2^n, on at most this many qubits;
# concurrence_check refuses larger n before drawing any state.
DENSE_MAX_N = 12

# ---------------------------------------------------------------------------
# bit strings


def as_bits(value, n: int | None = None) -> tuple[int, ...]:
    """Coerce an int, iterable or '0101' string to a tuple of bits.

    Ints are expanded big-endian to width ``n``.
    """
    if isinstance(value, (int, np.integer)):
        if n is None:
            raise ValueError("bit width required to expand an integer label")
        if not 0 <= value < 2**n:
            raise ValueError(f"label {value} out of range for {n} bits")
        return tuple((value >> (n - 1 - k)) & 1 for k in range(n))
    if isinstance(value, str):
        bits = tuple(int(c) for c in value)
    else:
        bits = tuple(int(b) for b in value)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"not a bit string: {value!r}")
    if n is not None and len(bits) != n:
        raise ValueError(f"expected {n} bits, got {len(bits)}")
    return bits


def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


# ---------------------------------------------------------------------------
# qubit gates

_SQ2 = 1.0 / np.sqrt(2.0)

_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
}


def pauli_gate(name: str) -> np.ndarray:
    try:
        return _GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}, expected one of I, X, Z, H") from None


# ---------------------------------------------------------------------------
# qudit roots of unity


def omega_root(d: int, k: int = 1) -> complex:
    """exp(2 pi i k / d), computed per entry rather than by repeated products.

    Quarter-turn angles are returned exactly so that d = 2, 4 reductions
    (Z, ZX, ...) carry no floating dust.
    """
    k %= d
    if (4 * k) % d == 0:
        return (1, 1j, -1, -1j)[(4 * k) // d % 4]
    return complex(np.exp(2j * np.pi * k / d))


# ---------------------------------------------------------------------------
# words


def _word_entries(a, b, g, n: int | None = None, d: int | None = None):
    """Rows and phases of words: column ``i`` holds ``phase[..., i]`` in row ``rows[..., i]``.

    n qubits, ``a``, ``b`` big-endian bit strings read as integers:
    ``(-1)^g Z^a X^b |i> = (-1)^(g + a.(i xor b)) |i xor b>``, one factor
    ``(-1)^(a_k (i_k xor b_k))`` per qubit.  One qudit of dimension d:
    ``omega^g Z^a X^b |i> = omega^g omega^(a (i + b)) |i + b>``.  Scalar
    exponents give one word, ``(K, 1)`` arrays a ``(K, D)`` family.
    """
    if n is not None:
        rows = np.arange(2**n) ^ b
        return rows, 1.0 - 2.0 * ((g + np.bitwise_count(rows & a)) & 1)
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    rows = (np.arange(d) + b) % d
    roots = np.array([omega_root(d, k) for k in range(d)], dtype=complex)
    return rows, roots[g % d] * roots[a * rows % d]


def word(a, b, g=0, n: int | None = None, d: int | None = None) -> Monomial:
    """The word ``(-1)^g Z^a X^b`` on n qubits, or ``omega^g Z^a X^b`` on one qudit, as a monomial.

    Scalar exponents give one word; ``(K, 1)`` arrays give the ``(K, D)``
    stack of K words (``_word_entries``).  The formula gives a permutation
    for every n-bit ``b`` (a qudit's shift is taken mod d), so the words
    are not checked again.
    """
    return Monomial._of(*_word_entries(a, b, g, n, d))


# ---------------------------------------------------------------------------
# word families


def qubit_word_set(n: int) -> np.ndarray:
    """All 2 * 4^n signed words, the candidate basis group at d=2^n: (z, x) lexicographic, each + then -."""
    return word(*np.indices((2**n, 2**n, 2)).reshape(3, -1, 1), n=n).dense()


def qudit_word_set(d: int) -> np.ndarray:
    """All d^3 phase-decorated qudit words omega^g Z^a X^b, in (g, a, b) lexicographic order."""
    g, a, b = np.indices((d, d, d)).reshape(3, -1, 1)
    return word(a, b, g, d=d).dense()


# Each temporary of the closure check holds at most this many bytes, so the
# check's extra working set stays near 2 MiB whatever the candidate count.
_CHUNK_BYTES = 1 << 19


def _nearest_residuals(count: int, build, mats: np.ndarray) -> np.ndarray:
    """``min_w max|P - w|`` over the members ``w`` of ``mats``, for each of
    ``count`` matrices ``P``; ``build(lo, hi)`` stacks ``P[lo:hi]``.

    Equal to folding ``residual(P, w)`` over every member with ``np.min``,
    NaN included.  One GEMM gives every squared Frobenius distance
    ``F2 = |P|^2 + |w|^2 - 2 Re<w, P>``; the Frobenius-nearest member
    ``w*`` gives ``ub = max|P - w*|``.  As ``max|x| >= |x|_F / d``, only
    members with ``F2 <= d^2 ub^2 + slack`` can do better, where ``slack``
    is twice a bound on the rounding of both sides.  Those members get the
    exact ``max|P - w|``, and so does every member for a ``P`` whose row
    of ``F2`` is not finite (a NaN or inf entry, or overflow), except
    ``w*``, whose residual ``ub`` already is.  Every returned value is such
    an exact residual against a real member, so a pruning error could only
    raise it, never lower it.
    """
    size = mats[0].size
    flat = mats.reshape(len(mats), size)
    sq_w = (flat.real**2 + flat.imag**2).sum(axis=1)
    flat_h = flat.conj().T.copy()
    rel = 8 * (size + 2) * np.finfo(float).eps
    floor = rel * sq_w.max() + np.finfo(float).tiny
    step = max(1, _CHUNK_BYTES // (16 * max(len(mats), size)))
    pair_step = max(1, _CHUNK_BYTES // (16 * size))
    out = np.empty(count)
    for lo in range(0, count, step):
        prods = build(lo, min(lo + step, count))
        flat_p = prods.reshape(len(prods), size)
        sq_p = (flat_p.real**2 + flat_p.imag**2).sum(axis=1)
        f2 = (flat_p @ flat_h).real
        f2 *= -2.0
        f2 += sq_w
        f2 += sq_p[:, None]
        best = np.argmin(f2, axis=1)
        ub = np.abs(prods - mats[best]).max(axis=(1, 2))
        bound = size * ub**2
        bound += rel * (sq_p + bound) + floor
        near = f2 <= bound[:, None]
        near[~np.isfinite(f2.sum(axis=1))] = True
        near[np.arange(len(prods)), best] = False
        rows, cols = np.divmod(np.flatnonzero(near), len(mats))
        for k in range(0, rows.size, pair_step):
            r, c = rows[k:k + pair_step], cols[k:k + pair_step]
            np.minimum.at(ub, r, np.abs(prods[r] - mats[c]).max(axis=(1, 2)))
        out[lo:lo + len(prods)] = ub
    return out


def _pair_products(stack: np.ndarray):
    """``build(lo, hi)``: the ``(hi - lo, D, D)`` products ``stack[i] @ stack[j]`` of the pairs ``i N + j`` in ``[lo, hi)``.

    Entry ``[(i, r), (j, c)]`` of ``stack.reshape(N D, D) @ stack.transpose(1,
    0, 2).reshape(D, N D)`` is ``(stack[i] @ stack[j])[r, c]``.  A window
    of pairs is at most three rectangles of that grid (the end of a row i,
    whole rows, the start of a row), each one GEMM, so no product outside
    the window is formed.
    """
    count, dim = stack.shape[:2]
    left = stack.reshape(count * dim, dim)
    right = stack.transpose(1, 0, 2).reshape(dim, count * dim)

    def build(lo, hi):
        out = np.empty((hi - lo,) + stack.shape[1:], dtype=stack.dtype)
        start = lo
        while start < hi:
            i, j = divmod(start, count)
            if j == 0 and hi - start >= count:
                rows, stop = (hi - start) // count, count
            else:
                rows, stop = 1, min(count, j + hi - start)
            grid = left[i * dim:(i + rows) * dim] @ right[:, j * dim:stop * dim]
            view = out[start - lo:start - lo + rows * (stop - j)].reshape(rows, stop - j, dim, dim)
            view[...] = grid.reshape(rows, dim, stop - j, dim).swapaxes(1, 2)
            start += rows * (stop - j)
        return out

    return build


def basis_group_check(words, d: int, tol: float = DEFAULT_TOL) -> Report:
    """Verify that a finite set of matrices forms a basis group.

    Checks (i) every element unitary, (ii) closure under multiplication
    and conjugate transpose, (iii) Hilbert-Schmidt orthonormality of one
    phase representative per coset.  A closure violation is reported
    with the witness pair (product) or index (adjoint) in the case id.
    """
    stack = np.asarray(words, dtype=complex)
    count = len(stack)
    if not count:
        raise ValueError("empty candidate set")
    rep = Report("basis-group", {"d": d, "size": count}, tolerance=tol)

    rep.add("unitary", fold(residuals(np.swapaxes(stack.conj(), -1, -2) @ stack, identity(d))))

    dists = _nearest_residuals(count * count, _pair_products(stack), stack)
    worst = fold(dists)
    if not worst < tol:
        # The GEMM and one product per pair round apart by at most half of
        # ``slack``, so the pairs within ``slack`` of the worst are redone one
        # product each: the worst pair and its residual then do not depend on
        # how the BLAS rounds the GEMM.
        mag = np.abs(stack)
        slack = 16 * (stack.shape[1] + 2) * np.finfo(float).eps * (mag.sum(axis=2).max() * mag.max() + worst)
        near = np.flatnonzero(~(dists < worst - slack))
        left, right = np.divmod(near, count)
        dists[near] = _nearest_residuals(
            near.size, lambda lo, hi: np.matmul(stack[left[lo:hi]], stack[right[lo:hi]]), stack
        )
        worst = fold(dists)
    # argmax returns the first NaN if there is one, else the first worst pair.
    i, j = np.divmod(np.argmax(dists), count)
    rep.add("closure-mul" + (f" witness=({i},{j})" if not worst < tol else ""), worst)

    adjoints = stack.conj().transpose(0, 2, 1)
    dists = _nearest_residuals(count, lambda lo, hi: adjoints[lo:hi], stack)
    worst = fold(dists)
    rep.add("closure-dagger" + (f" witness=({np.argmax(dists)})" if not worst < tol else ""), worst)

    # One representative per global-phase coset; for unitaries u, v the
    # coset test is |tr(u^dagger v)| = d.  hs[a, b] = tr(a^dagger b) / d.
    flat = stack.reshape(count, -1)
    hs = flat.conj() @ flat.T / stack.shape[1]
    reps: list[int] = []
    for m in range(count):
        if not np.any(np.abs(np.abs(hs[reps, m]) - 1.0) < 1e-9):
            reps.append(m)
    rep.add("hs-orthonormal", residual(hs[np.ix_(reps, reps)], np.eye(len(reps))))
    return rep
