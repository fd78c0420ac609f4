"""Pauli and clock/shift words, and the basis-group closure check.

Covers the one formula for words: n-qubit tensor words
``T(ab) = (-1)^g  prod_k Z^{a_k} X^{b_k}`` and qudit words
``omega^g Z^a X^b`` (omega = exp(2 pi i / d), ``ZX = omega XZ``), built
from integer exponents as one ``linalg.Monomial`` (``word``): one word
from scalar exponents, a stack of K words (a Bell family, the basis-group
candidate sets) from ``(K, 1)`` arrays.  Every Pauli (``word(0, 1, n=1)``
is X), Bell pair and word power in the library is one of these words.

Phases are never floated through matrices when combining words: signs
and phases are integer exponents, so the braid outcome table, which adds
them, stays exact.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, Monomial, blocks, map_groups, residual, residuals
from .report import Report

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


def qubit_word_set(n: int) -> Monomial:
    """All 2 * 4^n signed words, the candidate basis group at d=2^n: (z, x) lexicographic, each + then -."""
    return word(*np.indices((2**n, 2**n, 2)).reshape(3, -1, 1), n=n)


def qudit_word_set(d: int) -> Monomial:
    """All d^3 phase-decorated qudit words omega^g Z^a X^b, in (g, a, b) lexicographic order."""
    g, a, b = np.indices((d, d, d)).reshape(3, -1, 1)
    return word(a, b, g, d=d)


def _nearest(words: Monomial, groups: dict, cands: Monomial) -> np.ndarray:
    """``min_w residual(P, w)`` over the members ``w`` of ``words``, for each candidate ``P`` of ``cands``.

    All candidates share one row map; ``groups`` maps the bytes of a row
    map to the members that have it.  A member with another map differs from P
    by at least P's smallest ``|phase|``, in a column where the maps differ,
    so the members with P's map, at ``max|p_P - p_w|``, decide the minimum
    when their best is below that.  The other candidates, whose map no
    member has or whose best is not below it, are compared with every
    member.  A NaN member makes every value NaN, as ``np.min`` over the
    dense residuals does.
    """
    perm, phase = cands.perm.reshape(-1, words.dim), cands.phase.reshape(-1, words.dim)
    same = words.phase[groups.get(perm[0].tobytes(), [])]
    floor = np.nan if np.isnan(words.phase).any() else np.inf
    best = np.empty(len(phase))
    for block in blocks(len(phase), phase.itemsize * max(1, len(same))):
        # one column at a time, so that each temporary is (members, candidates)
        dist = np.zeros((len(same), len(phase[block])))
        for c in range(words.dim):
            np.maximum(dist, np.abs(phase[block, c] - same[:, c, None]), out=dist)
        best[block] = dist.min(axis=0, initial=floor)
    rest = np.flatnonzero(~(best < np.abs(phase).min(axis=1)))
    for rows in (rest[block] for block in blocks(len(rest), words.phase.nbytes)):
        best[rows] = residuals(Monomial._of(perm[rows, None], phase[rows, None]), words).min(axis=1)
    return best.reshape(cands.perm.shape[:-1])


def _closure_residuals(words: Monomial, groups: dict):
    """Nearest-member residuals of the products ``words[i] @ words[j]``, ``(N, N)``, and of the adjoints, ``(N,)``.

    The products of two map groups share one map; each is exact elementwise
    arithmetic (``Monomial.__matmul__``, left factor first), taken in blocks
    of left factors.
    """
    members = groups.values()
    products = np.empty((len(words.perm),) * 2)
    for left in members:
        for right in members:
            for block in blocks(len(left), words.phase.itemsize * len(right) * words.dim):
                products[np.ix_(left[block], right)] = _nearest(words, groups, words[left[block]] @ words[right])
    adjoints, dagger = words.adjoint(), np.empty(len(words.perm))
    for idx in members:
        dagger[idx] = _nearest(words, groups, adjoints[idx])
    return products, dagger


def basis_group_check(words: Monomial, tol: float = DEFAULT_TOL) -> Report:
    """Verify that a stack of monomials ``(N, D)`` forms a basis group.

    Checks (i) every element unitary, ``|phase| = 1``, (ii) closure under
    multiplication and conjugate transpose (``_closure_residuals``), (iii)
    Hilbert-Schmidt orthonormality of one phase representative per coset.
    A closure violation names its pair ``(i,j)`` (product) or index
    ``(k)`` (adjoint).  No residual depends on how a BLAS rounds.
    """
    if words.perm.ndim != 2 or not len(words.perm):
        raise ValueError("expected a non-empty (N, D) stack of monomials")
    count, dim = words.perm.shape
    rep = Report("basis-group", {"d": dim, "size": count}, tolerance=tol)
    rep.add("unitary", np.max(np.abs(np.abs(words.phase) ** 2 - 1)))

    groups = map_groups(words)
    products, dagger = _closure_residuals(words, groups)
    rep.add("closure-mul", products)
    rep.add("closure-dagger", dagger)

    # One representative per global-phase coset; for unitaries u, v the
    # coset test is |tr(u^dagger v)| = d.  hs[a, b] = tr(a^dagger b) / d, the
    # sum of conj(p_a) p_b over the columns where the two row maps agree.
    hs = np.zeros((count, count), dtype=complex)
    for left in groups.values():
        for right in groups.values():
            agree = words.perm[left[0]] == words.perm[right[0]]
            if agree.any():
                hs[np.ix_(left, right)] = np.einsum(
                    "ic,jc->ij", words.phase[left][:, agree].conj(), words.phase[right][:, agree]
                ) / dim
    reps: list[int] = []
    for m in range(count):
        if not np.any(np.abs(np.abs(hs[reps, m]) - 1.0) < 1e-9):
            reps.append(m)
    rep.add("hs-orthonormal", residual(hs[np.ix_(reps, reps)], np.eye(len(reps))))
    return rep
