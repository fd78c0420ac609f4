"""Orthonormality/completeness suites, the unitarity iff basis theorem,
observable eigenequations, and the trace-constraint linear solver.

The decisive numerical statement verified here: extending a Bell basis
by a local matrix M preserves orthonormality exactly when M is unitary.
Random unitaries are Haar samples (QR of a complex Gaussian with the R
diagonal phase-fixed); "non-unitary" probes are unitaries plus a
perturbation pushed to spectral deviation ||M^dag M - 1|| >= ``MIN_DEV`` so
the two classes are cleanly separated.
"""

from __future__ import annotations

import numpy as np

from .bell import bell_unitaries, bell_vector, word_groups
from .linalg import (
    DEFAULT_TOL,
    Monomial,
    apply_local,
    blocks,
    dagger,
    fold,
    haar_unitary,
    is_unitary,
    map_groups,
    qr_unitary,
    random_matrix,
    residual,
    walk,
)
from .pauli import word
from .report import Report

SIDES = ("left", "right")
# the least spectral deviation ||M^dag M - 1||_2 of a non-unitary probe, and the
# Gram deviation that every non-unitary trial of the basis theorem must reach
MIN_DEV = 0.1
FAIL_FLOOR = 1e-3


def gram_check(words: Monomial, tol: float = DEFAULT_TOL) -> Report:
    """``<s_a|s_b> = delta_ab`` over the Bell states ``s_a = (U_a x 1)|Omega>`` of the stacked ``words``.

    States of two row-map groups (``bell.word_groups``) share no nonzero,
    so the Gram is one block per group, ``conj(P) P^T / D`` over the
    group's ``(K / G, D)`` phases P, one batched product for all groups.
    """
    count, local = words.perm.shape
    rep = Report("gram", {"size": count, "dim": local * local}, tolerance=tol)
    tiles = words.phase[word_groups(words)[0]]
    grams = tiles.conj() @ np.swapaxes(tiles, -1, -2) / local
    rep.add("gram-vs-identity", residual(grams, np.broadcast_to(np.eye(grams.shape[-1]), grams.shape)))
    return rep


def completeness_check(words: Monomial, tol: float = DEFAULT_TOL) -> Report:
    """``sum_a |s_a><s_a| = 1`` over the Bell states of the stacked ``words``.

    On the positions ``(maps[g, j], j)`` of row-map group g
    (``bell.word_groups``) the sum is ``P^T conj(P) / D`` over the group's
    phases P, one batched product for all groups, and 0 elsewhere.
    """
    count, local = words.perm.shape
    rep = Report("completeness", {"size": count, "dim": local * local}, tolerance=tol)
    tiles = words.phase[word_groups(words)[0]]
    sums = np.swapaxes(tiles, -1, -2) @ tiles.conj() / local
    rep.add("projector-sum-vs-identity", residual(sums, np.broadcast_to(np.eye(local), sums.shape)))
    return rep


def extend_basis(words: Monomial, m: np.ndarray, side: str) -> np.ndarray:
    """The states (M U_a x 1)|Omega> (left) or (U_a M x 1)|Omega> (right) of the stacked ``words``.

    ``M U_a`` takes the columns of M at the row map of ``U_a``, ``U_a M``
    puts the rows of M there, each times the phases (``M @ words``,
    ``words @ M``).  Each state is ``bell_vector(C) = vec(C) / sqrt(d)`` of
    its operator ``C``, so no Kronecker product with the identity is
    formed.  The states are dense, ``(K, d^2)``, as M is; a stack of M
    ``(..., d, d)`` gives one stack of states per M, ``(..., K, d^2)``.
    """
    m = np.asarray(m, dtype=complex)
    local = words.dim
    if m.shape[-2:] != (local, local):
        raise ValueError(f"M must be {local}x{local}, got {m.shape}")
    if side not in SIDES:
        raise ValueError("side must be 'left' or 'right'")
    return bell_vector(m @ words if side == "left" else words @ m)


def perturbed_nonunitary(dim: int, rng: np.random.Generator, lead: tuple = ()) -> np.ndarray:
    """Haar unitary plus a perturbation with ||M^dag M - 1||_2 >= ``MIN_DEV``, or a ``(*lead)`` stack of them.

    Each matrix draws its Haar part, then its perturbation, so a stack
    holds the same numbers as one call per matrix.
    """
    z = random_matrix(dim, rng, (*lead, 2))
    return _perturb(qr_unitary(z[..., 0, :, :]), z[..., 1, :, :])


def _perturb(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``u + g`` with each ``g`` scaled to spectral norm ``MIN_DEV``, then doubled until ``||M^dag M - 1||_2 >= MIN_DEV``.

    The stacks are flattened to one batch, and each round recomputes only
    the matrices still below ``MIN_DEV``.
    """
    shape, dim = u.shape, u.shape[-1]
    u, g = u.reshape(-1, dim, dim), g.reshape(-1, dim, dim)
    g = g * (MIN_DEV / np.linalg.norm(g, 2, axis=(-2, -1)))[:, None, None]
    m = u + g
    low = np.ones(len(m), dtype=bool)
    while low.any():
        below = m[low]
        dev = np.linalg.norm(np.swapaxes(below.conj(), -1, -2) @ below - np.eye(dim), 2, axis=(-2, -1))
        low[low] = dev < MIN_DEV
        g[low] *= 2.0
        m[low] = u[low] + g[low]
    return m.reshape(shape)


def reduced_completeness(words: Monomial, m: np.ndarray) -> float:
    """Worst residual of ``(1/d) sum_a U_a M |i><j| M^dag U_a^dag = (M^dag M)_ji 1`` over all pairs (i, j).

    ``words`` is a stacked ``Monomial``, a Bell family or not.  Entry
    ``[p, q]`` of the sum is ``sum_a V_a[p, i] conj(V_a[q, j])`` with ``V_a
    = U_a M``.  Row p of ``U_a`` holds ``P[a, p] = phase[a, k_a(p)]`` in
    column ``k_a(p)``, the transposed words' ``(perm, phase)`` (``words.T``),
    so for the labels of one row map g (``map_groups``) ``V_a[p, i] = P[a, p]
    Y_g[p, i]`` with ``Y_g = M[k_g]``, and the sum is ``Total[i, p, j, q] =
    sum_g C_g[p, q] Y_g[p, i] conj(Y_g[q, j])`` with ``C_g = P_g^T
    conj(P_g)`` over the group's rows of P.  For each p this is one ``(D x G)
    @ (G x D^2)`` product, compared at once with its block ``(M^dag M)^T
    delta_pq``: ``D^5`` work in all.  The per-group arrays hold ``G D^2``
    entries, and the p are taken in blocks (``linalg.walk``).
    """
    local = m.shape[0]
    t = words.T
    grams, rows = [], []
    for idx in map_groups(t).values():
        tiles = t.phase[idx]
        grams.append(tiles.T @ tiles.conj() / local)
        rows.append(m[t.perm[idx[0]]])
    # scale[p, g, q] = C_g[p, q] / D, left[p, i, g] = Y_g[p, i], right[g, j, q] = conj(Y_g[q, j])
    scale, left = np.stack(grams, axis=1), np.stack(rows, axis=-1)
    right = np.stack(rows).conj().transpose(0, 2, 1)
    mdm = m.conj().T @ m
    worst = []
    for block, (terms, total, mags) in walk(
        local,
        ((len(rows), local, local), np.result_type(scale, right)),
        ((local, local, local), np.result_type(left, scale, right)),
        ((local, local, local), float),
    ):
        count = len(total)
        np.multiply(scale[block, :, None, :], right, out=terms)
        np.matmul(left[block], terms.reshape(count, len(rows), -1), out=total.reshape(count, local, -1))
        total[np.arange(count), :, :, np.arange(block.start, block.stop)] -= mdm.T
        worst.append(fold(np.abs(total, out=mags)))
    return fold(worst)


def _trial_matrices(draws: np.ndarray, mats: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The unitary and the perturbed matrices of a block of trials, as two ``(count, d, d)`` stacks.

    One draw and one batched QR, in the order of one ``haar_unitary`` and
    one ``perturbed_nonunitary`` call per trial: the unitary, then the
    perturbed matrix's Haar part and perturbation.  The block's Gaussians
    are drawn into ``draws``, ``(count, 3, 2, d, d)`` float, and read into
    ``mats``, ``(count, 3, d, d)`` complex: the numbers of
    ``random_matrix(d, rng, (count, 3))``.
    """
    rng.standard_normal(out=draws)
    mats.real, mats.imag = draws[:, :, 0], draws[:, :, 1]
    haar = qr_unitary(mats[:, :2])
    return haar[:, 0], _perturb(haar[:, 1], mats[:, 2])


def _gram_tables(words: Monomial, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The row maps and phase tiles of the Bell family ``words`` with which ``_gram_residuals`` reads ``side``.

    ``maps`` is the ``(G, D)`` row map of each row-map group
    (``bell.word_groups``) and ``tiles`` the ``(G, K / G, D)`` phases
    ``P_g`` of its labels; the right side reads the transposed words
    (``words.T``) in the left side's label order.
    """
    order, maps = word_groups(words)
    if side == "right":
        words = words.T
        maps = words.perm[order[:, 0]]
    return maps, words.phase[order]


def _gram_residuals(tables: tuple, ms: np.ndarray, side: str) -> np.ndarray:
    """Gram residual of the Bell family extended on ``side`` by each M of the ``(T, D, D)`` stack ``ms``.

    ``tables`` are the family's ``_gram_tables`` for ``side``.  The left
    Gram is ``<vec(M U_a), vec(M U_b)> / D = tr(U_a^dag H U_b) / D`` with
    ``H = M^dag M``, so with ``U_a[r_a[j], j] = p_a[j]`` it is ``G_ab =
    (1/D) sum_j conj(p_a[j]) p_b[j] H[r_a[j], r_b[j]]``: M enters only
    through ``H``, and no extended state is formed.  The right Gram
    ``tr(M^dag U_a^dag U_b M) / D`` is the same sum over the transposed
    words ``U_a^T`` (row maps ``r_a^-1``, phases ``p_a[r_a^-1]``) with ``H =
    (M M^dag)^T``.  Labels of one row map share ``r_a``.  For each group g,
    the Gram blocks ``(g, h)``, ``h >= g``, of a block of trials are one
    GEMM: the phases ``P_h[b, j]`` scaled by ``H[m_g[j], m_h[j]] / D``,
    times ``conj(P_g)^T``.  As G is Hermitian, these blocks hold every
    entry or its conjugate.  Group g takes ``conj(P_g)^T`` once and walks
    blocks of trials of at most ``linalg.BLOCK_BYTES`` per array over its
    groups ``h >= g``, or one trial's; every block of every group is
    written into the same three arrays, sized from the largest first block.
    """
    maps, tiles = tables
    if side == "left":
        hs = np.swapaxes(ms.conj(), -1, -2) @ ms
    else:
        hs = ms.conj() @ np.swapaxes(ms, -1, -2)
    groups, size, local = tiles.shape
    hs /= local
    eye = np.eye(size)
    out = np.zeros(len(ms))
    walks = [list(blocks(len(ms), 16 * (groups - g) * size * local)) for g in range(groups)]
    # the rows (t, h - g, b) of the largest first block over the groups
    largest = max((spans[0].stop * (groups - g) * size for g, spans in enumerate(walks) if spans), default=0)
    # scaled[t, h - g, b, j] = H[m_g[j], m_h[j]] P_h[b, j] / D; gram[t, h - g, b, a] = G[(g, a), (h, b)]
    scaled = np.empty(largest * local, dtype=np.result_type(hs, tiles))
    gram = np.empty(largest * size, dtype=scaled.dtype)
    mags = np.empty(gram.shape)
    for g, (rows_g, spans) in enumerate(zip(maps, walks)):
        adjoint = tiles[g].conj().T
        for block in spans:
            part = hs[block]
            count = len(part) * (groups - g) * size
            view = scaled[: count * local].reshape(len(part), groups - g, size, local)
            np.multiply(part[:, rows_g, maps[g:]][:, :, None, :], tiles[g:], out=view)
            grams = gram[: count * size].reshape(len(part), groups - g, size, size)
            np.matmul(view.reshape(count, local), adjoint, out=grams.reshape(count, size))
            grams[:, 0] -= eye
            worst = np.abs(grams, out=mags[: grams.size].reshape(grams.shape)).max(axis=(1, 2, 3))
            np.maximum(out[block], worst, out=out[block])
    return out


def basis_theorem_suite(
    d: int | None = None,
    n: int | None = None,
    trials: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Unitary extensions stay orthonormal; perturbed ones never do.

    Reports, per side, the worst Gram residual over unitary trials (must
    stay below ``tol``) and the best Gram deviation over non-unitary
    trials (must stay above ``FAIL_FLOOR``); a failing case names its
    ``trial``, counted from 0 (``Report``).  Each side's trials are drawn
    in stacked blocks (``linalg.walk``), in the per-trial order
    (``_trial_matrices``), and each trial's Gram is taken from ``M^dag M``
    or ``M M^dag`` and the side's tables of the words, built once per call
    (``_gram_tables``): a block's unitary and perturbed trials go through
    ``_gram_residuals`` together.
    """
    words = bell_unitaries(d, n)[1]
    local = words.dim
    rng = np.random.default_rng(seed)
    size = {"n": n} if d is None else {"d": d}
    rep = Report("basis-theorem", {**size, "trials": trials}, tolerance=tol, seed=seed)

    # the draws of _trial_matrices, three matrices a trial, are the largest items: they set the block edges
    trial_blocks = walk(trials, ((2, local, local), complex), ((3, 2, local, local), float), ((3, local, local), complex))
    for side in SIDES:
        tables = _gram_tables(words, side)
        res = np.empty((trials, 2))
        for block, (ms, draws, mats) in trial_blocks:
            ms[:, 0], ms[:, 1] = _trial_matrices(draws, mats, rng)
            res[block] = _gram_residuals(tables, ms.reshape(-1, local, local), side).reshape(len(ms), 2)
        # one side's tables at a time: at d = 64 the tiles are 4 MiB
        del tables
        rep.add(f"unitary-extensions-{side} ({trials} trials)", res[:, 0], index="trial")
        rep.add_expect_fail(f"nonunitary-extensions-{side} ({trials} trials)", res[:, 1], FAIL_FLOOR, "trial")

    rep.add("reduced-completeness (general M)", reduced_completeness(words, random_matrix(local, rng)))

    # For square M, one-sided unitarity implies two-sided; nothing to sample.
    rep.add("vacuous-one-sided-unitarity", 0.0)
    return rep


# ---------------------------------------------------------------------------
# observables


def _word_eigen_residuals(op: Monomial, words: Monomial, eigenvalues: np.ndarray) -> np.ndarray:
    """``max|O s_a - lam_a s_a|`` of each Bell state ``s_a`` of the stacked ``words``, for a monomial O.

    With ``rows, phase = words.perm, words.phase``, entry j of ``s_a`` is
    ``phase[a, j] / sqrt(D)`` at position ``x = rows[a, j] D + j``; O sends
    it to ``t = O.perm[x]`` times ``O.phase[x]``.  Position t is entry ``t
    mod D`` of ``s_a`` when ``rows[a, t mod D] D + t mod D = t``, and
    outside its support
    otherwise.  Every entry of ``O s_a - lam_a s_a`` is one of a
    difference at a shared position, an entry of ``O s_a`` where ``s_a``
    is 0, or one of ``lam_a s_a`` that no entry of ``O s_a`` meets: the
    dense max-abs residual, NaN included, from ``(K, D)`` arrays.
    """
    rows, phase = words.perm, words.phase
    count, local = rows.shape
    amps = phase * (1.0 / np.sqrt(local))
    pos = rows * local + np.arange(local)
    target = op.perm[pos]
    # entry (a, t mod D) of the flattened (K, D) arrays
    slot = target % local + np.arange(0, count * local, local)[:, None]
    shared = rows.reshape(-1)[slot] * local + target % local == target
    moved = op.phase[pos] * amps
    scaled = amps * eigenvalues[:, None]
    diff = np.abs(np.where(shared, moved - scaled.reshape(-1)[slot], moved))
    unmet = np.abs(scaled).reshape(-1)
    unmet[slot[shared]] = 0.0
    return np.maximum(diff.max(axis=1), unmet.reshape(count, local).max(axis=1))


def _conjugated_cases(matrix, eigenvalues, words: Monomial, ms: np.ndarray, side: str, prod, mags) -> list:
    """Eigenequation and hermiticity residuals of the observable ``matrix`` conjugated on ``side`` by each M of ``ms``.

    Each ``O'`` is checked on the family ``words`` extended by M on that
    side, ``T = extend_basis(words, M, side)``, with the ``eigenvalues`` of
    O: ``max|O' T^T - T^T Lambda|`` over its states and ``max|O' -
    O'^dag|``, one ``(eig, herm)`` pair per M.  ``prod`` and ``mags``,
    ``(len(ms), D, D)``, receive ``O' T^T`` and then ``O' - O'^dag``, and
    their magnitudes; the rows of T are scaled by the eigenvalues in place.
    """
    turned = conjugated_observables(matrix, ms, side)
    family = extend_basis(words, ms, side)
    np.matmul(turned, np.swapaxes(family, -1, -2), out=prod)
    family *= eigenvalues[:, None]
    np.subtract(prod, np.swapaxes(family, -1, -2), out=prod)
    eig = np.abs(prod, out=mags).max(axis=(-2, -1))
    np.conjugate(np.swapaxes(turned, -1, -2), out=prod)
    np.subtract(turned, prod, out=prod)
    herm = np.abs(prod, out=mags).max(axis=(-2, -1))
    return list(zip(eig, herm))


def qudit_observables(d: int, k: int) -> list[tuple]:
    """The four Hermitian combinations of X^k x X^k and Z^k x (Z^dag)^k, as ``(name, operator, eigenvalues)``.

    The operators are dense ``(d^2, d^2)``, and their eigenvectors are the
    qudit Bell family ``bell_unitaries(d=d)``: on |Omega(alpha beta)>, at
    index ``alpha d + beta``, the eigenvalues are cos/sin(2 k alpha pi / d)
    and cos/sin(2 k beta pi / d).  At d=2, k=1 the two sine operators
    degenerate to zero.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in 1..{d - 1}")
    xk, zk = word(0, k, d=d).dense(), word(k, 0, d=d).dense()
    a = np.kron(xk, xk)
    b = np.kron(zk, dagger(zk))
    a_dag, b_dag = dagger(a), dagger(b)
    ang = 2 * np.pi * k / d
    # each eigenvalue is read from a table over the d values of one label digit
    alpha, beta = np.divmod(np.arange(d * d), d)
    cos, sin = (np.array([f(ang * x) for x in range(d)]) for f in (np.cos, np.sin))
    return [
        (f"OX+({k})", (a + a_dag) / 2, cos[alpha]),
        (f"OX-({k})", 1j * (a - a_dag) / 2, sin[alpha]),
        (f"OZ+({k})", (b + b_dag) / 2, cos[beta]),
        (f"OZ-({k})", -1j * (b - b_dag) / 2, sin[beta]),
    ]


def _haar_stream(dim: int, rng: np.random.Generator, count: int):
    """``count`` Haar unitaries, one at a time in the order of one ``haar_unitary`` call each.

    They are drawn as stacks of at most ``linalg.BLOCK_BYTES``, so a
    long run keeps one stack in memory, not every draw, and each stack is
    checked unitary once, as it is drawn.
    """
    for block in blocks(count, 16 * dim * dim):
        stack = haar_unitary(dim, rng, (block.stop - block.start,))
        if not is_unitary(stack):
            raise ValueError("conjugation requires a unitary matrix")
        yield from stack


def qudit_observable_suite(
    d: int, k: int = 0, conjugated: int = 0, seed: int = 0, tol: float = DEFAULT_TOL
) -> Report:
    """Eigenequations of the order-k qudit observables, with Haar conjugations.

    ``k = 0`` runs every order 1..d-1.  Each observable O is checked on
    the family's dense states, built once per call: ``max|O s_a - lam_a
    s_a|`` per state, whose worst names its label, and ``max|O - O^dag|``.
    It is followed by ``conjugated`` rounds of left and right conjugation
    by a Haar unitary M.  A conjugated case checks ``O'`` on the family
    extended by M on that side, ``extend_basis(words, M, side)``, whose
    states are its eigenvectors with the eigenvalues of O: a conjugation
    on the wrong qudit fails these eigenequations, most states at once, so
    the case names no witness label.  The Ms are drawn in stacks, in the
    per-call order (``_haar_stream``), and each observable's rounds are
    conjugated and checked in blocks (``linalg.walk``,
    ``_conjugated_cases``).
    """
    params = {"d": d, "conjugated": conjugated, **({"k": k} if k else {})}
    rep = Report("qudit-observables", params, tolerance=tol, seed=seed)
    rng = np.random.default_rng(seed)
    labels, words = bell_unitaries(d=d)
    # the family's dense states as columns: built once, for every order
    states = bell_vector(words.dense()).T
    orders = [k] if k else range(1, d)
    # one M per order, observable (four per order), round and side, in that order
    draws = _haar_stream(d, rng, len(orders) * 4 * conjugated * len(SIDES))
    rounds = walk(conjugated, ((len(SIDES), d, d), complex), ((d * d, d * d), complex), ((d * d, d * d), float))
    for order in orders:
        for name, op, lam in qudit_observables(d, order):
            per_state = np.abs(op @ states - states * lam).max(axis=0)
            rep.add(name, per_state, index=labels, also=(residual(op, dagger(op)),))
            for _, (ms, prod, mags) in rounds:
                for slot, m in zip(ms.reshape(-1, d, d), draws):
                    slot[...] = m
                sides = [_conjugated_cases(op, lam, words, ms[:, s], side, prod, mags) for s, side in enumerate(SIDES)]
                for cases in zip(*sides):
                    for side, (eig, herm) in zip(SIDES, cases):
                        rep.add(f"{name}|{side}-conjugated", eig, also=(herm,))
    return rep


def conjugated_observables(matrix: np.ndarray, m: np.ndarray, side: str) -> np.ndarray:
    """Unitary transform ``O' = M~ O M~^dag`` of a dense observable ``matrix``, by M on ``side``.

    Left: ``M~ = M x 1``, whose eigenvectors are ``(M x 1)|psi>``.  Right
    uses the transpose/conjugate pair ``M~ = 1 x M^T``, matching the local
    action ``U_a M = (1 x M^T)`` on the reference Bell state.  Either way
    the eigenvectors of ``O'`` are the family extended by M on that side
    (``extend_basis``), with the eigenvalues of O.
    ``O'`` is two products, O(d^5) instead of the O(d^6) products with
    ``M~``: ``M~`` applied to O's rows (``apply_local``), then
    ``conj(M~)`` to the digits of each row, a GEMM on a view of the first
    product, so no transposed copy is made.  A stack of M ``(..., d, d)``
    gives the ``(..., d^2, d^2)`` stack of transforms, each product batched
    over the stack.  M is taken to be unitary: the suite checks its Haar
    draws once per stack (``_haar_stream``).
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[-1]
    if matrix.shape != (d * d, d * d):
        raise ValueError("observable dimension does not match M")
    if side not in SIDES:
        raise ValueError("side must be 'left' or 'right'")
    lead = m.shape[:-2]
    if side == "left":
        # row x of M~ O is a (d, d) matrix R_x, and row x of O' is conj(M) R_x
        rows = apply_local(m, matrix).reshape(*lead, d * d, d, d)
        turned = np.matmul(m.conj()[..., None, :, :], rows)
    else:
        # row x of M~ O, as (d, d), times conj(M) from the right
        turned = apply_local(np.swapaxes(m, -1, -2), matrix, d).reshape(*lead, d**3, d) @ m.conj()
    return turned.reshape(*lead, d * d, d * d)


def multiqubit_observables(n: int) -> list[tuple]:
    """Phase-bit X_k X_{n+k} and parity-bit Z_k Z_{n+k} pairs, k = 1..n, as ``(name, word, eigenvalues)``.

    The observables are monomials; all 2n share the Bell family
    ``bell_unitaries(n=n)`` as their eigenvectors.  On label i, X_k
    X_{n+k} reads phase bit k, ``(i >> (2n - k)) & 1``, and Z_k Z_{n+k}
    parity bit k, ``(i >> (n - k)) & 1``: eigenvalue 1 for bit 0, -1 for 1.
    """
    index = np.arange(4**n)
    observables = []
    for k in range(1, n + 1):
        # qubits k and n + k, big-endian over 2n
        pair = (1 << (2 * n - k)) | (1 << (n - k))
        for name, z, x, shift in (("X", 0, pair, 2 * n - k), ("Z", pair, 0, n - k)):
            eigenvalues = 1.0 - 2.0 * ((index >> shift) & 1)
            observables.append((f"{name}{k}{name}{n + k}", word(z, x, n=2 * n), eigenvalues))
    return observables


def multiqubit_observable_suite(n: int, tol: float = DEFAULT_TOL) -> Report:
    """Eigenequations, pairwise commutators, and joint-label uniqueness.

    Hermiticity and the commutators are exact index and phase arithmetic
    on the monomial observables, and each observable's eigenequations are
    index and phase arithmetic on the Bell family's words, built once per
    call (``_word_eigen_residuals``).
    """
    observables = multiqubit_observables(n)
    labels, words = bell_unitaries(n=n)
    rep = Report("multiqubit-observables", {"n": n}, tolerance=tol)
    for name, op, lam in observables:
        rep.add(name, _word_eigen_residuals(op, words, lam), index=labels, also=(residual(op, dagger(op)),))
    ops = [op for _, op, _ in observables]
    worst = fold(residual(a @ b, b @ a) for i, a in enumerate(ops) for b in ops[i + 1 :])
    rep.add("pairwise-commutators", worst)
    # one row of joint eigenvalues per label
    patterns = {tuple(row) for row in np.rint(np.stack([lam for *_, lam in observables], axis=1)).tolist()}
    rep.add("joint-labels-distinct", 0.0 if len(patterns) == 4**n else 1.0)
    return rep


# ---------------------------------------------------------------------------
# trace-constraint solver (Lemma of the inductive appendix)


def trace_system(n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Linear system tr(I T(ab)) = 2^n delta over the 4^n word family.

    Unknowns are the row-major entries of the 2^n x 2^n matrix I; row
    order follows the lexicographic (alpha, beta) label order.
    """
    labels, words = bell_unitaries(n=n)
    # tr(I T) = sum_ij I[i, j] T[j, i]: row a holds T^T flattened, real as
    # tensor words of Z, X are real signed permutations.
    mat = np.swapaxes(words.dense(), -1, -2).reshape(len(labels), -1)
    rhs = np.zeros(4**n)
    rhs[0] = 2**n  # the all-zero label comes first
    return mat, rhs, labels


APPENDIX_N1_MATRIX = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, -1]], dtype=float
)
# Row order of the appendix system: words 1, X, ZX, Z.
_APPENDIX_ROW_ORDER = [0, 1, 3, 2]


def trace_constraint_solve(n: int, tol: float = DEFAULT_TOL) -> Report:
    mat, rhs, _ = trace_system(n)
    dim = 2**n
    rep = Report("trace-constraint", {"n": n}, tolerance=tol)

    sing = np.linalg.svd(mat, compute_uv=False)
    null_dim = int(np.sum(sing < 1e-10 * sing[0]))
    rep.add(f"system-full-rank ({4 ** n} eqs)", float(null_dim))

    sol = np.linalg.solve(mat, rhs).reshape(dim, dim)
    rep.add("inhomogeneous-solution-is-identity", residual(sol, np.eye(dim)))

    hom = np.linalg.solve(mat, np.zeros(4**n)).reshape(dim, dim)
    rep.add("homogeneous-solution-is-zero", residual(hom, np.zeros((dim, dim))))

    if n == 1:
        rep.add(
            "appendix-system-verbatim",
            residual(mat[_APPENDIX_ROW_ORDER], APPENDIX_N1_MATRIX),
        )
    return rep
