"""Bell transform B(eps, eta), Yang-Baxter and braid-group checks,
Temperley-Lieb representations from Bell projectors, and the braid
teleportation equations for one and many qubits.

The two sign parameters select one of four unitary basis changes from
the product basis to the Bell basis; all four solve the constant
Yang-Baxter equation.  Sign bookkeeping throughout uses the exponent
table f(eps, eta, i, j) and the bit bijections

    i' = i xor (|eps - eta| / 2) j' xor (1 + eta) / 2,    j' = i xor j,

kept as exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .bell import all_labels, bell2, bell_vector, product_ket, qudit_bell, twist_monomial
from .linalg import DEFAULT_TOL, apply_local, dagger, fold, identity, random_state, real_if_real, residual
from .pauli import pauli_gate, word
from .report import Report

_SIGNS = (1, -1)


def _check_sign(*vals):
    for v in map(np.asarray, vals):
        if not ((v == 1) | (v == -1)).all():
            raise ValueError(f"sign parameters must be +1 or -1, got {v}")


def bell_transform(epsilon: int, eta: int) -> np.ndarray:
    """The 4x4 product-to-Bell basis change; B(e, n)^dag = B(-e, -n)."""
    _check_sign(epsilon, eta)
    return np.array(
        [
            [1, 0, 0, eta],
            [0, 1, epsilon, 0],
            [0, -epsilon, 1, 0],
            [-eta, 0, 0, 1],
        ],
        dtype=complex,
    ) / np.sqrt(2.0)


def sign_exponent(epsilon, eta, i, j):
    """f(eps, eta, i, j) in {0,1}: the sign picked up mapping |ij> to a Bell state.

    f is i for (-1, -1), i (j xor 1) for (-1, 1), i j for (1, -1) and 0 for
    (1, 1): with e = (1 - eps)/2 and t = (1 - eta)/2 that is
    ``i & ((j & (e xor t)) xor e)``.  Scalars, or bit arrays with one sign
    pair per pair of bits, broadcast.
    """
    _check_sign(epsilon, eta)
    e, t = (1 - epsilon) // 2, (1 - eta) // 2
    return i & ((j & (e ^ t)) ^ e)


def bell_bijection(epsilon, eta, i, j):
    """(i, j) -> (i', j') with B(eps, eta)|ij> = (-1)^f |phi(i', j')>; broadcasts like ``sign_exponent``."""
    _check_sign(epsilon, eta)
    jp = i ^ j
    ip = i ^ ((abs(epsilon - eta) // 2) * jp) ^ ((1 + eta) // 2)
    return ip & 1, jp


def bell_action_check(epsilon: int, eta: int, tol: float = 1e-15) -> Report:
    """Unified action formula and its closed-form special cases, exhaustively."""
    rep = Report("bell-action", {"eps": epsilon, "eta": eta}, tolerance=tol)
    b = bell_transform(epsilon, eta)
    action_res = []
    images = set()
    for i, j in product((0, 1), repeat=2):
        ip, jp = bell_bijection(epsilon, eta, i, j)
        images.add((ip, jp))
        sign = (-1.0) ** sign_exponent(epsilon, eta, i, j)
        action_res.append(residual(sign * (b @ product_ket((i, j))), bell2(ip, jp)))
    rep.add("unified-action (4 inputs)", fold(action_res))
    rep.add("input-output-bijection", 0.0 if len(images) == 4 else 1.0)
    rep.add("dagger-is-negated-params", residual(dagger(b), bell_transform(-epsilon, -eta)))
    rep.add("unitarity", residual(dagger(b) @ b, identity(4)))
    return rep


# ---------------------------------------------------------------------------
# relations on the generators' joint support
#
# g_i = 1^(i-1) x X x 1^(n-i-1) is the two-site X on sites (i, i+1).  A
# relation between g_i and g_j touches three sites for j = i+1 and four for
# j >= i+2 (a wider gap only adds an identity factor between them).  On the
# full d^n space both sides are "local side x identity", and tensoring with
# an identity changes neither the value nor the max-abs residual, so each
# relation is checked on that d^3 or d^4 support.  There each side is a word
# of X placed at sites s, one block of columns at a time, a block being the
# columns of one value b of the leading digits.  The product of a word's last
# two factors is read from X's entries (``_pair_block``), d^7 work per side
# on three sites where applying the placed second factor took d^8; the rest
# of the word, one factor for a neighbour relation and none for a far pair,
# is applied by ``apply_local``, and a one-factor word is its gathered block
# (``_placed_block``).  No placed X is formed, and every block is written
# into arrays allocated once per relation.


def _word(x: np.ndarray, local_dim: int, sites, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``X_{s_1} X_{s_2} ... @ cols`` for ``sites = (s_1, s_2, ...)``, X_s = x on sites (s, s+1), into ``out`` if given."""
    for s in reversed(sites):
        cols = apply_local(x, cols, local_dim**s, out)
    return cols


def _placed_block(x: np.ndarray, local_dim: int, site: int, support: int, start: int, out: np.ndarray) -> np.ndarray:
    """Columns ``[start, start + k)`` of ``1 x X x 1`` on ``support`` sites, X = ``x`` (k x k) at ``site``, into ``out``.

    Column ``(b, i, r)`` of the placed X is ``x[:, i]`` on rows ``(b, :, r)``.  ``k`` and ``rest``, the
    dimension after X, are powers of ``local_dim``, so with ``m = min(k, rest)`` the block's column
    ``q m + j`` is ``x[:, i0 + q]`` on rows ``(b, :, r0 + j)`` for one ``(b, i0, r0)``: one write into a
    diagonal view of the zeroed block.  A GEMM against identity columns gives these entries exactly.
    """
    k = len(x)
    rest = local_dim ** (support - site) // k
    m = min(k, rest)
    b, c = divmod(start, k * rest)
    out.fill(0)
    rows = out[b * k * rest : (b + 1) * k * rest].reshape(k, rest // m, m, k // m, m)
    np.einsum("iarqr->iaqr", rows)[:, c % rest // m] = x[:, c // rest : c // rest + k // m, None]
    return out


def _pair_block(x: np.ndarray, local_dim: int, sites, start: int, out: np.ndarray) -> np.ndarray:
    """Columns ``[start, start + k)`` of ``X_{s_1} X_{s_2}`` for a pair ``sites`` of a relation, into ``out``.

    The block holds the columns of one value ``b`` of the leading digits,
    ``(b, c1, c2)`` on three sites and ``(b, c2 c3)`` on four:

    * ``(1, 0)``: ``T[(j0 k1 k2), (c1 c2)] = sum_j1 x[(j0 j1), (b c1)] x[(k1 k2), (j1 c2)]``, one
      ``matmul`` of d x d matrices over the ``(j0, k1 k2)`` batch;
    * ``(0, 1)``: ``T[(k0 k1 j2), (c1 c2)] = sum_j1 x[(k0 k1), (b j1)] x[(j1 j2), (c1 c2)]``, one GEMM;
    * ``(0, 2)`` and ``(2, 0)``, which act on disjoint sites: ``x[:, b] x x``, with no sum.
    """
    d, k = local_dim, len(x)
    b = start // k
    if sites == (1, 0):
        left = x.reshape(d, d, d, d)[:, :, b].transpose(0, 2, 1)[:, None]
        np.matmul(left, x.reshape(k, d, d), out=out.reshape(d, k, d, d))
    elif sites == (0, 1):
        np.matmul(x.reshape(k, d, d)[:, b], x.reshape(d, -1), out=out.reshape(k, -1))
    elif sites in ((0, 2), (2, 0)):
        np.multiply(x[:, b, None, None], x, out=out.reshape(k, k, k))
    else:
        raise ValueError(f"no gathered product for the pair {sites}")
    return out


def _relation_residual(x: np.ndarray, local_dim: int, support: int, lhs, rhs, scale: float = 1.0) -> float:
    """Max-abs residual of ``word(lhs) - scale * word(rhs)`` on ``support`` sites.

    Both words act on blocks of ``len(x)`` columns, built as the comment
    above says; memory is three blocks, allocated once, and ``residual``'s
    one difference.  A real ``x`` (an exactly real complex one included)
    and its blocks stay float64, so every product is real.
    """
    x = real_if_real(x)
    dim = local_dim**support
    # three arrays, not one (3, D, k) stack: freeing an array of the stack's size raised glibc's
    # mmap threshold past the per-block temporaries, which then stayed on the heap (peak RSS +0.4 MiB)
    pair, left, right = (np.empty((dim, len(x)), dtype=x.dtype) for _ in range(3))

    def side(sites, start, out):
        if len(sites) == 1:
            first = _placed_block(x, local_dim, sites[0], support, start, out)
        else:
            first = _pair_block(x, local_dim, sites[-2:], start, pair if len(sites) > 2 else out)
        return _word(x, local_dim, sites[:-2], first, out)

    def block_residual(start):
        rhs_block = side(rhs, start, right)
        rhs_block *= scale
        return residual(side(lhs, start, left), rhs_block)

    return fold(block_residual(start) for start in range(0, dim, len(x)))


def _far_pairs(n_gens: int):
    """1-based (i, j) with j >= i+2, in report order."""
    return [(i, j) for i in range(1, n_gens + 1) for j in range(i + 2, n_gens + 1)]


def yang_baxter_check(r: np.ndarray, local_dim: int, tol: float = DEFAULT_TOL) -> Report:
    """(R x 1)(1 x R)(R x 1) = (1 x R)(R x 1)(1 x R) on the triple space."""
    r = np.asarray(r)
    if r.shape != (local_dim**2, local_dim**2):
        raise ValueError(f"R must be {local_dim ** 2} square, got {r.shape}")
    rep = Report("ybe", {"local_dim": local_dim}, tolerance=tol)
    rep.add("triple-products", _relation_residual(r, local_dim, 3, (0, 1, 0), (1, 0, 1)))
    return rep


def braid_rep_check(
    n_strands: int,
    epsilon: int = 1,
    eta: int = 1,
    gate: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Braid relations b_i b_{i+1} b_i = b_{i+1} b_i b_{i+1} and far commutativity.

    Every b_i is the same gate on sites (i, i+1), so each relation is
    evaluated once on the joint support (8x8 for neighbours, 16x16 for far
    pairs) and its residual reported under every i's case id.  Both sides
    of a far pair are the same outer product ``x[:, b] x X``
    (``_pair_block``), so far-commute reads exactly 0.0 for any finite
    gate and fails only on a NaN or inf entry.
    """
    params = {"strands": n_strands}
    if gate is None:
        gate = bell_transform(epsilon, eta)
        params.update(eps=epsilon, eta=eta)
    braid_res = _relation_residual(gate, 2, 3, (0, 1, 0), (1, 0, 1))
    far_res = _relation_residual(gate, 2, 4, (0, 2), (2, 0))
    rep = Report("braid-rep", params, tolerance=tol)
    for i in range(1, n_strands - 1):
        rep.add(f"braid({i},{i + 1})", braid_res)
    for i, j in _far_pairs(n_strands - 1):
        rep.add(f"far-commute({i},{j})", far_res)
    return rep


# ---------------------------------------------------------------------------
# Temperley-Lieb


@dataclass
class TLRep:
    """Temperley-Lieb generators e_i = 1^(i-1) x proj x 1^(n-i-1), i = 1..n-1,
    on n strands of dimension d, held as the d^2 x d^2 projector alone."""

    n: int
    d: int
    proj: np.ndarray


def tl_generators(
    n_strands: int,
    d: int,
    label: tuple[int, int] = (0, 0),
    m: np.ndarray | None = None,
) -> TLRep:
    """e_i = 1^(i-1) x |state><state| x 1^(n-i-1) from a two-qudit Bell state.

    With M supplied the projector is built on the normalized
    (M U_a x 1)|Omega>; for unitary M this is |M Omega(a)> itself.
    """
    state = qudit_bell(d, *label)
    if m is not None:
        state = bell_vector(np.asarray(m, dtype=complex) @ word(*label, d=d).dense())
        state = state / np.linalg.norm(state)
    return TLRep(n_strands, d, np.outer(state, state.conj()))


def tl_relation_check(rep_tl: TLRep, tol: float = DEFAULT_TOL) -> Report:
    """e_i^2 = e_i, e_i e_{i+-1} e_i = d^-2 e_i, far commutation (loop parameter d).

    Each relation is evaluated once on the generators' joint support: the
    idempotent on d^2, the TL pair on d^3, far commutation on d^4.  Every
    e_i is the same projector on sites (i, i+1), so the residual is the
    same for every i and is reported under each i's case id, in the order
    and number of the full-space check.  Far commutation builds both sides
    as the same outer product (``_pair_block``), so it reads exactly 0.0
    for any finite projector and fails only on a NaN or inf entry.
    """
    p, d = rep_tl.proj, rep_tl.d
    inv_d2 = 1.0 / d**2
    idem_res = residual(p @ p, p)
    fwd_res = _relation_residual(p, d, 3, (0, 1, 0), (0,), inv_d2)
    back_res = _relation_residual(p, d, 3, (1, 0, 1), (1,), inv_d2)
    far_res = _relation_residual(p, d, 4, (0, 2), (2, 0))
    n_gens = rep_tl.n - 1
    rep = Report("tl-relations", {"strands": rep_tl.n, "d": d}, tolerance=tol)
    for i in range(1, n_gens + 1):
        rep.add(f"idempotent e{i}", idem_res)
    for i in range(1, n_gens):
        rep.add(f"tl({i},{i + 1})", fwd_res)
        rep.add(f"tl({i + 1},{i})", back_res)
    for i, j in _far_pairs(n_gens):
        rep.add(f"far-commute({i},{j})", far_res)
    return rep


# ---------------------------------------------------------------------------
# braid teleportation


def _teleport_lhs(gate_r: np.ndarray, gate_l: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``(gate_r x 1)(1 x gate_l)`` on ``states``, a ``psi x ket`` vector or a column stack of them.

    ``gate_l`` acts on the ket, then ``gate_r`` on psi and the ket's first
    half; each is one ``apply_local`` over every column.
    """
    return apply_local(gate_r, apply_local(gate_l, states, states.shape[0] // gate_l.shape[0]))


def _label_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(4^n, n)`` bit arrays ``a`` and ``b`` of every label ``(a, b)``, in ``all_labels(n)`` order."""
    labels = np.arange(4**n)[:, None]
    shifts = np.arange(n - 1, -1, -1)
    return (labels >> (n + shifts)) & 1, (labels >> shifts) & 1


def _signed_images(eps, eta, a: np.ndarray, b: np.ndarray):
    """Per label: ``z = a'`` and ``x = b'`` of the per-pair images as big-endian integers, and
    the summed sign exponent mod 2, for ``(K, n)`` bits and one sign pair per qubit pair."""
    ap, bp = bell_bijection(eps, eta, a, b)
    weights = 1 << np.arange(a.shape[1] - 1, -1, -1)
    return ap @ weights, bp @ weights, sign_exponent(eps, eta, a, b).sum(axis=1) & 1


def outcome_table(eps_l, eta_l, eps_r, eta_r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents ``(z, x, g)`` of the correction words, resource kets by outcomes.

    Entry ``[ab, alpha beta]`` (both in ``all_labels(n)`` order, n the
    number of sign pairs per side) is the word ``(-1)^g T(z, x)`` equal to
    ``(-1)^(f_l + f_r) T^dag(a'b') T^dag(alpha'beta')``.  The product of
    two words adds their exponents mod 2, so ``z = z_ab xor z_out`` and
    ``x = x_ab xor x_out``; g collects f_l, f_r, ``popcount(z & x)`` of each
    dagger and ``popcount(x_ab & z_out)`` of moving X past Z, mod 2.
    """
    eps_l, eta_l, eps_r, eta_r = (np.asarray(s) for s in (eps_l, eta_l, eps_r, eta_r))
    a, b = _label_bits(eps_l.size)
    z_ab, x_ab, f_l = _signed_images(eps_l, eta_l, a, b)
    z_out, x_out, f_r = _signed_images(eps_r, eta_r, a, b)
    g = (
        (np.bitwise_count(z_ab & x_ab) + f_l)[:, None]
        + np.bitwise_count(z_out & x_out) + f_r
        + np.bitwise_count(x_ab[:, None] & z_out)
    )
    return z_ab[:, None] ^ z_out, x_ab[:, None] ^ x_out, g & 1


def _teleport_rhs(table, psi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(1/D) sum_out |rows[out]> x U(ab, out) psi`` for each resource ket ab of ``table``.

    ``table`` holds ``(R, K)`` word exponents (``outcome_table`` or some of
    its rows) and ``rows[out]`` is the product ket of outcome ``out``.  The
    ``(R, K)`` stack of words acts on psi, ``(D,)`` or ``(D, P)``, in one
    ``apply``, and each product lands in its outcome's block of one ``(R,
    K * D, ...)`` array.
    """
    z, x, g = (t[..., None] for t in table)
    dim = psi.shape[0]
    out = np.zeros(z.shape[:2] + psi.shape, dtype=complex)
    out[:, rows] = word(z, x, g, n=dim.bit_length() - 1).apply(psi) / dim
    return out.reshape((len(z), -1) + psi.shape[1:])


def _product_rows(n: int, blocked: bool) -> np.ndarray:
    """Row of each label's product ket ``|a1 b1 ... an bn>``, moved by the twist in the blocked form."""
    a, b = _label_bits(n)
    rows = sum((a[:, k] << (2 * (n - k) - 1)) | (b[:, k] << (2 * (n - k) - 2)) for k in range(n))
    return twist_monomial(n).perm[rows] if blocked else rows


def correction_abc(eps_l: int, eta_l: int, eps_r: int, eta_r: int, k, m, i, j):
    """Exponents (a, b, c) of the single-qubit correction (-1)^a X^b Z^c; bits broadcast."""
    kp, mp = bell_bijection(eps_l, eta_l, k, m)
    ip, jp = bell_bijection(eps_r, eta_r, i, j)
    a = (
        sign_exponent(eps_l, eta_l, k, m)
        ^ sign_exponent(eps_r, eta_r, i, j)
        ^ (kp & jp)
    )
    return a, jp ^ mp, ip ^ kp


def table1_abc(eps_l: int, eta_l: int, k, m, i, j):
    """The published closed forms for (a, b, c) when eps_r = -eps_l, eta_r = -eta_l; bits broadcast."""
    b = i ^ j ^ k ^ m
    if (eps_l, eta_l) == (-1, 1):
        return (i & j) ^ ((m ^ 1) & (i ^ j ^ k)), b, j ^ m ^ 1
    if (eps_l, eta_l) == (1, -1):
        return (i & (j ^ 1)) ^ (m & (i ^ j ^ k)), b, j ^ m ^ 1
    if (eps_l, eta_l) == (1, 1):
        return i ^ ((k ^ 1) & (i ^ j)), b, i ^ k ^ 1
    return k & (i ^ j ^ 1), b, i ^ k ^ 1


def table1_check() -> Report:
    """Exact agreement of the closed-form exponent table, 16 bit cases per row."""
    rep = Report("table1", {}, tolerance=0.5)
    bits = np.indices((2,) * 4).reshape(4, -1)  # k, m, i, j
    for eps_l, eta_l in product(_SIGNS, repeat=2):
        got = np.stack(correction_abc(eps_l, eta_l, -eps_l, -eta_l, *bits))
        want = np.stack(table1_abc(eps_l, eta_l, *bits))
        rep.add(f"row (eps,eta)=({eps_l},{eta_l})", float(np.any(got != want, axis=0).sum()))
    return rep


def braid_teleport_single_check(
    eps_l: int,
    eta_l: int,
    eps_r: int,
    eta_r: int,
    k: int,
    m: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Single-qubit braid teleportation equation for one resource ket |km>.

    LHS: (B(-eps_r, -eta_r) x 1)(1 x B(eps_l, eta_l)) on psi x |km>, as two
    applications of the 4x4 gates to the ket, for psi = |0>, |1> and a
    random state at once.  RHS: (1/2) sum |ij> x U psi with U the signed
    word correction, row ``|km>`` of ``outcome_table``; the
    (-1)^a X^b Z^c route must agree with the word route exactly.
    """
    _check_sign(eps_l, eta_l, eps_r, eta_r)
    rng = np.random.default_rng(seed)
    rep = Report(
        "braid-teleport-single",
        {"eps_l": eps_l, "eta_l": eta_l, "eps_r": eps_r, "eta_r": eta_r, "k": k, "m": m},
        tolerance=tol,
        seed=seed,
    )
    b_l, b_r = bell_transform(eps_l, eta_l), bell_transform(-eps_r, -eta_r)
    table = [t[[2 * k + m]] for t in outcome_table((eps_l,), (eta_l,), (eps_r,), (eta_r,))]
    psis = np.stack([product_ket((0,)), product_ket((1,)), random_state(2, rng)], axis=1)
    lhs = _teleport_lhs(b_r, b_l, np.kron(psis, product_ket((k, m))[:, None]))
    rhs = _teleport_rhs(table, psis, _product_rows(1, False))[0]
    rep.add("equation (basis + random psi)", residual(lhs, rhs))

    i, j = (bits[:, 0] for bits in _label_bits(1))
    a, b, c = correction_abc(eps_l, eta_l, eps_r, eta_r, k, m, i, j)
    eye, x, z = (pauli_gate(name) for name in "IXZ")
    x_b, z_c = (np.where(e[:, None, None] == 1, gate, eye) for e, gate in ((b, x), (c, z)))
    u_abc = (1.0 - 2.0 * a)[:, None, None] * x_b @ z_c
    rep.add("abc-route-equals-word-route", residual(word(*(t.T for t in table), n=1).dense(), u_abc))
    return rep


def twisted_yb_gates(n: int, eps, eta, kind: str = "plain") -> np.ndarray:
    """tau . tensor_i B(eps_i, eta_i), optionally conjugated back by tau^dag.

    The conjugated kind solves the Yang-Baxter equation on local
    dimension 2^n; the plain kind does not (it is the gate that appears
    in the multi-qubit braid teleportation equation).  tau is applied as
    a monomial, and tau^dag on the right as ``(tau G^dag)^dag``.
    """
    eps = tuple(eps)
    eta = tuple(eta)
    if len(eps) != n or len(eta) != n:
        raise ValueError("need one (eps, eta) pair per qubit pair")
    _check_sign(*eps, *eta)
    tau = twist_monomial(n)
    gate = tau @ reduce(np.kron, [bell_transform(e, t) for e, t in zip(eps, eta)])
    if kind == "plain":
        return gate
    if kind == "conjugated":
        return dagger(tau @ dagger(gate))
    raise ValueError("kind must be 'plain' or 'conjugated'")


def braid_teleport_multi_check(
    n: int,
    eps_l,
    eta_l,
    eps_r,
    eta_r,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    blocked: bool = False,
) -> Report:
    """Multi-qubit braid teleportation equation on the full 8^n-dim vector, every resource ket.

    Interleaved form uses the plain twisted gates on |a1 b1 ... an bn>;
    the blocked form conjugates the gates by the twist and feeds the
    blocked ket tau|ab>.  Correction per outcome is the signed word
    T^dag(a'b') T^dag(alpha' beta') with the per-pair sign exponents, read
    from ``outcome_table``.  Both gates are built once: the left-hand sides
    of all 4^n kets are one column stack, and one case per ket is reported.
    """
    eps_l, eta_l = tuple(eps_l), tuple(eta_l)
    eps_r, eta_r = tuple(eps_r), tuple(eta_r)
    rng = np.random.default_rng(seed)
    kind = "conjugated" if blocked else "plain"
    gate_l = twisted_yb_gates(n, eps_l, eta_l, kind)
    gate_r = twisted_yb_gates(n, eps_r, eta_r, kind)
    table = outcome_table(eps_l, eta_l, eps_r, eta_r)
    rows = _product_rows(n, blocked)

    rep = Report(
        "braid-teleport-multi",
        {
            "n": n,
            "eps_l": str(eps_l),
            "eta_l": str(eta_l),
            "eps_r": str(eps_r),
            "eta_r": str(eta_r),
            "form": "blocked" if blocked else "interleaved",
        },
        tolerance=tol,
        seed=seed,
    )
    psi = random_state(2**n, rng)
    kets = identity(len(rows))[:, rows]
    lhs = _teleport_lhs(dagger(gate_r), gate_l, np.kron(psi[:, None], kets))
    residuals = np.abs(lhs.T - _teleport_rhs(table, psi, rows)).max(axis=1)
    for (a_bits, b_bits), res in zip(all_labels(n), residuals):
        rep.add(f"a={a_bits} b={b_bits}", res)
    return rep
