"""Dense, complex, symbolic and per-label reference forms that only the tests use.

The library applies local operators with ``linalg.apply_local`` and never
forms ``op x 1`` as a matrix; the tests build that Kronecker form here, as
an oracle to compare against.  The same holds for the braid-teleportation
right-hand side, built here one symbolic outcome word at a time, for the
relation kernel applied to identity blocks (the library gathers each
side's first factor) and with every operand forced complex, for the reduced
completeness of the basis theorem, one pair (i, j) at a time, for the
teleportation equations, one Bell label or outcome at a time, and for the
Haar-sampled basis-theorem and observable suites, one draw, Gram and
conjugation at a time, with the conjugated dense states ``M~ S`` that the
library no longer forms (it checks a conjugated observable on the extended
family).  The library holds the Bell family as one stacked
``Monomial`` of its words; the dense ``(K, D, D)`` stack of the words,
scattered here by hand, the ``K x D^2`` stack of their states and the
GEMMs over them that the family's readers ran before (the Gram matrix
and the projector sum) are here, as oracles.  The symbolic words (``PauliWord``, ``GenPauliWord``)
with their algebra of products and adjoints, the dense gate table
(``pauli_gate``: I, X, Z and H), the circuit unitary built gate by gate
from Kronecker products, the Walsh-Hadamard transform by ``take`` and
``np.stack`` (the library's runs in place) and the Bell-basis
reconstruction, one label at a time, live here too: the library reaches
none of them.
The library builds every word from integer exponents (``pauli.word``);
``word_matrix`` and its kin read a symbolic word into that call.  The
basis-group candidate sets of the tests are written as dense matrices
and read into a stacked ``Monomial`` by ``monomial_of``, which refuses a
non-monomial member; the dense oracle multiplies two members entry by
entry (``monomial_matmul``).
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from bellkit.bell import all_labels, bell_unitaries, bell_vector, multi_bell, product_ket, twist_monomial
from bellkit.braid import _word
from bellkit.linalg import DEFAULT_TOL, Monomial, apply_local, dagger, fold, identity, real_if_real, residual
from bellkit.pauli import as_bits, bits_to_int, word
from bellkit.report import Report
from bellkit.verify import (
    conjugated_observables,
    extend_basis,
    qudit_observables,
    reduced_completeness as batched_reduced_completeness,
)


def kron(*factors) -> np.ndarray:
    """Left-to-right Kronecker product, row-major block convention."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def twist(n: int) -> np.ndarray:
    """The dense permutation unitary of ``twist_monomial(n)``."""
    return twist_monomial(n).dense()


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dagger b) / d for d x d matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hs_inner requires equal square shapes, got {a.shape}, {b.shape}")
    return complex(np.trace(a.conj().T @ b) / a.shape[0])


# ---------------------------------------------------------------------------
# symbolic words, their algebra and the Bell-basis reconstruction


@dataclass(frozen=True)
class PauliWord:
    """(-1)^sign * tensor_k Z^{z_k} X^{x_k} over n qubits."""

    z_exps: tuple[int, ...]
    x_exps: tuple[int, ...]
    sign: int = 0

    def __post_init__(self):
        object.__setattr__(self, "z_exps", as_bits(self.z_exps))
        object.__setattr__(self, "x_exps", as_bits(self.x_exps, len(self.z_exps)))
        object.__setattr__(self, "sign", int(self.sign) & 1)

    @property
    def n(self) -> int:
        return len(self.z_exps)


@dataclass(frozen=True)
class GenPauliWord:
    """omega^gamma * Z^alpha X^beta over one qudit of dimension d."""

    d: int
    alpha: int
    beta: int
    gamma: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("local dimension must be at least 2")
        object.__setattr__(self, "alpha", self.alpha % self.d)
        object.__setattr__(self, "beta", self.beta % self.d)
        object.__setattr__(self, "gamma", self.gamma % self.d)


# Adaptors: each reads a symbolic word's exponents into ``pauli.word``.


def word_monomial(w: PauliWord):
    return word(bits_to_int(w.z_exps), bits_to_int(w.x_exps), w.sign, n=w.n)


def word_matrix(w: PauliWord) -> np.ndarray:
    return word_monomial(w).dense()


def gen_word_monomial(w: GenPauliWord):
    return word(w.alpha, w.beta, w.gamma, d=w.d)


def gen_word_matrix(w: GenPauliWord) -> np.ndarray:
    return gen_word_monomial(w).dense()


def gen_x(d: int) -> np.ndarray:
    """Cyclic shift: X|i> = |i + 1 mod d>."""
    return word(0, 1, d=d).dense()


def gen_z(d: int) -> np.ndarray:
    """Clock matrix diag(1, omega, ..., omega^(d-1))."""
    return word(1, 0, d=d).dense()


def bit_xor(a, b) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b, strict=True))


def bit_dot(a, b) -> int:
    """Dot product of two bit strings modulo 2."""
    return sum(x * y for x, y in zip(a, b, strict=True)) % 2


def word_dagger(w: PauliWord) -> PauliWord:
    # T^dagger(ab) = (-1)^(a.b) T(ab), so only the sign exponent moves.
    return PauliWord(w.z_exps, w.x_exps, w.sign ^ bit_dot(w.z_exps, w.x_exps))


def word_mul(a: PauliWord, b: PauliWord) -> PauliWord:
    """Exact symbolic product; matches the matrix product entry for entry."""
    if a.n != b.n:
        raise ValueError(f"word length mismatch: {a.n} vs {b.n}")
    # Per factor, X^{x_a} Z^{z_b} = (-1)^{x_a z_b} Z^{z_b} X^{x_a}.
    cross = sum(xa * zb for xa, zb in zip(a.x_exps, b.z_exps)) % 2
    return PauliWord(
        bit_xor(a.z_exps, b.z_exps),
        bit_xor(a.x_exps, b.x_exps),
        a.sign ^ b.sign ^ cross,
    )


def gen_word_dagger(w: GenPauliWord) -> GenPauliWord:
    # (omega^g Z^a X^b)^dagger = omega^(-g - a b) Z^(-a) X^(-b)  (mod d).
    return GenPauliWord(w.d, -w.alpha, -w.beta, -w.gamma - w.alpha * w.beta)


def gen_word_mul(a: GenPauliWord, b: GenPauliWord) -> GenPauliWord:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    # X^{b_a} Z^{a_b} = omega^(-b_a a_b) Z^{a_b} X^{b_a}.
    return GenPauliWord(
        a.d,
        a.alpha + b.alpha,
        a.beta + b.beta,
        a.gamma + b.gamma - a.beta * b.alpha,
    )


def walsh_hadamard(rows, n):
    """``H @ rows`` with ``H[a, j] = (-1)^(a.j)`` over n bits, each butterfly a new array from two ``take``s."""
    out = rows.reshape((2,) * n + rows.shape[1:])
    for k in range(n):
        lo, hi = out.take(0, axis=k), out.take(1, axis=k)
        out = np.stack((lo + hi, lo - hi), axis=k)
    return out.reshape(rows.shape)


def reconstruct(amps, n):
    """``sum_ab amps[a, b] B(ab)``: the state whose ``expand_in_bell_basis`` is ``amps``."""
    return sum(amps[bits_to_int(a), bits_to_int(b)] * multi_bell(n, a, b) for a, b in all_labels(n))


# ---------------------------------------------------------------------------
# circuits, one Kronecker-product gate at a time


GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / np.sqrt(2.0)),
}


def pauli_gate(name: str) -> np.ndarray:
    """A copy of one dense qubit gate of ``GATES``."""
    try:
        return GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}, expected one of I, X, Z, H") from None


def dense_permutation_matrix(perm, local_dim=2):
    k = len(perm)
    dim = local_dim**k
    mat = np.zeros((dim, dim), dtype=complex)
    weights = [local_dim ** (k - 1 - q) for q in range(k)]
    for digits in product(range(local_dim), repeat=k):
        src = sum(d * w for d, w in zip(digits, weights))
        tgt_digits = [0] * k
        for q, d in enumerate(digits):
            tgt_digits[perm[q]] = d
        tgt = sum(d * w for d, w in zip(tgt_digits, weights))
        mat[tgt, src] = 1.0
    return mat


def dense_circuit_matrix(circ):
    """The unitary of any circuit, H included: each gate's ``1 x gate x 1`` multiplied in, first gate first."""
    def embed(ops):
        return kron(*[ops.get(q, identity(2)) for q in range(circ.wires)])

    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    mat = identity(2**circ.wires)
    for name, qs in circ.gates:
        if name in ("H", "X", "Z"):
            gate = embed({qs[0]: pauli_gate(name)})
        elif name == "CNOT":
            gate = embed({qs[0]: p0}) + embed({qs[0]: p1, qs[1]: pauli_gate("X")})
        else:
            perm = list(range(circ.wires))
            perm[qs[0]], perm[qs[1]] = perm[qs[1]], perm[qs[0]]
            gate = dense_permutation_matrix(perm)
        mat = gate @ mat
    return mat


# ---------------------------------------------------------------------------
# braid teleportation, one outcome word at a time
#
# The library reads every correction word from one integer outcome table
# (``braid.outcome_table``); these are the per-label symbolic forms it
# replaced, with the sign table and bit bijection restated here so that
# the oracle does not share them with the code it checks.


def sign_exponent(epsilon, eta, i, j):
    """f(eps, eta, i, j) by cases, for one bit pair."""
    if (epsilon, eta) == (-1, -1):
        return i
    if (epsilon, eta) == (-1, 1):
        return i & (j ^ 1)
    if (epsilon, eta) == (1, -1):
        return i & j
    return 0


def bell_bijection(epsilon, eta, i, j):
    """(i, j) -> (i', j') for one bit pair."""
    jp = i ^ j
    ip = i ^ ((abs(epsilon - eta) // 2) * jp) ^ ((1 + eta) // 2)
    return ip & 1, jp


def signed_word(eps, eta, a_bits, b_bits):
    """The word of the per-pair images and the summed sign exponent mod 2."""
    pairs = list(zip(eps, eta, a_bits, b_bits, strict=True))
    primes = [bell_bijection(*p) for p in pairs]
    word = PauliWord(tuple(x[0] for x in primes), tuple(x[1] for x in primes))
    return word, sum(sign_exponent(*p) for p in pairs) % 2


def interleave(a_bits, b_bits):
    out = []
    for a, b in zip(a_bits, b_bits, strict=True):
        out.extend((a, b))
    return tuple(out)


def correction_word(word_ab, word_out):
    """T^dag(a'b') T^dag(alpha'beta') as one signed word."""
    return word_mul(word_dagger(word_ab), word_dagger(word_out))


def product_ket_of(a_bits, b_bits, blocked=False):
    """|a1 b1 ... an bn>, or tau applied to it in the blocked form."""
    ket = product_ket(interleave(a_bits, b_bits))
    return twist_monomial(len(a_bits)) @ ket if blocked else ket


def braid_teleport_rhs(eps_l, eta_l, eps_r, eta_r, a_bits, b_bits, psi, blocked=False):
    """(1/2^n) sum over outcomes of |alpha beta> x U psi, for resource |ab>, outcome by outcome."""
    n = len(a_bits)
    dim = 2**n
    word_ab, f_l = signed_word(eps_l, eta_l, a_bits, b_bits)
    out = np.zeros(dim**3, dtype=complex)
    for alpha, beta in all_labels(n):
        word_out, f_r = signed_word(eps_r, eta_r, alpha, beta)
        u = (-1.0) ** (f_l ^ f_r) * word_matrix(correction_word(word_ab, word_out))
        out += np.kron(product_ket_of(alpha, beta, blocked), u @ psi)
    return out / dim


# ---------------------------------------------------------------------------
# relation kernel on identity blocks, and with every operand complex


def identity_relation_residual(x, local_dim, support, lhs, rhs, scale=1.0):
    """``braid._relation_residual`` with each side applied, factor by factor, to identity blocks in ``x``'s dtype."""
    x = real_if_real(x)
    dim = local_dim**support
    width = x.shape[0]
    return fold(
        residual(_word(x, local_dim, lhs, eye), scale * _word(x, local_dim, rhs, eye))
        for eye in (np.eye(dim, width, -start, dtype=x.dtype) for start in range(0, dim, width))
    )


def complex_relation_residual(x, local_dim, support, lhs, rhs, scale=1.0):
    """``braid._relation_residual`` with ``x`` and its identity blocks forced complex."""
    x = np.asarray(x, dtype=complex)
    dim = local_dim**support
    width = x.shape[0]
    return fold(
        residual(_word(x, local_dim, lhs, eye), scale * _word(x, local_dim, rhs, eye))
        for eye in (np.eye(dim, width, -start, dtype=complex) for start in range(0, dim, width))
    )


# ---------------------------------------------------------------------------
# the Bell family as a dense stack, and the GEMM readers of that stack


def dense_words(words):
    """The ``(K, D, D)`` stack of the stacked ``words``, scattered by hand from its arrays."""
    rows, phase = words.perm, words.phase
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=phase.dtype)
    out[np.arange(len(rows))[:, None], rows, np.arange(rows.shape[-1])] = phase
    return out


def _entry_rows(mats):
    """The row of the one nonzero (or NaN) entry in each column of ``mats`` ``(..., D, D)``.

    A matrix with any other column is refused.
    """
    nonzero = np.asarray(mats) != 0
    if not (nonzero.sum(axis=-2) == 1).all():
        raise ValueError("not a monomial matrix: a column without exactly one nonzero entry")
    return np.argmax(nonzero, axis=-2)


def monomial_of(mats):
    """The stacked ``Monomial`` of the dense monomial matrices ``mats`` ``(N, D, D)``; any other member is refused."""
    mats = np.asarray(mats)
    rows = _entry_rows(mats)
    return Monomial(rows, np.take_along_axis(mats, rows[:, None], axis=1)[:, 0])


def monomial_matmul(a, b):
    """``a @ b`` for two dense monomial matrices, without BLAS and without forming 0 * x.

    Column c holds one entry, the left entry times the right entry:
    ``a[r, k] * b[k, c]``, k the row of column c's entry of b and r that of
    column k's entry of a.
    """
    ra, rb = _entry_rows(a), _entry_rows(b)
    cols = np.arange(len(b))
    out = np.zeros(np.shape(a), dtype=np.result_type(a, b))
    out[ra[rb], cols] = a[ra[rb], rb] * b[rb, cols]
    return out


def dense_unitaries(d=None, n=None):
    """The Bell family's ``(K, D, D)`` stack of words, one ``word`` at a time (not from ``bell_unitaries``)."""
    shape = (d, d) if d is not None else (2**n, 2**n)
    return np.stack([word(a, b, n=n, d=d).dense() for a, b in np.ndindex(shape)])


def dense_states(words):
    """The ``(K, D^2)`` stack of the Bell states ``(U_a x 1)|Omega>`` of the stacked ``words``."""
    return bell_vector(dense_words(words))


def qudit_states(d):
    """Labels and dense Bell states, as columns, of the qudit family: the eigenvectors of ``verify.qudit_observables``."""
    labels, words = bell_unitaries(d=d)
    return labels, bell_vector(words.dense()).T


def gram(states):
    """``<s_i|s_j>`` of a ``(..., K, D)`` stack of states, as one GEMM."""
    return states.conj() @ np.swapaxes(states, -1, -2)


def dense_gram(words):
    """The Gram matrix of a family of words, one GEMM over its dense states."""
    return gram(dense_states(words))


def dense_projector_sum(words):
    """``sum_a |s_a><s_a|`` of a family of words, one GEMM over its dense states."""
    states = dense_states(words)
    return states.T @ states.conj()


def dense_extend(words, m, side):
    """``M U_a`` (left) or ``U_a M`` (right) for every word, by batched products with the dense stack."""
    stack = dense_words(words)
    return m @ stack if side == "left" else stack @ m


def dense_trace_system(n):
    """``tr(I T(ab))`` rows over the row-major unknowns of I, read off the dense words."""
    words = dense_unitaries(n=n)
    return words.real.transpose(0, 2, 1).reshape(len(words), -1)


def dense_eigen_residuals(matrix, states, eigenvalues):
    """``max|O s_a - lam_a s_a|`` of each dense state ``s_a``, a column of ``states``, for a dense or monomial O."""
    return np.abs(matrix @ states - states * eigenvalues).max(axis=0)


# ---------------------------------------------------------------------------
# basis theorem, one pair at a time


def reduced_completeness(unitaries, m):
    """Worst residual of (1/d) sum_a U_a M |i><j| M^dag U_a^dag = (M^dag M)_ji 1, pair by pair."""
    local = m.shape[0]
    mdm = m.conj().T @ m
    adjoints = unitaries.conj().transpose(0, 2, 1)
    reduced = []
    for i in range(local):
        for j in range(local):
            eij = np.zeros((local, local), dtype=complex)
            eij[i, j] = 1.0
            total = (unitaries @ m @ eij @ m.conj().T @ adjoints).sum(axis=0)
            reduced.append(residual(total / local, mdm[j, i] * np.eye(local)))
    return fold(reduced)


# ---------------------------------------------------------------------------
# teleportation equations, one label or outcome at a time, from the dense words


def dense_setting(setting):
    """The setting's dense ``(K, D, D)`` words ``U_a`` and ``(K, D^2)`` measurement vectors."""
    forward = dense_words(setting.words)
    return forward, bell_vector(forward @ setting.m.T if setting.form == 22 else forward)


def dense_resource(setting, forward, b):
    t_b = forward[b]
    return bell_vector(setting.m @ t_b if setting.form == 22 else t_b @ setting.m.T)


def dense_receivers(setting, forward, psi, b, corrupt=False):
    """The K x D receivers ``[M] U_b^T U_a^dag psi`` (``U_a psi`` when ``corrupt``), by products with the dense words."""
    undone = forward @ psi if corrupt else (psi.conj() @ forward).conj()
    outs = undone @ forward[b]
    return outs @ setting.m.T if setting.form == 11 else outs


def teleport_sides(setting, psi, b, corrupt=False):
    """The two sides at label index ``b``: one ``np.kron`` and one (D^2, K) x (K, D) product."""
    forward, meas = dense_setting(setting)
    rhs = (meas.T @ dense_receivers(setting, forward, psi, b, corrupt)).reshape(-1) / setting.dim
    return np.kron(psi, dense_resource(setting, forward, b)), rhs


def projective_residuals(setting, psi):
    """The projective equation's residual at every outcome, two ``np.kron`` per outcome."""
    dim = setting.dim
    forward, meas = dense_setting(setting)
    prepared = np.kron(psi, dense_resource(setting, forward, 0)).reshape(dim * dim, dim)
    return [
        residual(np.kron(m_a, m_a.conj() @ prepared), np.kron(m_a, receiver) / dim)
        for m_a, receiver in zip(meas, dense_receivers(setting, forward, psi, 0))
    ]


def protocol_rows(setting, psi, resource=None):
    """``protocol_outcomes`` one label at a time: a dense branch, norm and correction ``U_a M^dag`` each."""
    dim = setting.dim
    forward, meas = dense_setting(setting)
    if resource is None:
        resource = dense_resource(setting, forward, 0)
    prepared = np.kron(psi, resource).reshape(dim * dim, dim)
    rows = []
    for label, u, m_a in zip(setting.labels, forward, meas):
        branch = m_a.conj() @ prepared
        prob = float(np.linalg.norm(branch) ** 2)
        corrected = u @ dagger(setting.m) @ (branch / np.linalg.norm(branch))
        rows.append((label, prob, float(abs(np.vdot(psi, corrected))), corrected))
    return rows


# ---------------------------------------------------------------------------
# Haar-sampled suites, one draw, Gram and conjugation at a time
#
# The library draws, factors and checks its Haar samples as stacks; these
# are the single-matrix samplers and per-trial loops it replaced.


def haar_one(dim, rng):
    """One Haar unitary: QR of a complex Gaussian, real part drawn first, R diagonal phase-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def perturbed_one(dim, rng, min_dev=0.1):
    """One Haar unitary plus a Gaussian perturbation doubled until ||M^dag M - 1||_2 >= min_dev."""
    u = haar_one(dim, rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g *= min_dev / np.linalg.norm(g, 2)
    while True:
        m = u + g
        if np.linalg.norm(m.conj().T @ m - np.eye(dim), 2) >= min_dev:
            return m
        g *= 2.0


def basis_theorem_loop(d=None, n=None, trials=20, seed=0, tol=DEFAULT_TOL, fail_floor=1e-3):
    """``verify.basis_theorem_suite`` with two draws and two Grams per trial and side."""
    labels, words = bell_unitaries(d, n)
    local = words.dim
    rng = np.random.default_rng(seed)
    size = {"n": n} if d is None else {"d": d}
    rep = Report("basis-theorem", {**size, "trials": trials}, tolerance=tol, seed=seed)
    eye_k = np.eye(len(labels))
    for side in ("left", "right"):
        unitary_res, nonunitary_res = np.empty(trials), np.empty(trials)
        for t in range(trials):
            u = haar_one(local, rng)
            unitary_res[t] = residual(gram(extend_basis(words, u, side)), eye_k)
            m = perturbed_one(local, rng)
            nonunitary_res[t] = residual(gram(extend_basis(words, m, side)), eye_k)
        worst = fold(unitary_res)
        witness = f" witness=trial {np.argmax(unitary_res)}" if not worst < tol else ""
        rep.add(f"unitary-extensions-{side} ({trials} trials){witness}", worst)
        best = fold(nonunitary_res, np.min, np.inf)
        witness = f" witness=trial {np.argmin(nonunitary_res)}" if not best >= fail_floor else ""
        rep.add_expect_fail(f"nonunitary-extensions-{side} ({trials} trials){witness}", best, fail_floor)
    general = rng.standard_normal((local, local)) + 1j * rng.standard_normal((local, local))
    rep.add("reduced-completeness (general M)", batched_reduced_completeness(words, general))
    rep.add("vacuous-one-sided-unitarity", 0.0)
    return rep


def observable_check(matrix, states, eigenvalues, labels, tol=DEFAULT_TOL):
    """One observable's hermiticity and eigenequation residuals on the columns ``states``, as a two-case report."""
    rep = Report("observable", {"states": len(labels)}, tolerance=tol)
    per_state = dense_eigen_residuals(matrix, states, eigenvalues)
    eig = fold(per_state)
    rep.add("hermitian", residual(matrix, dagger(matrix)))
    rep.add(f"eigenequations ({len(labels)} states){label_witness(labels, per_state, eig, tol)}", eig)
    return rep


def label_witness(labels, per_state, eig, tol):
    """`` witness=<label>`` of the first NaN, else first worst, state of a failing observable, by hand."""
    if eig < tol:
        return ""
    label = labels[np.argmax(per_state)]
    return " witness=(" + ",".join("".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in label) + ")"


def conjugated_states(states, m, side):
    """The conjugated dense columns ``M~ S``: M on the first qudit of each state (left), or M^T on the second (right).

    They are the family extended by M on that side (``extend_basis``),
    read through ``apply_local`` from the dense states instead of the words.
    """
    op, before = (m, 1) if side == "left" else (np.swapaxes(m, -1, -2), m.shape[-1])
    return apply_local(op, states, before)


def conjugated_spec(matrix, words, m, side):
    """``conjugated_observables(matrix, m, side)`` and its eigenvectors as columns, the family ``words`` extended by M.

    The eigenvalues are those of ``matrix``.
    """
    return conjugated_observables(matrix, m, side), extend_basis(words, m, side).T


def qudit_observable_loop(d, k=0, conjugated=0, seed=0, tol=DEFAULT_TOL):
    """``verify.qudit_observable_suite`` with one draw and one conjugation per round and side.

    Each conjugated observable is checked on the family extended by its M
    (``conjugated_spec``), and names no witness.
    """
    params = {"d": d, "conjugated": conjugated, **({"k": k} if k else {})}
    rep = Report("qudit-observables", params, tolerance=tol, seed=seed)
    rng = np.random.default_rng(seed)
    labels, words = bell_unitaries(d=d)
    states = bell_vector(words.dense()).T

    def add(name, matrix, eigenvectors, eigenvalues, witness=True):
        per_state = dense_eigen_residuals(matrix, eigenvectors, eigenvalues)
        eig = fold(per_state)
        suffix = label_witness(labels, per_state, eig, tol) if witness else ""
        rep.add(name + suffix, fold((residual(matrix, dagger(matrix)), eig)))

    for order in [k] if k else range(1, d):
        for name, op, lam in qudit_observables(d, order):
            add(name, op, states, lam)
            for _ in range(conjugated):
                for side in ("left", "right"):
                    turned, extended = conjugated_spec(op, words, haar_one(d, rng), side)
                    add(f"{name}|{side}-conjugated", turned, extended, lam, witness=False)
    return rep
