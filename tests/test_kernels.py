"""Structured kernels against the dense constructions they replaced.

Every oracle here is the Kronecker-product or digit-loop form the library
used before its kernels were rewritten by reshape, scatter and transform,
or before braid and Temperley-Lieb relations moved to the generators'
joint support.
The oracles live only in this file.  Where every entry compared is 0 or
+-1 the two routes must agree exactly; elsewhere to 1e-15, which is a few
ulps of the O(1) entries involved.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.bell import (
    Circuit,
    bell_vector,
    concurrence,
    expand_in_bell_basis,
    multi_bell,
    omega,
    qudit_bell,
    twist,
)
from bellkit.braid import bell_transform, braid_rep_check, tl_generators, tl_relation_check
from bellkit.linalg import (
    haar_unitary,
    identity,
    permutation_matrix,
    random_state,
    residual,
    tensor,
    tensor_all,
)
from bellkit.pauli import (
    GenPauliWord,
    PauliWord,
    gen_word_matrix,
    gen_x,
    omega_root,
    pauli_gate,
    word_dagger,
    word_matrix,
    word_mul,
)
from bellkit.teleport import (
    QUDIT_VARIANTS,
    UNITARY_M_REQUIRED,
    TeleportEqCase,
    _assemble,
    _outcomes,
    protocol_outcomes,
)
from bellkit.verify import perturbed_nonunitary

FAST = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# dense oracles


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


def dense_word_matrix(w):
    z, x = pauli_gate("Z"), pauli_gate("X")
    factors = [
        np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
        for a, b in zip(w.z_exps, w.x_exps)
    ]
    return (-1.0) ** w.sign * tensor_all(factors)


def dense_gen_word_matrix(w):
    zpow = np.diag([omega_root(w.d, i * w.alpha) for i in range(w.d)])
    xpow = np.linalg.matrix_power(gen_x(w.d), w.beta)
    return omega_root(w.d, w.gamma) * (zpow @ xpow)


def dense_bell(t, m=None):
    dim = t.shape[0]
    return tensor(t, identity(dim) if m is None else m) @ omega(dim)


def dense_multi_bell(n, a, b):
    return dense_bell(dense_word_matrix(PauliWord(a, b)))


def dense_expand(state, n):
    dim = 2**n
    amps = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            label = PauliWord(tuple(map(int, f"{a:0{n}b}")), tuple(map(int, f"{b:0{n}b}")))
            amps[a, b] = np.vdot(dense_bell(dense_word_matrix(label)), state)
    return amps


def dense_circuit_matrix(circ):
    def embed(ops):
        return tensor_all([ops.get(q, identity(2)) for q in range(circ.wires)])

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


def dense_rhs(case, corrupt=False):
    """Sum over outcomes of kron(meas, out), every vector built by Kronecker products."""
    m, psi = case.m, case.psi
    right = m if case.variant in UNITARY_M_REQUIRED else None
    eleven = right is None
    if case.variant in QUDIT_VARIANTS:
        dim = case.d
        ub = dense_gen_word_matrix(GenPauliWord(dim, *case.label))
        terms = []
        for a, b in product(range(dim), repeat=2):
            ua = dense_gen_word_matrix(GenPauliWord(dim, a, b))
            undo = ua if corrupt else ua.conj().T
            terms.append((dense_bell(ua, right), ub.T @ undo @ psi))
    else:
        dim = 2**case.n
        left = word_dagger(PauliWord(*case.label))
        terms = []
        for a, b in product(product((0, 1), repeat=case.n), repeat=2):
            w = PauliWord(a, b)
            corr = dense_word_matrix(word_mul(left, w if corrupt else word_dagger(w)))
            terms.append((dense_bell(dense_word_matrix(w), right), corr @ psi))
    rhs = np.zeros(dim**3, dtype=complex)
    for meas, out in terms:
        rhs += np.kron(meas, m @ out if eleven else out)
    return rhs / dim


def dense_generators(n_strands, x, local_dim):
    """g_i = 1^(i-1) x X x 1^(n-i-1), i = 1..n-1, each a dense local_dim^n matrix."""
    eye = identity(local_dim)
    return [
        tensor_all([eye] * (i - 1) + [x] + [eye] * (n_strands - i - 1))
        for i in range(1, n_strands)
    ]


def dense_far_cases(gens):
    return [
        (f"far-commute({i + 1},{j + 1})", residual(gens[i] @ gens[j], gens[j] @ gens[i]))
        for i in range(len(gens))
        for j in range(i + 2, len(gens))
    ]


def dense_tl_cases(rep_tl):
    """(case id, residual) of every TL relation, on the full d^n space."""
    gens = dense_generators(rep_tl.n, rep_tl.proj, rep_tl.d)
    inv_d2 = 1.0 / rep_tl.d**2
    cases = [(f"idempotent e{i + 1}", residual(e @ e, e)) for i, e in enumerate(gens)]
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        cases.append((f"tl({i + 1},{i + 2})", residual(a @ b @ a, inv_d2 * a)))
        cases.append((f"tl({i + 2},{i + 1})", residual(b @ a @ b, inv_d2 * b)))
    return cases + dense_far_cases(gens)


def dense_braid_cases(n_strands, gate):
    """(case id, residual) of every braid relation, on the full 2^n space."""
    gens = dense_generators(n_strands, gate, 2)
    cases = [
        (f"braid({i + 1},{i + 2})", residual(gens[i] @ gens[i + 1] @ gens[i],
                                             gens[i + 1] @ gens[i] @ gens[i + 1]))
        for i in range(len(gens) - 1)
    ]
    return cases + dense_far_cases(gens)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def perms_and_dims(draw):
    """A digit permutation and a local dimension d <= 5, with d^k <= 1024."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4 if d == 5 else 5))
    return draw(st.permutations(list(range(k)))), d


@st.composite
def pauli_words(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return PauliWord(tuple(draw(bits)), tuple(draw(bits)), draw(st.integers(0, 1)))


@st.composite
def circuits(draw, max_wires=6, max_gates=12):
    wires = draw(st.integers(1, max_wires))
    circ = Circuit(wires)
    names = ["H", "X", "Z"] + (["CNOT", "SWAP"] if wires > 1 else [])
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        arity = 2 if name in ("CNOT", "SWAP") else 1
        qs = draw(st.permutations(list(range(wires))))[:arity]
        circ.append(name, *qs)
    return circ


seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# permutations, words, circuits


@given(perms_and_dims())
@FAST
def test_permutation_matrix_matches_digit_loop(case):
    perm, d = case
    assert residual(permutation_matrix(perm, d), dense_permutation_matrix(perm, d)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_twist_matches_digit_loop(n):
    perm = [k if q == 0 else n + k for k in range(n) for q in range(2)]
    assert residual(twist(n), dense_permutation_matrix(perm)) == 0


@given(pauli_words(max_n=4))
@FAST
def test_word_matrix_matches_kronecker(w):
    assert residual(word_matrix(w), dense_word_matrix(w)) == 0


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@FAST
def test_gen_word_matrix_matches_matrix_power(d, a, b, g):
    w = GenPauliWord(d, a, b, g)
    assert residual(gen_word_matrix(w), dense_gen_word_matrix(w)) <= 1e-15


@given(circuits())
@FAST
def test_circuit_matrix_matches_kronecker(circ):
    got, want = circ.to_matrix(), dense_circuit_matrix(circ)
    if any(name == "H" for name, _ in circ.gates):
        assert residual(got, want) <= 1e-15
    else:
        assert residual(got, want) == 0


# ---------------------------------------------------------------------------
# Bell vectors and the Bell-basis expansion


@given(pauli_words())
@FAST
def test_multi_bell_matches_kronecker(w):
    w = PauliWord(w.z_exps, w.x_exps)
    assert residual(multi_bell(w.n, w.z_exps, w.x_exps), dense_multi_bell(w.n, w.z_exps, w.x_exps)) == 0


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4), seeds)
@FAST
def test_bell_vector_matches_kronecker(d, a, b, seed):
    a, b = a % d, b % d
    u = gen_word_matrix(GenPauliWord(d, a, b))
    assert residual(qudit_bell(d, a, b), dense_bell(u)) == 0
    m = haar_unitary(d, np.random.default_rng(seed))
    assert residual(bell_vector(u, m), dense_bell(u, m)) <= 1e-15
    assert residual(bell_vector(m), dense_bell(m)) <= 1e-15


@given(st.integers(1, 3), seeds)
@FAST
def test_expansion_matches_overlaps(n, seed):
    psi = random_state(4**n, np.random.default_rng(seed))
    exp = expand_in_bell_basis(psi, n)
    want = dense_expand(psi, n)
    assert residual(exp.amps, want) <= 1e-15
    assert residual(exp.reconstruct(), psi) <= 1e-15
    dim = 2**n
    loop = sum(
        (-1.0) ** bin(a ^ b).count("1") * want[a, b] ** 2 for a in range(dim) for b in range(dim)
    )
    assert abs(concurrence(psi, n) - abs(loop)) <= 1e-15


# ---------------------------------------------------------------------------
# teleportation assemblers


def _case(variant, size, label, seed, m_kind):
    rng = np.random.default_rng(seed)
    dim = size if variant in QUDIT_VARIANTS else 2**size
    psi = random_state(dim, rng)
    m = haar_unitary(dim, rng) if m_kind == "unitary" else identity(dim)
    if variant in QUDIT_VARIANTS:
        return TeleportEqCase(variant, psi, m, (label[0] % size, label[1] % size), d=size)
    bits = [(label[0] >> k) & 1 for k in range(size)], [(label[1] >> k) & 1 for k in range(size)]
    return TeleportEqCase(variant, psi, m, (tuple(bits[0]), tuple(bits[1])), n=size)


@given(
    st.sampled_from(["qudit11", "qudit22", "nqubit11", "nqubit22"]),
    st.integers(0, 24),
    st.integers(0, 24),
    seeds,
    st.sampled_from(["unitary", "identity"]),
    st.booleans(),
)
@FAST
def test_assembler_matches_kronecker_sum(variant, la, lb, seed, m_kind, corrupt):
    size = 2 + seed % 4 if variant in QUDIT_VARIANTS else 1 + seed % 2
    case = _case(variant, size, (la, lb), seed, m_kind)
    lhs, rhs = _assemble(case, _outcomes(variant, case.m, case.d, case.n), corrupt)
    assert residual(rhs, dense_rhs(case, corrupt)) <= 1e-15
    m = case.m
    t_b = (
        dense_gen_word_matrix(GenPauliWord(case.d, *case.label))
        if variant in QUDIT_VARIANTS
        else dense_word_matrix(PauliWord(*case.label))
    )
    resource = dense_bell(m @ t_b) if variant in UNITARY_M_REQUIRED else dense_bell(t_b, m)
    assert residual(lhs, np.kron(case.psi, resource)) <= 1e-15


@given(st.sampled_from(["qudit", "nqubit"]), st.integers(2, 5), seeds)
@FAST
def test_protocol_branch_matches_kronecker(variant, size, seed):
    rng = np.random.default_rng(seed)
    dim = size if variant == "qudit" else 2 ** (size % 3 + 1)
    psi = random_state(dim, rng)
    m = haar_unitary(dim, rng) if variant == "qudit" else None
    rows = protocol_outcomes(psi, variant, m)
    resource = dense_bell(identity(dim), m) if variant == "qudit" else omega(dim)
    prepared = np.kron(psi, resource)
    for label, prob, _, _, _ in rows:
        if variant == "qudit":
            u = dense_gen_word_matrix(GenPauliWord(dim, *label))
        else:
            u = dense_word_matrix(PauliWord(*label))
        branch = tensor(dense_bell(u).conj().reshape(1, -1), identity(dim)) @ prepared
        assert abs(prob - np.linalg.norm(branch) ** 2) <= 1e-15


# ---------------------------------------------------------------------------
# braid and Temperley-Lieb relations on the joint support


def _assert_cases_match(rep, dense):
    assert [c.case_id for c in rep.cases] == [cid for cid, _ in dense]
    for case, (_, res) in zip(rep.cases, dense):
        assert abs(case.residual - res) <= 1e-15, (case.case_id, case.residual, res)


TL_M = {
    "none": lambda d, rng: None,
    "unitary": haar_unitary,
    "nonunitary": perturbed_nonunitary,
}


@pytest.mark.parametrize("m_kind", list(TL_M))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("strands", [3, 4])
def test_tl_relations_match_dense_generators(strands, d, m_kind):
    rng = np.random.default_rng(strands * 10 + d)
    for label in product(range(d), repeat=2):
        rep_tl = tl_generators(strands, d, label, TL_M[m_kind](d, rng))
        _assert_cases_match(tl_relation_check(rep_tl), dense_tl_cases(rep_tl))


BRAID_GATES = {f"B({e},{t})": bell_transform(e, t) for e, t in product((1, -1), repeat=2)}
BRAID_GATES["CNOT"] = Circuit(2, [("CNOT", (0, 1))]).to_matrix()


@pytest.mark.parametrize("gate", list(BRAID_GATES))
@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_braid_relations_match_dense_generators(strands, gate):
    mat = BRAID_GATES[gate]
    _assert_cases_match(braid_rep_check(strands, gate=mat), dense_braid_cases(strands, mat))
