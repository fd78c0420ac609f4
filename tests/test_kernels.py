"""Structured kernels against the dense constructions they replaced.

Every oracle here is the Kronecker-product or digit-loop form the library
used before its kernels were rewritten by reshape, scatter and transform,
before braid and Temperley-Lieb relations moved to the generators' joint
support, before local operators were applied by ``apply_local`` instead of
formed as ``op x 1``, or before the basis-group closure was batched.
The oracles live only in this file.  Where every entry compared is 0 or
+-1 the two routes must agree exactly; elsewhere to 1e-15, which is a few
ulps of the O(1) entries involved.
"""

import tracemalloc
from functools import cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.bell import (
    Circuit,
    all_labels,
    bell_unitaries,
    bell_vector,
    concurrence,
    concurrence_oracle,
    expand_in_bell_basis,
    bell2,
    multi_bell,
    omega,
    pair_product_bell,
    qudit_bell,
    twist_check,
    word_groups,
)
from bellkit import braid
from bellkit.braid import (
    TLRep,
    _product_rows,
    _teleport_lhs,
    _teleport_rhs,
    bell_transform,
    braid_rep_check,
    braid_teleport_multi_check,
    outcome_table,
    tl_generators,
    tl_relation_check,
    twisted_yb_gates,
    yang_baxter_check,
)
from bellkit.linalg import (
    DEFAULT_TOL,
    Monomial,
    apply_local,
    dagger,
    fold,
    haar_unitary,
    identity,
    map_groups,
    permutation,
    random_matrix,
    random_state,
    residual,
)
from bellkit.pauli import (
    word,
    basis_group_check,
    omega_root,
    pauli_gate,
    qubit_word_set,
    qudit_word_set,
)
from bellkit.report import Report
from bellkit.cli import _run_teleport, main
from bellkit import linalg, pauli, teleport
from bellkit.teleport import (
    QUDIT_VARIANTS,
    _Setting,
    projective_eq_check,
    protocol_outcomes,
    sample_histogram,
    teleport_eq_suite,
)
from bellkit.verify import (
    ObservableSpec,
    _gram_residuals,
    _gram_tables,
    _trial_matrices,
    _word_eigen_residuals,
    basis_theorem_suite,
    completeness_check,
    conjugated_observables,
    extend_basis,
    gram_check,
    multiqubit_observable_suite,
    multiqubit_observables,
    perturbed_nonunitary,
    qudit_observable_suite,
    qudit_observables,
    reduced_completeness,
    trace_system,
)
from dense import (
    GenPauliWord,
    PauliWord,
    basis_theorem_loop,
    braid_teleport_rhs,
    complex_relation_residual,
    conjugated_states,
    dense_circuit_matrix,
    dense_eigen_residuals,
    dense_extend,
    dense_gram,
    dense_permutation_matrix,
    dense_projector_sum,
    dense_receivers,
    dense_resource,
    dense_setting,
    dense_trace_system,
    dense_unitaries,
    dense_words,
    gen_word_matrix,
    gen_word_monomial,
    gen_x,
    gram,
    haar_one,
    identity_relation_residual,
    kron,
    monomial_matmul,
    monomial_of,
    perturbed_one,
    product_ket_of,
    projective_residuals,
    protocol_rows,
    qudit_observable_loop,
    qudit_states,
    reconstruct,
    teleport_sides,
    twist,
    word_dagger,
    word_matrix,
    word_monomial,
    word_mul,
)
from dense import reduced_completeness as dense_reduced_completeness

FAST = settings(max_examples=40, deadline=None)

# The teleport-eq variants of form 22, whose resource needs a unitary M.
UNITARY_M_REQUIRED = tuple(v for v, (_, form) in teleport._VARIANTS["teleport-eq"].items() if form == 22)


# ---------------------------------------------------------------------------
# dense oracles


def dense_word_matrix(w):
    z, x = pauli_gate("Z"), pauli_gate("X")
    factors = [
        np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
        for a, b in zip(w.z_exps, w.x_exps)
    ]
    return (-1.0) ** w.sign * kron(*factors)


def dense_gen_word_matrix(w):
    zpow = np.diag([omega_root(w.d, i * w.alpha) for i in range(w.d)])
    xpow = np.linalg.matrix_power(gen_x(w.d), w.beta)
    return omega_root(w.d, w.gamma) * (zpow @ xpow)


def dense_concurrence_oracle(state, n):
    """Overlap with the spin-flipped conjugate, the flip a dense Kronecker power of ZX."""
    zx = pauli_gate("Z") @ pauli_gate("X")
    tilde = (-1.0) ** n * (kron(*[zx] * (2 * n)) @ state.conj())
    return abs(np.vdot(tilde, state))


def dense_bell(t, m=None):
    dim = t.shape[0]
    return kron(t, identity(dim) if m is None else m) @ omega(dim)


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
        kron(*[eye] * (i - 1) + [x] + [eye] * (n_strands - i - 1))
        for i in range(1, n_strands)
    ]


def dense_twisted_yb_gate(n, eps, eta, kind):
    """tau . (B_1 x ... x B_n), times tau^dag for the conjugated kind, by Kronecker products."""
    tau = dense_permutation_matrix([k if q == 0 else n + k for k in range(n) for q in range(2)])
    gate = tau @ kron(*[bell_transform(e, t) for e, t in zip(eps, eta)])
    return gate if kind == "plain" else gate @ tau.T


def dense_ybe_residual(r, local_dim):
    """(R x 1)(1 x R)(R x 1) against (1 x R)(R x 1)(1 x R), as dense products."""
    eye = identity(local_dim)
    r1, r2 = kron(r, eye), kron(eye, r)
    return residual(r1 @ r2 @ r1, r2 @ r1 @ r2)


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


def dense_nearest(cands, mats):
    """min over the members of residual(P, w), one residual call per pair."""
    return np.array([fold((residual(p, w) for w in mats), np.min, np.inf) for p in cands])


def dense_basis_group_check(words, d, tol=DEFAULT_TOL):
    """basis_group_check by the N^3 loop: every product and adjoint compared
    with every member by residual, the HS Gram entry by entry.

    Each product of two monomial members is formed entry by entry, left
    entry times right entry (``monomial_matmul``), and each HS entry
    ``tr(a^dagger b) / d`` as the sum of the entrywise product, both without
    BLAS and in the members' own dtype; unitarity is the dense ``m^dagger
    m``.  Returns the report and the per-product and per-adjoint nearest
    residuals.
    """
    mats = [np.asarray(w) for w in words]
    inner = lambda a, b: complex(np.sum(a.conj() * b) / d)
    rep = Report("basis-group", {"d": d, "size": len(mats)}, tolerance=tol)
    rep.add("unitary", fold(residual(m.conj().T @ m, identity(d)) for m in mats))
    mul = dense_nearest([monomial_matmul(a, b) for a in mats for b in mats], mats).reshape(len(mats), -1)
    i, j = np.unravel_index(np.argmax(mul), mul.shape)
    worst = fold(mul.flat)
    rep.add("closure-mul" + (f" witness=({i},{j})" if not worst < tol else ""), worst)
    dag = dense_nearest([m.conj().T for m in mats], mats)
    worst = fold(dag)
    rep.add("closure-dagger" + (f" witness=({np.argmax(dag)})" if not worst < tol else ""), worst)
    reps = []
    for m in mats:
        if not any(abs(abs(inner(r, m)) - 1.0) < 1e-9 for r in reps):
            reps.append(m)
    gram = np.array([[inner(a, b) for b in reps] for a in reps])
    rep.add("hs-orthonormal", residual(gram, np.eye(len(reps))))
    return rep, mul, dag


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

FINITE_PHASES = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
# NaN and inf phases, in either part, for the residual's propagation rules
SPECIAL_PHASES = st.sampled_from(
    [np.nan, np.inf, -np.inf, complex(np.inf, 1.0), complex(0.0, np.nan), complex(1.0, -np.inf)]
)


@st.composite
def monomial_pairs(draw, special=False):
    """Two monomials of one dimension, built the ways the library builds them.

    ``word``: n-qubit Pauli words (signed permutations); ``qudit``: clock and
    shift words (complex phases); ``digits``: digit permutations; ``random``:
    random permutations with random phases, the second one often sharing
    the first's permutation or some of its phases.  ``special`` lets the
    random phases be NaN or inf.
    """
    kind = draw(st.sampled_from(["word", "qudit", "digits", "random"]))
    if kind == "word":
        bits = st.tuples(*[st.integers(0, 1)] * draw(st.integers(1, 4)))
        signs = st.integers(0, 1)
        return tuple(word_monomial(PauliWord(draw(bits), draw(bits), draw(signs))) for _ in range(2))
    if kind == "qudit":
        d = draw(st.integers(2, 7))
        labels = st.tuples(*[st.integers(0, d - 1)] * 3)
        return tuple(gen_word_monomial(GenPauliWord(d, *draw(labels))) for _ in range(2))
    if kind == "digits":
        d, perms = draw(st.integers(2, 4)), st.permutations(range(draw(st.integers(1, 3))))
        return permutation(draw(perms), d), permutation(draw(perms), d)
    dim = draw(st.integers(1, 12))
    phases = st.one_of(FINITE_PHASES, SPECIAL_PHASES) if special else FINITE_PHASES
    perm_a = draw(st.permutations(range(dim)))
    perm_b = draw(st.one_of(st.just(perm_a), st.permutations(range(dim))))
    phase_a = draw(st.lists(phases, min_size=dim, max_size=dim))
    phase_b = [p if draw(st.booleans()) else draw(phases) for p in phase_a]
    return Monomial(perm_a, phase_a), Monomial(perm_b, phase_b)


# ---------------------------------------------------------------------------
# permutations, words, circuits


@given(perms_and_dims())
@FAST
def test_permutation_matrix_matches_digit_loop(case):
    perm, d = case
    assert residual(permutation(perm, d).dense(), dense_permutation_matrix(perm, d)) == 0


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


# ---------------------------------------------------------------------------
# monomial operators against their dense matrices


def _dense_of(m):
    """The dense matrix written entry by entry from the (perm, phase) arrays."""
    mat = np.zeros((m.dim, m.dim), dtype=complex)
    for col, (row, ph) in enumerate(zip(m.perm.tolist(), m.phase.tolist())):
        mat[row, col] = ph
    return mat


@given(monomial_pairs(special=True))
@FAST
def test_monomial_dense_matches_entrywise(pair):
    for m in pair:
        np.testing.assert_array_equal(m.dense(), _dense_of(m))


@given(monomial_pairs())
@FAST
def test_monomial_product_matches_dense(pair):
    a, b = pair
    assert residual((a @ b).dense(), a.dense() @ b.dense()) <= 1e-15


@given(monomial_pairs(special=True))
@FAST
def test_monomial_adjoint_matches_dense(pair):
    for m in pair:
        np.testing.assert_array_equal(m.adjoint().dense(), m.dense().conj().T)


@given(monomial_pairs(), st.integers(1, 4), seeds)
@FAST
def test_monomial_apply_matches_dense(pair, k, seed):
    m = pair[0]
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((m.dim, k)) + 1j * rng.standard_normal((m.dim, k))
    states /= np.linalg.norm(states, axis=0)  # O(1) entries, as everywhere else in this file
    assert residual(m.apply(states), m.dense() @ states) <= 1e-15
    assert residual(m @ states[:, 0], m.dense() @ states[:, 0]) <= 1e-15


@given(monomial_pairs(special=True))
@FAST
def test_monomial_residual_matches_dense(pair):
    """Exactly the dense value, NaN and inf included, either way round."""
    a, b = pair
    np.testing.assert_array_equal(residual(a, b), residual(a.dense(), b.dense()))
    np.testing.assert_array_equal(residual(b, a), residual(b.dense(), a.dense()))


def test_monomial_residual_nan_and_inf():
    eye = Monomial([0, 1])
    swap = Monomial([1, 0])
    assert np.isnan(residual(Monomial([0, 1], [np.nan, 1]), swap))  # a NaN where perms differ
    assert np.isnan(residual(Monomial([0, 1], [np.inf, 1]), Monomial([0, 1], [np.inf, 1])))
    assert residual(Monomial([0, 1], [np.inf, 1]), swap) == np.inf
    assert residual(eye, swap) == 1.0 and residual(eye, eye) == 0.0
    with pytest.raises(ValueError):
        Monomial([0, 0])
    with pytest.raises(ValueError):
        residual(eye, Monomial([0, 1, 2]))
    with pytest.raises(TypeError):
        residual(eye, np.eye(2))


@given(circuits())
@FAST
def test_circuit_monomial_matches_kronecker(circ):
    if any(name not in ("SWAP", "CNOT") for name, _ in circ.gates):
        with pytest.raises(ValueError, match="SWAP and CNOT"):
            circ.to_monomial()
    else:
        assert residual(circ.to_monomial().dense(), dense_circuit_matrix(circ)) == 0


def test_twist_check_forms_no_dense_operator():
    """At n = 6 one dense 4096^2 complex matrix is 256 MiB; the index arrays are a few KiB."""
    tracemalloc.start()
    try:
        rep = twist_check(6, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 16 * 2**20, peak


@given(st.integers(1, 3), seeds)
@FAST
def test_concurrence_oracle_matches_dense_flip(n, seed):
    psi = random_state(4**n, np.random.default_rng(seed))
    assert concurrence_oracle(psi, n) == dense_concurrence_oracle(psi, n)


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
    assert residual(bell_vector(u @ m.T), dense_bell(u, m)) <= 1e-15
    assert residual(bell_vector(m), dense_bell(m)) <= 1e-15


@given(st.integers(1, 3), seeds)
@FAST
def test_expansion_matches_overlaps(n, seed):
    psi = random_state(4**n, np.random.default_rng(seed))
    amps = expand_in_bell_basis(psi, n)
    want = dense_expand(psi, n)
    assert residual(amps, want) <= 1e-15
    assert residual(reconstruct(amps, n), psi) <= 1e-15
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
        return SimpleNamespace(variant=variant, psi=psi, m=m, label=(label[0] % size, label[1] % size),
                               d=size, n=None)
    bits = [(label[0] >> k) & 1 for k in range(size)], [(label[1] >> k) & 1 for k in range(size)]
    return SimpleNamespace(variant=variant, psi=psi, m=m, label=(tuple(bits[0]), tuple(bits[1])),
                           d=None, n=size)


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
    setting = _Setting("teleport-eq", variant, case.d, case.n)
    setting.use(case.m)
    setting.send(case.psi, corrupt)
    m = case.m
    t_b = (
        dense_gen_word_matrix(GenPauliWord(case.d, *case.label))
        if variant in QUDIT_VARIANTS
        else dense_word_matrix(PauliWord(*case.label))
    )
    resource = dense_bell(m @ t_b) if variant in UNITARY_M_REQUIRED else dense_bell(t_b, m)
    # label b's difference of the two sides is E U_b (form 22) or E U_b M^T (form 11)
    diff = setting.difference() @ (t_b if variant in UNITARY_M_REQUIRED else t_b @ m.T)
    assert residual(diff.reshape(-1), np.kron(case.psi, resource) - dense_rhs(case, corrupt)) <= 1e-15


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
        branch = kron(dense_bell(u).conj().reshape(1, -1), identity(dim)) @ prepared
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
BRAID_GATES["CNOT"] = dense_circuit_matrix(Circuit(2, [("CNOT", (0, 1))]))


@pytest.mark.parametrize("gate", list(BRAID_GATES))
@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_braid_relations_match_dense_generators(strands, gate):
    mat = BRAID_GATES[gate]
    _assert_cases_match(braid_rep_check(strands, gate=mat), dense_braid_cases(strands, mat))


# ---------------------------------------------------------------------------
# real arithmetic for real operators
#
# Each real gate meets the relation shapes its checks use: the braid (and
# Yang-Baxter) relation on three sites, far commutation on four for the
# two-qubit gates, and both TL relations for the projectors.

YB_SHAPE = (3, (0, 1, 0), (1, 0, 1), 1.0)
FAR_SHAPE = (4, (0, 2), (2, 0), 1.0)


def _tl_shapes(d):
    return [(3, (0, 1, 0), (0,), 1.0 / d**2), (3, (1, 0, 1), (1,), 1.0 / d**2), FAR_SHAPE]


REAL_GATES = {
    **{f"B({e},{t})": (bell_transform(e, t), 2, [YB_SHAPE, FAR_SHAPE]) for e, t in product((1, -1), repeat=2)},
    **{
        f"twisted-{kind} n={n}": (twisted_yb_gates(n, (1, -1, 1)[:n], (-1, 1, 1)[:n], kind), 2**n, [YB_SHAPE])
        for n in (1, 2, 3)
        for kind in ("plain", "conjugated")
    },
    **{
        name: (dense_circuit_matrix(Circuit(2, [(name, (0, 1))])), 2, [YB_SHAPE, FAR_SHAPE])
        for name in ("SWAP", "CNOT")
    },
    **{f"TL identity-M d={d}": (tl_generators(3, d).proj, d, _tl_shapes(d)) for d in (2, 3, 4)},
}


@pytest.fixture
def word_dtypes(monkeypatch):
    """``(dtype of the block given, dtype of the side returned)`` for each ``_word`` call while the test runs."""
    word, seen = braid._word, []

    def recording_word(x, local_dim, sites, cols, out=None):
        side = word(x, local_dim, sites, cols, out)
        seen.append((cols.dtype, side.dtype))
        return side

    monkeypatch.setattr(braid, "_word", recording_word)
    return seen


@pytest.mark.parametrize("name", list(REAL_GATES))
def test_real_gates_take_the_real_relation_path(name, word_dtypes):
    gate, local, shapes = REAL_GATES[name]
    for support, lhs, rhs, scale in shapes:
        got = braid._relation_residual(gate, local, support, lhs, rhs, scale)
        # every sum of these gates' products is exact in any order, so the gathered pair is exact
        assert got == identity_relation_residual(gate, local, support, lhs, rhs, scale), (support, lhs, rhs)
        want = complex_relation_residual(gate, local, support, lhs, rhs, scale)
        assert abs(got - want) <= 1e-15, (support, lhs, rhs, got, want)
    # both sides of every block of columns went through _word, in float64
    assert len(word_dtypes) == sum(2 * local**support // len(gate) for support, *_ in shapes)
    assert set(word_dtypes) == {(np.dtype(np.float64),) * 2}


@pytest.mark.parametrize("m", ["unitary", "nonunitary"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gathered_start_equals_identity_blocks_complex_tl(d, m):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        local = haar_unitary(d, rng) if m == "unitary" else perturbed_nonunitary(d, rng)
        proj = tl_generators(3, d, (seed % d, 1), local).proj
        assert np.iscomplexobj(linalg.real_if_real(proj))
        for support, lhs, rhs, scale in _tl_shapes(d):
            got = braid._relation_residual(proj, d, support, lhs, rhs, scale)
            want = identity_relation_residual(proj, d, support, lhs, rhs, scale)
            # the gathered pair sums its complex products in another order; far pairs read exactly 0
            assert abs(got - want) <= 1e-15, (seed, support, lhs, rhs, got, want)


def test_gathered_start_saves_the_first_local_product(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return apply_local(*args, **kwargs)

    monkeypatch.setattr(braid, "apply_local", counting)
    # 8 blocks of 64 columns, one product per side after the gathered pair (48 with identity blocks)
    assert yang_baxter_check(twisted_yb_gates(3, (1, -1, 1), (-1, 1, 1), "conjugated"), 8).passed
    assert len(calls) == 16
    calls.clear()
    # TL's one-site sides and both far-commutation sides are gathered whole: 2 blocks x 1 for each neighbour relation
    assert tl_relation_check(tl_generators(4, 2)).passed
    assert len(calls) == 4


def test_complex_gates_keep_the_complex_path(word_dtypes):
    proj = tl_generators(3, 3, (1, 2), haar_unitary(3, np.random.default_rng(3))).proj
    assert tl_relation_check(TLRep(3, 3, proj)).passed
    # 3 + 3 blocks for the neighbour relations and 9 for far commutation, two sides each
    assert len(word_dtypes) == 30
    assert set(word_dtypes) == {(np.dtype(np.complex128),) * 2}


# The products of two factors that the relation kernel gathers, by support.
GATHERED_PAIRS = [(3, (1, 0)), (3, (0, 1)), (4, (0, 2)), (4, (2, 0))]
PAIR_GATES = {
    **{
        f"twisted-{kind} n={n}": (twisted_yb_gates(n, (1, -1, 1)[:n], (-1, 1, 1)[:n], kind), 2**n)
        for n in (1, 2, 3)
        for kind in ("plain", "conjugated")
    },
    **{
        f"TL {m} d={d}": (
            tl_generators(3, d, (1, d - 1), (haar_unitary if m == "unitary" else perturbed_nonunitary)(
                d, np.random.default_rng(d))).proj,
            d,
        )
        for d in (2, 3, 4)
        for m in ("unitary", "nonunitary")
    },
}


@pytest.mark.parametrize("name", list(PAIR_GATES))
def test_gathered_pair_equals_placed_factors_on_identity_columns(name):
    gate, d = PAIR_GATES[name]
    x = linalg.real_if_real(gate)
    k = len(x)
    for support, pair in GATHERED_PAIRS:
        dim = d**support
        out = np.full((dim, k), np.nan, dtype=x.dtype)
        for start in range(0, dim, k):
            got = braid._pair_block(x, d, pair, start, out)
            assert got is out
            want = braid._word(x, d, pair, np.eye(dim, k, -start, dtype=x.dtype))
            if np.iscomplexobj(x):
                assert residual(got, want) <= 1e-15, (support, pair, start)
            else:
                assert np.array_equal(got, want), (support, pair, start)


@pytest.mark.parametrize("sites", [(0, 0), (1, 2), (0, 1, 0)])
def test_pair_block_refuses_a_pair_it_does_not_gather(sites):
    x = bell_transform(1, 1).real
    with pytest.raises(ValueError):
        braid._pair_block(x, 2, sites, 0, np.empty((8, 4)))


@pytest.mark.parametrize("part", ["real", "imag"])
def test_nan_in_a_gate_fails_its_relations(part):
    gate = bell_transform(1, 1)
    # a NaN imaginary part alone must keep the gate complex, so the NaN still reaches the residual
    gate[0, 3] = complex(np.nan, 0.0) if part == "real" else complex(gate[0, 3].real, np.nan)
    for rep in (yang_baxter_check(gate, 2), braid_rep_check(4, gate=gate)):
        assert not rep.passed
        assert np.isnan(rep.max_residual)
    proj = tl_generators(3, 2).proj
    proj[1, 2] = complex(np.nan, 0.0) if part == "real" else complex(0.0, np.nan)
    rep = tl_relation_check(TLRep(4, 2, proj))
    assert not rep.passed
    assert all(np.isnan(case.residual) for case in rep.cases)


# ---------------------------------------------------------------------------
# local operators: apply_local and its readers


@given(
    st.sampled_from([2, 3]), st.integers(0, 2), st.integers(1, 2), st.integers(0, 2),
    st.sampled_from([None, 1, 3]), seeds,
)
@FAST
def test_apply_local_matches_kronecker(d, before, sites, after, cols, seed):
    rng = np.random.default_rng(seed)
    k, dim = d**sites, d ** (before + sites + after)
    op = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    shape = (dim,) if cols is None else (dim, cols)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = kron(identity(d**before), op, identity(d**after)) @ x
    got = apply_local(op, x, d**before)
    assert got.shape == x.shape
    # at most 9 products of O(1) Gaussians per entry
    assert residual(got, want) < 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "op_shape, x_shape, before",
    [((4, 4), (8,), 2), ((4, 4), (16, 3), 1), ((4, 4), (2, 16, 3), 4), ((3, 2, 2), (8,), 2), ((3, 2, 2), (3, 8, 5), 1)],
)
def test_apply_local_into_out_matches_the_allocating_call(op_shape, x_shape, before, dtype):
    rng = np.random.default_rng(sum(x_shape))
    op = rng.standard_normal(op_shape).astype(dtype)
    x = rng.standard_normal(x_shape).astype(dtype)
    want = apply_local(op, x, before)
    out = np.full(want.shape, np.nan, dtype=want.dtype)
    assert apply_local(op, x, before, out) is out
    assert np.array_equal(out, want)
    with pytest.raises(ValueError):
        apply_local(op, x, before, np.empty(want.shape + (2,), dtype=want.dtype)[..., 0])


def test_apply_local_refuses_a_misfit():
    op = np.eye(4)
    for x, before in ((np.ones(6), 1), (np.ones((8, 2)), 3), (np.ones((2, 2, 2)), 1)):
        with pytest.raises(ValueError):
            apply_local(op, x, before)
    with pytest.raises(ValueError):
        apply_local(np.ones((2, 4)), np.ones(8))


YB_SIGNS = {
    n: list(product(product((1, -1), repeat=n), repeat=2)) for n in (1, 2, 3)
}
# n = 3 has 64 sign patterns of 0.1 s dense products each; take every ninth
YB_CASES = [(n, eps, eta) for n in (1, 2) for eps, eta in YB_SIGNS[n]] + [
    (3, eps, eta) for eps, eta in YB_SIGNS[3][::9]
]


@pytest.mark.parametrize("kind", ["plain", "conjugated"])
@pytest.mark.parametrize("n,eps,eta", YB_CASES)
def test_yang_baxter_matches_dense_products(n, eps, eta, kind):
    gate = twisted_yb_gates(n, eps, eta, kind)
    assert residual(gate, dense_twisted_yb_gate(n, eps, eta, kind)) <= 1e-15
    got = yang_baxter_check(gate, 2**n).max_residual
    assert abs(got - dense_ybe_residual(gate, 2**n)) <= 1e-15, (got, dense_ybe_residual(gate, 2**n))
    # the conjugated gates solve the equation; the plain ones do not, except
    # at n = 1, where the twist is the identity
    assert (got < DEFAULT_TOL) == (kind == "conjugated" or n == 1)


def test_twisted_ybe_check_holds_no_dense_triple_product():
    gate = twisted_yb_gates(3, (1, -1, 1), (-1, 1, 1), "conjugated")
    yang_baxter_check(gate, 8)
    tracemalloc.start()
    try:
        rep = yang_baxter_check(gate, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    # one dense 512 x 512 complex operator is 4 MiB, and the dense triple
    # products peaked at 22 MiB; one 512 x 64 column block is 0.5 MiB
    assert peak < 4 * 2**20, peak


@given(st.sampled_from([1, 2]), st.integers(1, 5), seeds)
@FAST
def test_teleport_lhs_matches_kronecker(n, cols, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n
    gate_r, gate_l = haar_unitary(dim * dim, rng), haar_unitary(dim * dim, rng)
    psi = random_state(dim, rng)
    kets = np.stack([random_state(dim * dim, rng) for _ in range(cols)], axis=1)
    dense = kron(gate_r, identity(dim)) @ kron(identity(dim), gate_l)
    stacked = _teleport_lhs(gate_r, gate_l, np.kron(psi[:, None], kets))
    for c in range(cols):
        want = dense @ kron(psi, kets[:, c])
        assert residual(_teleport_lhs(gate_r, gate_l, kron(psi, kets[:, c])), want) < 1e-15
        assert residual(stacked[:, c], want) < 1e-15


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_conjugated_observables_match_kronecker(d, side):
    rng = np.random.default_rng(d)
    eye = identity(d)
    words = bell_unitaries(d=d)[1]
    for spec in qudit_observables(*qudit_states(d), d - 1):
        m = haar_unitary(d, rng)
        shift, inv = (kron(m, eye), kron(dagger(m), eye)) if side == "left" else (
            kron(eye, m.T), kron(eye, m.conj()))
        once = conjugated_observables(spec, m, side)
        assert once.states is None
        assert residual(once.matrix, shift @ spec.matrix @ inv) < 1e-14
        # its eigenvectors: the shifted dense states, and the family extended by M on the same side
        assert residual(conjugated_states(spec, m, side), shift @ spec.states) < 1e-14
        assert residual(extend_basis(words, m, side).T, shift @ spec.states) < 1e-14
        # a second round reads the first one's output
        twice = conjugated_observables(once, m, side)
        assert residual(twice.matrix, shift @ shift @ spec.matrix @ inv @ inv) < 1e-14


@pytest.mark.parametrize(
    "size", [{"d": 2}, {"d": 3}, {"d": 5}, {"d": 8}, {"n": 2}, {"d": 4}, {"d": 6}, {"n": 1}, {"n": 3}]
)
def test_reduced_completeness_matches_pair_loop(size, monkeypatch):
    rng = np.random.default_rng(sum(size.values()))
    words = bell_unitaries(**size)[1]
    local = words.dim
    m = rng.standard_normal((local, local)) + 1j * rng.standard_normal((local, local))
    # U_a M, the one scatter, against the product with the dense words
    assert residual(words @ m, dense_words(words) @ m) <= 1e-15
    whole = reduced_completeness(words, m)
    assert whole < DEFAULT_TOL
    # sums of d^2 products of O(1) Gaussians, in two association orders
    assert abs(whole - dense_reduced_completeness(dense_words(words), m)) <= 1e-13
    # a family with one word repeated is no Bell family, so its row maps do not
    # tile: an O(1) residual, the same on both routes
    broken = words[np.r_[: len(words.perm) - 1, 0]]
    got = reduced_completeness(broken, m)
    assert got > 0.01
    assert abs(got - dense_reduced_completeness(dense_words(broken), m)) <= 1e-13
    # blocks of one p, and of two with a shorter last block, give the same residuals
    for per_block in (1, 2):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", per_block * 16 * local**3)
        assert reduced_completeness(words, m) == whole
        assert reduced_completeness(broken, m) == got


def test_reduced_completeness_memory_is_a_block():
    # n = 5, D = 32: the (K, D^2) matrix and its D^4-entry product peaked at 88 MiB;
    # the per-group arrays and one p's D^3 block are about 4 MiB
    words = bell_unitaries(n=5)[1]
    m = random_matrix(words.dim, np.random.default_rng(2))
    tracemalloc.start()
    try:
        res = reduced_completeness(words, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < DEFAULT_TOL
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_product_bell_matches_kronecker(n):
    for a, b in all_labels(n):
        want = kron(*[bell2(ak, bk) for ak, bk in zip(a, b)])
        assert residual(pair_product_bell(n, a, b), want) == 0


# ---------------------------------------------------------------------------
# basis-group closure


def _perturbed(words, index, delta):
    out = [w.copy() for w in words]
    r, c = np.argwhere(out[index] != 0)[0]
    out[index][r, c] += delta
    return out


BASIS_GROUP_SETS = {
    **{f"qudit-{d}": (lambda d=d: qudit_word_set(d).dense(), d) for d in (2, 3, 4, 5)},
    **{f"multi-{n}": (lambda n=n: qubit_word_set(n).dense(), 2**n) for n in (1, 2)},
    "qudit-3-dropped": (lambda: np.delete(qudit_word_set(3).dense(), 4, axis=0), 3),
    "qudit-3-perturbed-1e-13": (lambda: _perturbed(qudit_word_set(3).dense(), 5, 1e-13), 3),
    "qudit-3-perturbed-1e-6": (lambda: _perturbed(qudit_word_set(3).dense(), 5, 1e-6), 3),
    # not a set of monomials: refused before any check runs
    "qudit-2-haar": (lambda: [*qudit_word_set(2).dense(), haar_unitary(2, np.random.default_rng(3))], 2),
    "one-diag": (lambda: [np.eye(2), np.diag([1.0, 2.0])], 2),
    "qudit-3-nan": (lambda: _perturbed(qudit_word_set(3).dense(), 7, np.nan), 3),
    "qudit-3-inf": (lambda: _perturbed(qudit_word_set(3).dense(), 7, np.inf), 3),
    "multi-1-nan": (lambda: _perturbed(qubit_word_set(1).dense(), 3, np.nan), 2),
    # every product overflows to inf
    "overflow": (lambda: [1e160 * np.diag([1.0, 1.5]), 1e160 * np.eye(2)], 2),
    # products near 1e200, residuals too: a squared difference would overflow to inf
    "large": (lambda: [1e100 * np.eye(2), 1e100 * np.diag([1.0, -1.0])], 2),
}
MONOMIAL_SETS = [name for name in BASIS_GROUP_SETS if name != "qudit-2-haar"]


@cache
def _dense_basis_group(name):
    """(words, d, report, per-product and per-adjoint residuals) of the dense loop."""
    build, d = BASIS_GROUP_SETS[name]
    words = build()
    return words, d, *dense_basis_group_check(words, d)


def _assert_reports_match(new, old):
    a, b = new.to_dict(), old.to_dict()
    assert [c["id"] for c in a["cases"]] == [c["id"] for c in b["cases"]]
    assert [c["pass"] for c in a["cases"]] == [c["pass"] for c in b["cases"]]
    # NaN and inf must sit at the same cases on both sides
    np.testing.assert_allclose(
        [c["residual"] for c in a["cases"]], [c["residual"] for c in b["cases"]], rtol=0, atol=1e-15
    )


def _assert_basis_group_matches(words):
    """``basis_group_check`` of the stacked ``words`` against the dense loop over its matrices."""
    new, old = basis_group_check(words), dense_basis_group_check(words.dense(), words.dim)[0]
    if np.isinf(words.phase).any() and not np.isnan(words.phase).any():
        # the dense m^dagger m sums 0 * inf = NaN; |p|^2 - 1 reads inf, and both fail
        assert np.isnan(old.cases[0].residual) and new.cases[0].residual == np.inf
        old.cases[0] = new.cases[0]
    _assert_reports_match(new, old)
    # both take each product as left entry times right entry: the closure cases agree bit for bit
    np.testing.assert_array_equal([c.residual for c in new.cases[1:3]], [c.residual for c in old.cases[1:3]])


@pytest.mark.parametrize("name", list(BASIS_GROUP_SETS))
def test_basis_group_check_matches_dense_loop(name):
    if name not in MONOMIAL_SETS:
        # the check takes a stack of monomials, and a dense member is refused when the stack is built
        with pytest.raises(ValueError, match="monomial"):
            monomial_of(BASIS_GROUP_SETS[name][0]())
        return
    _assert_basis_group_matches(monomial_of(_dense_basis_group(name)[0]))


@pytest.mark.parametrize("name", MONOMIAL_SETS)
def test_nearest_residual_never_below_dense_loop(name, monkeypatch):
    """Per product and per adjoint, the nearest-member residual equals the dense loop's, bit for bit,
    at the default blocks and at blocks of one candidate and one left factor (a 16-byte budget)."""
    words, _, _, old_mul, old_dag = _dense_basis_group(name)
    stack = monomial_of(words)
    for budget in (linalg.BLOCK_BYTES, 16):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        new_mul, new_dag = pauli._closure_residuals(stack, map_groups(stack))
        np.testing.assert_array_equal(new_mul, old_mul)
        np.testing.assert_array_equal(new_dag, old_dag)


def test_adversarial_sets_fail_with_witnesses():
    """The adversarial sets above do break closure, so the match covers failing reports."""
    for name in ("qudit-3-dropped", "qudit-3-perturbed-1e-6", "one-diag"):
        ids = [c.case_id for c in _dense_basis_group(name)[2].cases]
        assert ids[1].startswith("closure-mul witness=("), (name, ids)
    # a NaN member makes every nearest residual NaN: the first one is the witness
    ids = [c.case_id for c in _dense_basis_group("qudit-3-nan")[2].cases]
    assert ids[1:3] == ["closure-mul witness=(0,0)", "closure-dagger witness=(0)"]
    # an inf phase times the identity's 1 + 0j has a NaN imaginary part
    words, _, rep = _dense_basis_group("qudit-3-inf")[:3]
    assert rep.cases[1].case_id == "closure-mul witness=(0,7)" and np.isnan(rep.cases[1].residual)
    # unitarity reads |p|^2 - 1 = inf; the dense m^dagger m read NaN from 0 * inf
    assert basis_group_check(monomial_of(words)).cases[0].residual == np.inf
    assert np.isnan(rep.cases[0].residual)


@pytest.mark.parametrize("name", ["qudit-3", "multi-2", "qudit-3-nan", "qudit-3-inf"])
def test_pair_products_equal_per_pair_matmul(name):
    """The stacked products of the check's members equal the per-pair products bit for bit, NaN and inf included."""
    words = BASIS_GROUP_SETS[name][0]()
    stack = monomial_of(words)
    want = np.array([[monomial_matmul(a, b) for b in words] for a in words])
    np.testing.assert_array_equal((stack @ stack).dense(), want)
    rows = np.arange(len(words))[::3]
    np.testing.assert_array_equal((stack[rows] @ stack[1:3]).dense(), want[rows][:, 1:3])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", [n for n in MONOMIAL_SETS if not _dense_basis_group(n)[2].cases[1].passed])
def test_closure_witness_does_not_depend_on_product_rounding(name, seed):
    """Entries moved by a few ulps, which can break or make ties with the worst pair
    (``qudit-3-perturbed-1e-6`` has two pairs 1.1e-16 apart), still give the
    dense loop's witness and worst residual bit for bit: both round each
    product the same way, left entry times right entry.
    """
    words = np.array(_dense_basis_group(name)[0], dtype=complex)
    noise = 1 + 4 * np.finfo(float).eps * np.random.default_rng(seed).choice([-1, 0, 1], words.shape)
    words *= noise
    got = basis_group_check(monomial_of(words)).cases[1]
    want = dense_basis_group_check(words, len(words[0]))[0].cases[1]
    assert got.case_id == want.case_id
    np.testing.assert_array_equal(got.residual, want.residual)


@st.composite
def basis_group_variants(draw):
    """A random subset of qudit_word_set(3) or qubit_word_set(1), perhaps with one entry moved."""
    words, d = draw(st.sampled_from([(qudit_word_set(3).dense(), 3), (qubit_word_set(1).dense(), 2)]))
    keep = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    words = [w for w, k in zip(words, keep) if k] or words[:1]
    if draw(st.booleans()):
        delta = draw(st.sampled_from([1e-15, 1e-13, 1e-9, 1e-6, 1e-2, 1.0]))
        delta *= draw(st.sampled_from([1, -1, 1j]))
        words = _perturbed(words, draw(st.integers(0, len(words) - 1)), delta)
    return words, d


@given(basis_group_variants())
@FAST
def test_basis_group_check_matches_dense_loop_on_variants(case):
    words, _ = case
    try:
        stack = monomial_of(words)
    except ValueError:
        # an entry moved by -1 to zero leaves a column empty: no longer a monomial
        assert any((np.asarray(w) != 0).sum(axis=0).min() == 0 for w in words)
        return
    _assert_basis_group_matches(stack)


@st.composite
def random_monomial_sets(draw):
    """A set of monomials with a NaN, inf or noisy phase, or a member dropped or repeated.

    The base is a word set, or random row maps (two of which can agree on
    some columns, which no two word maps do) with q-th roots of unity as
    phases.  Every phase is then moved by 0, 1e-13 or 1e-6 in a random
    direction; one member may be dropped or repeated, and one phase may be
    NaN or inf.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = monomial_of(BASIS_GROUP_SETS[draw(st.sampled_from(["qudit-2", "qudit-3", "multi-1"]))][0]())
        perm, phase = base.perm, base.phase
    else:
        dim, count, q = draw(st.integers(2, 4)), draw(st.integers(1, 8)), draw(st.sampled_from([1, 2, 3, 4]))
        perm = np.array([rng.permutation(dim) for _ in range(count)])
        phase = np.exp(2j * np.pi * rng.integers(0, q, perm.shape) / q)
    phase = phase * (1 + draw(st.sampled_from([0.0, 1e-13, 1e-6])) * np.exp(2j * np.pi * rng.random(perm.shape)))
    k = int(rng.integers(len(perm)))
    edit = draw(st.sampled_from(["none", "drop", "repeat"]))
    if edit != "none" and (edit == "repeat" or len(perm) > 1):
        rows = np.delete(np.arange(len(perm)), k) if edit == "drop" else np.insert(np.arange(len(perm)), k, k)
        perm, phase = perm[rows], phase[rows]
    bad = draw(st.sampled_from([None, np.nan, np.inf]))
    if bad is not None:
        phase[tuple(rng.integers(phase.shape))] += bad
    return Monomial(perm, phase)


@given(random_monomial_sets())
@FAST
def test_basis_group_check_matches_dense_loop_on_random_monomials(words):
    _assert_basis_group_matches(words)


# ---------------------------------------------------------------------------
# braid teleportation: the integer outcome table against per-label words

# every sign pattern (eps_l, eta_l, eps_r, eta_r) at n = 1, every ninth at n = 2
SIGN_PATTERNS = [(1, s) for s in product((1, -1), repeat=4)] + [
    (2, s) for s in list(product((1, -1), repeat=8))[::9]
]


def _split_signs(n, signs):
    return [signs[k * n:(k + 1) * n] for k in range(4)]


@pytest.mark.parametrize("blocked", [False, True], ids=["interleaved", "blocked"])
@pytest.mark.parametrize("n,signs", SIGN_PATTERNS)
def test_outcome_table_matches_per_label_words(n, signs, blocked):
    sides = _split_signs(n, signs)
    psi = random_state(2**n, np.random.default_rng(len(signs) + sum(signs)))
    rhs = _teleport_rhs(outcome_table(*sides), psi, _product_rows(n, blocked))
    assert rhs.shape == (4**n, 8**n)
    for ab, (a, b) in enumerate(all_labels(n)):
        assert residual(rhs[ab], braid_teleport_rhs(*sides, a, b, psi, blocked)) <= 1e-15, (a, b)


@pytest.mark.parametrize("blocked", [False, True], ids=["interleaved", "blocked"])
@pytest.mark.parametrize("n,signs", [(1, (-1, 1, 1, -1)), (2, (-1, -1, 1, 1, 1, 1, -1, -1)),
                                     (2, (1, -1, -1, 1, -1, 1, 1, -1))])
def test_multi_check_cases_match_per_ket_kronecker(n, signs, blocked):
    """Each case is the residual of the dense LHS against the per-label RHS for that ket."""
    sides = _split_signs(n, signs)
    rep = braid_teleport_multi_check(n, *sides, seed=5, blocked=blocked)
    psi = random_state(2**n, np.random.default_rng(5))
    kind = "conjugated" if blocked else "plain"
    gate_l = dense_twisted_yb_gate(n, sides[0], sides[1], kind)
    gate_r = dagger(dense_twisted_yb_gate(n, sides[2], sides[3], kind))
    ops = kron(gate_r, identity(2**n)) @ kron(identity(2**n), gate_l)
    assert len(rep.cases) == 4**n
    for case, (a, b) in zip(rep.cases, all_labels(n)):
        lhs = ops @ kron(psi, product_ket_of(a, b, blocked))
        want = residual(lhs, braid_teleport_rhs(*sides, a, b, psi, blocked))
        assert case.case_id == f"a={a} b={b}"
        assert abs(case.residual - want) <= 1e-15, case.case_id


# ---------------------------------------------------------------------------
# protocol: one stacked contraction against the per-label loop


def dense_protocol_outcomes(psi, variant, m=None, resource=None):
    """The per-label loop over the dense words that ``protocol_outcomes`` replaced."""
    dim = psi.shape[0]
    setting = _Setting("protocol", variant, d=dim, n=dim.bit_length() - 1)
    qubits = "n" in setting.size
    setting.use(identity(dim) if m is None or qubits else m)
    name = "T({},{})" if qubits else "U({},{})·M†"
    return [(*row, name.format(*row[0])) for row in protocol_rows(setting, psi, resource)]


@pytest.mark.parametrize(
    "variant,size,haar,skewed",
    [("basic2", 2, False, False), ("basic2", 2, False, True), ("qudit", 2, True, False),
     ("qudit", 3, True, False), ("qudit", 5, True, False), ("qudit", 3, True, True),
     ("nqubit", 1, False, False), ("nqubit", 2, False, False), ("nqubit", 3, False, False),
     ("qudit", 4, True, False), ("qudit", 6, True, False)],
)
def test_protocol_outcomes_match_per_label_loop(variant, size, haar, skewed, monkeypatch):
    rng = np.random.default_rng(size)
    dim = 2**size if variant == "nqubit" else size
    psi = random_state(dim, rng)
    m = haar_unitary(dim, rng) if haar else None
    resource = random_state(dim * dim, rng) if skewed else None
    if skewed:
        monkeypatch.setattr(_Setting, "resource", lambda self, b: resource[None])
    got = protocol_outcomes(psi, variant, m)
    want = dense_protocol_outcomes(psi, variant, m, resource)
    assert [(r[0], r[4]) for r in got] == [(r[0], r[4]) for r in want]
    for g, w in zip(got, want):
        assert type(g[1]) is float and type(g[2]) is float
        assert abs(g[1] - w[1]) <= 1e-15, g[0]
        assert abs(g[2] - w[2]) <= 1e-15, g[0]
        assert residual(g[3], w[3]) <= 1e-15, g[0]


@pytest.mark.parametrize("variant,size", [("basic2", 2), ("qudit", 3), ("nqubit", 2)])
def test_protocol_histogram_matches_per_label_counts(variant, size):
    kwargs = {"n": size} if variant == "nqubit" else {"d": size}
    for seed in (1, 7):
        report = _run_teleport(seed, variant=variant, **kwargs, samples=5000)
        # the same draws as the command: psi, then M for qudit, then the samples
        rng = np.random.default_rng(seed)
        dim = 2**size if variant == "nqubit" else size
        psi = random_state(dim, rng)
        m = haar_unitary(dim, rng) if variant == "qudit" else None
        rows = protocol_outcomes(psi, variant, m)
        probs = np.array([r[1] for r in rows])
        draws = rng.choice(len(rows), size=5000, p=probs / probs.sum())
        assert report["histogram"] == {str(rows[k][0]): int(np.sum(draws == k)) for k in range(len(rows))}


# ---------------------------------------------------------------------------
# teleportation equations: every label's difference of the two sides against
# the per-label body over the dense words.  The library sums over the
# outcomes once per call, into q (``_Setting.send``), and takes label b's
# difference as ``E = L - q`` times one operator; the oracle builds both
# sides and sums over the outcomes for each label.  The sums run in another
# order, so the differences agree to SIDE_TOL, a few ulps of the sides' O(1)
# entries, not bit for bit; a block's rows equal the single-label
# differences bit for bit.

SIDE_TOL = 1e-15

TELEPORT_EQ_CASES = (
    [("basic2", {"d": 2})]
    + [(v, {"d": d}) for v in ("qudit11", "qudit22", "qudit11p", "qudit22p") for d in (2, 3, 5, 8)]
    + [(v, {"n": n}) for v in ("nqubit11", "nqubit22") for n in (1, 2, 3)]
    + [(v, {"d": d}) for v in ("qudit11", "qudit22") for d in (4, 6)]
)
PROJECTIVE_EQ_CASES = (
    [(v, {"d": d}) for v in ("projective_qudit", "projective_qudit11") for d in (2, 3, 5, 8)]
    + [("projective_nqubit", {"n": n}) for n in (1, 2, 3)]
)


def _teleport_setting(variant, size, seed):
    """A setting with psi and M drawn: Haar M in form 22, Gaussian (non-unitary) M in form 11."""
    rng = np.random.default_rng(seed)
    setting = _Setting("teleport-eq", variant, **size)
    dim = setting.dim
    psi = random_state(dim, rng)
    if variant == "basic2":
        m = identity(dim)
    elif variant in UNITARY_M_REQUIRED:
        m = haar_unitary(dim, rng)
    else:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    setting.use(m)
    return setting, psi


def _label_differences(setting, labels):
    """``E U_b`` (form 22) or ``E U_b M^T`` (form 11), label b's difference of the two sides, for the
    labels ``labels``: a ``(B, D^2, D)`` stack."""
    ops = setting.words[labels] if setting.form == 22 else setting._operators(labels)
    return setting.difference() @ ops


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("variant,size", TELEPORT_EQ_CASES)
def test_block_sides_equal_per_label_body(variant, size, corrupt):
    # a block's differences of the two sides, one per label, against the oracle's lhs - rhs
    setting, psi = _teleport_setting(variant, size, seed=sum(size.values()))
    setting.send(psi, corrupt)
    count = len(setting.labels)
    want = [np.subtract(*teleport_sides(setting, psi, b, corrupt)) for b in range(count)]
    # every label at once, blocks of 3 and 2 that split K unevenly, and an index list out of order
    blocks = [slice(lo, lo + step) for step in (count, 3, 2) for lo in range(0, count, step)]
    blocks.append(list(range(count))[::-1])
    whole = _label_differences(setting, slice(None))
    for block in blocks:
        diffs = _label_differences(setting, block)
        indices = np.arange(count)[block]
        assert diffs.shape == (len(indices), setting.dim**2, setting.dim)
        for row, b in enumerate(indices):
            assert residual(diffs[row].reshape(-1), want[b]) <= SIDE_TOL
            np.testing.assert_array_equal(diffs[row], whole[b])


@pytest.mark.parametrize("block_labels", [None, 3])
@pytest.mark.parametrize("variant,size", TELEPORT_EQ_CASES)
def test_teleport_eq_suite_equals_per_label_loop(variant, size, block_labels, monkeypatch):
    setting = _Setting("teleport-eq", variant, **size)
    if block_labels:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_labels * 16 * setting.dim**3)
    rep = teleport_eq_suite(variant, **size, seed=4)
    # the suite's draws: psi, then M (Haar, or the identity for basic2)
    rng = np.random.default_rng(4)
    psi = random_state(setting.dim, rng)
    setting.use(identity(setting.dim) if variant == "basic2" else haar_unitary(setting.dim, rng))
    assert [c.case_id for c in rep.cases] == [f"label={lab}" for lab in setting.labels]
    for b, case in enumerate(rep.cases):
        assert abs(case.residual - residual(*teleport_sides(setting, psi, b))) <= SIDE_TOL
    assert rep.passed


@pytest.mark.parametrize("block_labels", [None, 3])
@pytest.mark.parametrize("variant,size", PROJECTIVE_EQ_CASES)
def test_projective_eq_equals_per_outcome_loop(variant, size, block_labels, monkeypatch):
    setting = _Setting("projective-eq", variant, **size)
    if block_labels:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_labels * 16 * setting.dim**3)
    rep = projective_eq_check(variant, **size, seed=5)
    # the check's draws: M for the qudit variants, then psi
    rng = np.random.default_rng(5)
    m = identity(setting.dim) if variant == "projective_nqubit" else haar_unitary(setting.dim, rng)
    setting.use(m)
    want = projective_residuals(setting, random_state(setting.dim, rng))
    assert [c.case_id for c in rep.cases] == [f"outcome={lab}" for lab in setting.labels]
    for case, res in zip(rep.cases, want):
        assert abs(case.residual - res) <= SIDE_TOL
    assert rep.passed


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_teleport_eq_blocks_bound_memory():
    # form 11, n = 4: 256 labels of 4096 complex entries (64 KiB) each, walked one label at a
    # time under the 64 KiB budget: one block of differences and its magnitudes, 0.40 MiB peak
    # once a first call has paid its one-time imports, not blocks of two labels (0.50 MiB),
    # of four (0.75 MiB) or every label at once (24 MiB)
    assert linalg.BLOCK_BYTES == 2**16
    teleport_eq_suite("nqubit11", n=1, seed=1)
    rep, peak = _traced_peak(lambda: teleport_eq_suite("nqubit11", n=4, seed=1))
    assert rep.passed
    assert peak < 0.45 * 2**20, peak
    # form 22, n = 5: one difference E of 32^3 entries (512 KiB) stands for all 1,024 labels
    # (2.4 MiB peak); the labels' stacked sides would take 512 MiB each
    rep, peak = _traced_peak(lambda: teleport_eq_suite("nqubit22", n=5, seed=1))
    assert rep.passed and len(rep.cases) == 1024
    assert peak < 4 * 2**20, peak


# sample_histogram's draws, 8 bytes each, are walked in blocks of this many in the test below
HISTOGRAM_BLOCK = 1000


@pytest.mark.parametrize(
    "samples", [1, HISTOGRAM_BLOCK - 1, HISTOGRAM_BLOCK, HISTOGRAM_BLOCK + 1, 3 * HISTOGRAM_BLOCK + 7, 100000]
)
@pytest.mark.parametrize("outcomes", [4, 16, 256])
@pytest.mark.parametrize("zeros", [False, True])
def test_sample_histogram_equals_choice_counts(outcomes, samples, zeros, monkeypatch):
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * HISTOGRAM_BLOCK)
    rng = np.random.default_rng(outcomes + samples)
    probs = rng.random(outcomes)
    if zeros:  # outcomes that can never be drawn, the first and last among them
        probs[rng.random(outcomes) < 0.5] = 0.0
        probs[[0, -1]] = 0.0
        probs[1] = 0.3
    seed = int(rng.integers(2**32))
    choice_rng, histogram_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.bincount(choice_rng.choice(outcomes, samples, p=probs / probs.sum()), minlength=outcomes)
    got = sample_histogram(probs, samples, histogram_rng)
    np.testing.assert_array_equal(got, want)
    assert got.sum() == samples
    assert not np.any(got[probs == 0])
    # and the generator is left where choice leaves it
    assert histogram_rng.random() == choice_rng.random()


def test_sample_histogram_memory_does_not_grow_with_samples():
    # 10^6 draws held at once, and their sorted copy, were 16 MB; one block of
    # draws is linalg.BLOCK_BYTES, 64 KiB
    probs = np.random.default_rng(3).random(16)
    choice_rng, histogram_rng = np.random.default_rng(4), np.random.default_rng(4)
    want = np.bincount(choice_rng.choice(16, 10**6, p=probs / probs.sum()), minlength=16)
    tracemalloc.start()
    try:
        got = sample_histogram(probs, 10**6, histogram_rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < 2**20, peak


@pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5]])
def test_sample_histogram_refuses_bad_probabilities(probs):
    with pytest.raises(ValueError, match="non-negative"):
        sample_histogram(np.array(probs), 10, np.random.default_rng(0))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "size", [{"d": 2}, {"d": 3}, {"d": 5}, {"d": 8}, {"n": 2}, {"d": 4}, {"d": 6}, {"n": 1}, {"n": 3}]
)
def test_extend_basis_matches_batched_product(size, side):
    words = bell_unitaries(**size)[1]
    local = words.dim
    # a Haar M, and a general one: the gathers hold for any M
    for m in (haar_unitary(local, np.random.default_rng(local)), random_matrix(local, np.random.default_rng(0))):
        got = extend_basis(words, m, side)
        assert residual(got, bell_vector(dense_extend(words, m, side))) <= 1e-15
    # a stack of M gives one stack of states per M, the same floats as one M at a time
    ms = haar_unitary(local, np.random.default_rng(local + 1), (2, 3))
    stacked = extend_basis(words, ms, side)
    assert stacked.shape == (2, 3, len(words.perm), local**2)
    for i, j in np.ndindex(2, 3):
        np.testing.assert_array_equal(stacked[i, j], extend_basis(words, ms[i, j], side))


# ---------------------------------------------------------------------------
# Haar trials drawn, factored and checked as stacks
#
# The basis-theorem and observable suites draw their Haar samples as stacks
# and check them in blocks of at most ``linalg.BLOCK_BYTES``.  The same
# floats must come out as from one draw, one Gram and one conjugation at a
# time, at the default blocks and at blocks of one matrix (a budget of one
# complex entry).

BLOCKS = {"default": None, "one-matrix": 16}


@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_draws_equal_per_call_draws(dim, lead):
    count = int(np.prod(lead))
    for stacked, single in ((haar_unitary, haar_one), (perturbed_nonunitary, perturbed_one)):
        stack_rng, loop_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        got = stacked(dim, stack_rng, lead=lead)
        assert got.shape == (*lead, dim, dim)
        np.testing.assert_array_equal(got.reshape(count, dim, dim), [single(dim, loop_rng) for _ in range(count)])
        assert stack_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("trials", [1, 4, 9])
def test_trial_matrices_interleave_per_call_draws(trials):
    stack_rng, loop_rng = np.random.default_rng(trials), np.random.default_rng(trials)
    unitaries, nonunitaries = _trial_matrices(3, trials, stack_rng)
    for u, m in zip(unitaries, nonunitaries, strict=True):
        np.testing.assert_array_equal(u, haar_one(3, loop_rng))
        np.testing.assert_array_equal(m, perturbed_one(3, loop_rng))
    assert stack_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("block", list(BLOCKS))
@pytest.mark.parametrize("trials", [1, 5, 50])
@pytest.mark.parametrize("size", [{"d": 2}, {"d": 3}, {"d": 5}, {"d": 8}, {"d": 16}, {"n": 1}, {"n": 2}, {"n": 3}])
def test_basis_theorem_suite_equals_per_trial_loop(size, trials, block, monkeypatch):
    """The suite's Grams come from M^dag M (``_gram_residuals``), the loop's from the extended states:
    the same sums in another order, so case ids and pass flags match and residuals agree to 1e-15."""
    if BLOCKS[block]:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", BLOCKS[block])
    seed = trials + sum(size.values())
    _assert_reports_match(
        basis_theorem_suite(**size, trials=trials, seed=seed), basis_theorem_loop(**size, trials=trials, seed=seed)
    )


def _poisoned(m, value, row, col):
    m = m.copy()
    m[row, col] = value
    return m


@pytest.mark.parametrize("block", list(BLOCKS))
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "size", [{"d": 2}, {"d": 3}, {"d": 4}, {"d": 5}, {"d": 6}, {"n": 1}, {"n": 2}, {"n": 3}]
)
def test_gram_residuals_match_extended_gram(size, side, block, monkeypatch):
    """Each trial's Gram residual from M^dag M (or (M M^dag)^T) and the words against the Gram of the
    extended states, for Haar, perturbed, NaN- and inf-bearing M, one Gram block per M or several."""
    if BLOCKS[block]:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", BLOCKS[block])
    words = bell_unitaries(**size)[1]
    local = words.dim
    rng = np.random.default_rng(local)
    haar = haar_unitary(local, rng, (3,))
    perturbed = perturbed_nonunitary(local, rng, lead=(3,))
    poisoned = [_poisoned(haar[0], np.nan, 1, 0), _poisoned(perturbed[1], np.nan, 0, local - 1),
                _poisoned(perturbed[2], np.inf, local - 1, 0)]
    ms = np.concatenate([haar, perturbed, poisoned])
    eye = np.eye(len(words.perm))
    want = [residual(gram(extend_basis(words, m, side)), eye) for m in ms]
    got = _gram_residuals(_gram_tables(words, side), ms, side)
    assert got.shape == (len(ms),)
    # NaN and inf must sit at the same trials
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert not np.isfinite(got[6:]).any() and np.isfinite(got[:6]).all()
    assert (got[:3] < 1e-12).all() and (got[3:6] > 1e-3).all()


@pytest.mark.parametrize("block", list(BLOCKS))
@pytest.mark.parametrize("conjugated", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_qudit_observable_suite_equals_per_conjugation_loop(d, k, conjugated, block, monkeypatch):
    if BLOCKS[block]:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", BLOCKS[block])
    seed = d + 10 * conjugated
    assert qudit_observable_suite(d, k, conjugated, seed).to_dict() == qudit_observable_loop(
        d, k, conjugated, seed
    ).to_dict()


# Bounds: the tracemalloc peak of each call in a fresh process (1.71 and 10.87 MiB
# for the first two, 0.46 MiB for the third) plus a margin of about 10-20 %.
@pytest.mark.parametrize(
    "run,bound_mib",
    [
        (lambda: basis_theorem_suite(d=16, trials=50), 2),
        (lambda: qudit_observable_suite(16, 0, 2), 12),
        # the trials are drawn in blocks too, so memory does not grow with their number
        (lambda: basis_theorem_suite(d=3, trials=3000), 1),
    ],
    ids=["basis-theorem-d16", "observables-d16", "basis-theorem-many-trials"],
)
def test_stacked_suites_bound_memory(run, bound_mib):
    tracemalloc.start()
    try:
        rep = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < bound_mib * 2**20, peak


# Each call walks blocks that a 400-byte budget cuts to one or a few items: the
# closure search (pauli._nearest, _closure_residuals) for the basis groups, the
# Haar stream (verify._haar_stream) and the conjugation rounds for the
# observables.
SMALL_BUDGET_CALLS = [
    "verify basis-group --d 3",
    "verify basis-group --family multi --n 2",
    "verify observables --family qudit --d 3 --conjugated 3",
]


@pytest.mark.parametrize("argv", SMALL_BUDGET_CALLS)
def test_small_budget_report_equals_default(argv, tmp_path, capsys, monkeypatch):
    runs = []
    for budget in (linalg.BLOCK_BYTES, 400):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        path = tmp_path / f"{budget}.json"
        code = main([*argv.split(), "--seed", "7", "--json", str(path)])
        runs.append((code, capsys.readouterr().out, path.read_bytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# the Bell family as monomials: every reader of the words' (rows, phase) pair
# against the dense (K, D, D) stack and the GEMMs over it that it replaced,
# at n = 1..3 and d = 2..6, to PAIR_TOL, a few ulps of the O(1) entries (the
# teleport-eq sides, the protocol, extend_basis and the reduced completeness
# are checked above, over the same sizes)

FAMILY_SIZES = [{"n": n} for n in (1, 2, 3)] + [{"d": d} for d in range(2, 7)]
FAMILY_IDS = [f"{k}{v}" for size in FAMILY_SIZES for k, v in size.items()]
PAIR_TOL = 1e-15


@pytest.mark.parametrize("size", FAMILY_SIZES, ids=FAMILY_IDS)
def test_grouped_gram_and_completeness_match_dense_words(size):
    words = bell_unitaries(**size)[1]
    # the Bell family tiles the D^2 positions and passes
    word_groups(words)
    assert gram_check(words).passed and completeness_check(words).passed
    # phases off the unit circle keep the row maps, and so the tiling,
    # and leave O(1) residuals that both routes must agree on
    scale = 1 + 0.25 * np.random.default_rng(len(words.perm)).standard_normal(words.phase.shape)
    skewed = Monomial(words.perm, words.phase * scale)
    word_groups(skewed)
    gram = gram_check(skewed).cases[0].residual
    comp = completeness_check(skewed).cases[0].residual
    assert gram > 0.1 and comp > 0.1
    assert abs(gram - residual(dense_gram(skewed), np.eye(len(words.perm)))) <= PAIR_TOL
    assert abs(comp - residual(dense_projector_sum(skewed), np.eye(words.dim**2))) <= PAIR_TOL


def _doctored(words, kind):
    """``words`` with a label repeated, a shift dropped (its words moved onto shift 0's row map),
    or entries 1 and 2 of shift 1's row map swapped, in every word of the shift ("overlap")
    or in its last word only ("split-map"), so that their supports overlap other shifts'."""
    rows, phase = words.perm.copy(), words.phase.copy()
    shift1 = np.flatnonzero((rows == rows[1]).all(axis=1))
    swapped = [0, 2, 1, *range(3, rows.shape[1])]
    if kind == "repeated-label":
        rows[-1], phase[-1] = rows[0], phase[0]
    elif kind == "dropped-shift":
        rows[shift1] = rows[0]
    elif kind == "overlap":
        rows[shift1] = rows[shift1][:, swapped]
    else:
        rows[shift1[-1]] = rows[shift1[-1], swapped]
    return Monomial(rows, phase)


DOCTORED = ["repeated-label", "dropped-shift", "overlap", "split-map"]
DOCTORED_SIZES = [s for s in FAMILY_SIZES if s.get("n", 2) > 1 and s.get("d", 3) > 2]


@pytest.mark.parametrize("kind", DOCTORED)
@pytest.mark.parametrize("size", DOCTORED_SIZES, ids=[i for i in FAMILY_IDS if i not in ("n1", "d2")])
def test_doctored_family_fails_through_partition_check(size, kind, monkeypatch):
    """A family whose row maps do not tile the D^2 positions is refused by every grouped reader:
    each raises ValueError, so none can return a passing report.  The dense oracle fails it too."""
    words = _doctored(bell_unitaries(**size)[1], kind)
    assert residual(dense_gram(words), np.eye(len(words.perm))) > 0.1
    ms = haar_unitary(words.dim, np.random.default_rng(0), (2,))
    readers = [
        lambda: word_groups(words),
        lambda: gram_check(words),
        lambda: completeness_check(words),
        lambda: _gram_residuals(_gram_tables(words, "left"), ms, "left"),
        lambda: _gram_residuals(_gram_tables(words, "right"), ms, "right"),
    ]
    # the teleportation checks read the family from bell_unitaries, through one _Setting
    monkeypatch.setattr(teleport, "bell_unitaries", lambda **kw: (bell_unitaries(**kw)[0], words))
    variants = ("nqubit11", "nqubit22") if "n" in size else ("qudit11", "qudit22")
    readers += [lambda v=v: teleport_eq_suite(v, **size) for v in variants]
    readers += [lambda: projective_eq_check("nqubit" if "n" in size else "qudit", **size)]
    for read in readers:
        with pytest.raises(ValueError, match="tile"):
            read()


# ---------------------------------------------------------------------------
# the stacked Monomial against the dense stack of its words


MONOMIAL_SIZES = FAMILY_SIZES + [{"d": 8}, {"n": 4}]
MONOMIAL_IDS = FAMILY_IDS + ["d8", "n4"]


@pytest.mark.parametrize("size", MONOMIAL_SIZES, ids=MONOMIAL_IDS)
def test_stack_dense_equals_each_word_dense(size):
    words = bell_unitaries(**size)[1]
    stack = words.dense()
    np.testing.assert_array_equal(stack, dense_words(words))
    np.testing.assert_array_equal(stack, dense_unitaries(**size))
    for a in range(len(words.perm)):
        np.testing.assert_array_equal(stack[a], words[a].dense())
        np.testing.assert_array_equal(stack[a], Monomial(words.perm[a], words.phase[a]).dense())
    assert stack.dtype == words.phase.dtype


@pytest.mark.parametrize("size", MONOMIAL_SIZES, ids=MONOMIAL_IDS)
def test_products_with_dense_equal_dense_products(size):
    """``words @ m``, ``m @ words`` and ``words.apply`` against the same products with the dense stack.

    Each entry of a dense product has one nonzero term.  Where every phase
    is exact (n qubits, d = 2 and 4: signs and powers of i) that term is one
    exact rounding on both routes, so they agree bit for bit; other qudit
    phases round their complex product one way in the BLAS (fused
    multiply-adds) and another in numpy's elementwise loop, a few ulps apart.
    """
    words = bell_unitaries(**size)[1]
    local, stack = words.dim, words.dense()
    if "n" in size or size["d"] in (2, 4):
        same = np.testing.assert_array_equal
    else:
        def same(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    rng = np.random.default_rng(local)
    # one M, a real M with two columns, and a stack of M: one product per M and word
    for m in (random_matrix(local, rng), rng.standard_normal((local, 2))):
        same(words @ m, stack @ m)
        np.testing.assert_array_equal(words.apply(m), words @ m)
        same(m.T @ words, m.T @ stack)
    ms = random_matrix(local, rng, (3,))
    same(words @ ms, stack @ ms[:, None])
    same(ms @ words, ms[:, None] @ stack)
    psi = random_state(local, rng)
    same(words @ psi, stack @ psi)
    same(words[3] @ psi, stack[3] @ psi)
    # a stack of K words times one of L words: every pair
    same((words[:5] @ words[-3:]).dense(), stack[:5, None] @ stack[-3:])
    same((words[2] @ words).dense(), stack[2] @ stack)
    # transposes and adjoints move entries and conjugate: no rounding on either route
    np.testing.assert_array_equal(words.T.dense(), np.swapaxes(stack, -1, -2))
    np.testing.assert_array_equal(words.adjoint().dense(), np.swapaxes(stack, -1, -2).conj())


def test_bijection_check_rejects_one_bad_row(monkeypatch):
    words = bell_unitaries(n=3)[1]
    for bad in ([0, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 8], [-1, 1, 2, 3, 4, 5, 6, 7]):
        for row in (0, 37, len(words.perm) - 1):
            perm = words.perm.copy()
            perm[row] = bad
            with pytest.raises(ValueError, match="bijection"):
                Monomial(perm, words.phase)
    # two bad rows whose out-of-range entries would fill each other's gaps
    perm = words.perm.copy()
    perm[0], perm[1] = [0, 1, 2, 3, 4, 5, 6, 8], [-1, 1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError, match="bijection"):
        Monomial(perm, words.phase)
    # the check walks the stack in blocks of rows, two rows of eight 8-byte entries here, the bad row in any of them
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2 * 8 * 8)
    Monomial(words.perm, words.phase)
    perm = words.perm.copy()
    perm[45, 0] = perm[45, 1]
    with pytest.raises(ValueError, match="bijection"):
        Monomial(perm, words.phase)


def test_bijection_check_adds_no_stack_sized_temporary():
    """The check's counts stay within one block: at n = 7, a (16384, 128) stack, far below the stack's size."""
    words = bell_unitaries(n=7)[1]
    tracemalloc.start()
    try:
        Monomial(words.perm, words.phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 < words.perm.nbytes, peak


PROJECTIVE_FORMS = [(v, {"d": d}) for v in ("projective_qudit", "projective_qudit11") for d in range(2, 7)] + [
    ("projective_nqubit", {"n": n}) for n in (1, 2, 3)
]


@pytest.mark.parametrize("variant,size", PROJECTIVE_FORMS)
def test_projective_factors_match_dense_words(variant, size):
    rng = np.random.default_rng(sum(size.values()))
    setting = _Setting("projective-eq", variant, **size)
    dim = setting.dim
    setting.use(identity(dim) if variant == "projective_nqubit" else haar_unitary(dim, rng))
    psi = random_state(dim, rng)
    forward, meas = dense_setting(setting)
    resource = dense_resource(setting, forward, 0)
    prepared = np.kron(psi, resource).reshape(dim * dim, dim)
    assert residual(setting.resource([0])[0], resource) <= PAIR_TOL
    assert residual(setting.meas(slice(None)), meas) <= PAIR_TOL
    assert residual(setting.meas_max(), np.abs(meas).max(axis=1)) <= PAIR_TOL
    assert residual(setting.branches(prepared), meas.conj() @ prepared) <= PAIR_TOL
    assert residual(setting.receivers(psi), dense_receivers(setting, forward, psi, 0)) <= PAIR_TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_system_matches_dense_words(n):
    np.testing.assert_array_equal(trace_system(n)[0], dense_trace_system(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_eigenequations_equal_dense_states(n):
    rng = np.random.default_rng(n)
    specs = multiqubit_observables(n)
    words = specs[0].states
    # the observables' own eigenvalues, wrong ones, and words that are not diagonal on the family
    cases = [(s.matrix, s.eigenvalues) for s in specs]
    cases += [(s.matrix, s.eigenvalues + rng.standard_normal(len(s.labels))) for s in specs]
    cases += [(word(int(z), int(x), n=2 * n), rng.choice([-1.0, 1.0], len(words.perm)))
              for z, x in rng.integers(0, 4**n, (6, 2))]
    for op, lam in cases:
        spec = ObservableSpec("o", op, specs[0].labels, lam, words)
        np.testing.assert_array_equal(_word_eigen_residuals(op, words, lam), dense_eigen_residuals(spec))


def _nan_phase(words, label=1, column=0):
    phase = words.phase.copy()
    phase[label, column] = np.nan
    return Monomial(words.perm, phase)


@pytest.mark.parametrize("size", [{"n": 2}, {"d": 3}], ids=["n2", "d3"])
def test_nan_phase_gives_nan_residuals(size, monkeypatch):
    words = bell_unitaries(**size)[1]
    local = words.dim
    poisoned = _nan_phase(words)
    assert np.isnan(gram_check(poisoned).cases[0].residual)
    assert np.isnan(completeness_check(poisoned).cases[0].residual)
    assert np.isnan(reduced_completeness(poisoned, random_matrix(local, np.random.default_rng(0))))
    for side in ("left", "right"):
        m = haar_unitary(local, np.random.default_rng(1))
        assert np.isnan(extend_basis(poisoned, m, side)[1]).any()
        assert np.isnan(_gram_residuals(_gram_tables(poisoned, side), m[None], side)).all()
    if "n" in size:
        spec = multiqubit_observables(size["n"])[0]
        per_state = _word_eigen_residuals(spec.matrix, poisoned, spec.eigenvalues)
        assert np.isnan(per_state[1]) and not np.isnan(per_state[0])
    # the teleportation checks read the family from bell_unitaries
    real = teleport.bell_unitaries
    monkeypatch.setattr(teleport, "bell_unitaries", lambda **kw: (real(**kw)[0], _nan_phase(real(**kw)[1])))
    qubits = "n" in size
    for variant in ("nqubit11", "nqubit22") if qubits else ("qudit11", "qudit22"):
        rep = teleport_eq_suite(variant, **size, seed=1)
        assert np.isnan(rep.cases[1].residual) and not rep.passed
    rep = projective_eq_check("nqubit" if qubits else "qudit", **size, seed=1)
    assert np.isnan(rep.cases[1].residual) and not rep.cases[1].passed
    assert rep.cases[0].passed


@pytest.mark.parametrize(
    "run,bound_mib",
    [
        (lambda: gram_check(bell_unitaries(n=6)[1]), 150),
        (lambda: completeness_check(bell_unitaries(n=6)[1]), 150),
        (lambda: projective_eq_check("nqubit", n=6, seed=0), 150),
        # a dense (1024, 32, 32) stack of the n = 5 family's words alone is 16 MiB
        (lambda: multiqubit_observable_suite(5), 8),
    ],
    ids=["gram-multi-n6", "completeness-multi-n6", "projective-eq-nqubit-n6", "observables-multi-n5"],
)
def test_bell_family_readers_build_no_dense_stack(run, bound_mib):
    # a dense (4096, 64, 64) stack of words alone is 256 MiB
    tracemalloc.start()
    try:
        rep = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < bound_mib * 2**20, peak
