import tracemalloc
from itertools import product

import numpy as np
import pytest

from bellkit.bell import Circuit, all_labels, bell2, product_ket
from bellkit.braid import (
    TLRep,
    bell_action_check,
    bell_bijection,
    bell_transform,
    braid_rep_check,
    braid_teleport_multi_check,
    braid_teleport_single_check,
    correction_abc,
    sign_exponent,
    table1_abc,
    table1_check,
    tl_generators,
    tl_relation_check,
    twisted_yb_gates,
    yang_baxter_check,
)
from bellkit.linalg import dagger, haar_unitary, identity, residual
from dense import dense_circuit_matrix, kron

SIGN_PAIRS = list(product((1, -1), repeat=2))


def test_bell_transform_matrix():
    b = bell_transform(1, 1)
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]], dtype=complex
    ) / np.sqrt(2)
    assert residual(b, expected) == 0
    with pytest.raises(ValueError):
        bell_transform(0, 1)


def test_bell_transform_maps_00_to_phase_bell():
    # B(1,1)|00> = |phi(1,0)>
    assert residual(bell_transform(1, 1) @ product_ket((0, 0)), bell2(1, 0)) == 0


def test_bell_transform_minus_minus_action():
    b = bell_transform(-1, -1)
    for i, j in product((0, 1), repeat=2):
        lhs = b @ product_ket((i, j))
        assert residual(lhs, (-1.0) ** i * bell2(i, i ^ j)) == 0


@pytest.mark.parametrize("eps,eta", SIGN_PAIRS)
def test_bell_action_unified(eps, eta):
    rep = bell_action_check(eps, eta)
    assert rep.passed, [(c.case_id, c.residual) for c in rep.cases]


def test_sign_exponent_closed_forms():
    for i, j in product((0, 1), repeat=2):
        assert sign_exponent(1, 1, i, j) == 0
        assert sign_exponent(-1, -1, i, j) == i
        assert sign_exponent(-1, 1, i, j) == i * (j ^ 1)
        assert sign_exponent(1, -1, i, j) == i * j


def test_bijections_are_bijective():
    for eps, eta in SIGN_PAIRS:
        images = {bell_bijection(eps, eta, i, j) for i, j in product((0, 1), repeat=2)}
        assert len(images) == 4


def test_dagger_negates_parameters():
    for eps, eta in SIGN_PAIRS:
        assert residual(dagger(bell_transform(eps, eta)), bell_transform(-eps, -eta)) == 0


@pytest.mark.parametrize("eps,eta", SIGN_PAIRS)
def test_ybe_bell_transform(eps, eta):
    assert yang_baxter_check(bell_transform(eps, eta), 2).max_residual < 1e-12


def test_ybe_swap_and_cnot():
    swap = dense_circuit_matrix(Circuit(2, [("SWAP", (0, 1))]))
    assert yang_baxter_check(swap, 2).passed
    cnot = dense_circuit_matrix(Circuit(2, [("CNOT", (0, 1))]))
    assert yang_baxter_check(cnot, 2).max_residual >= 0.5
    with pytest.raises(ValueError):
        yang_baxter_check(swap, 3)


def test_ybe_preserved_under_local_conjugation():
    # (V x V) R (V x V)^dag stays a solution for unitary V
    rng = np.random.default_rng(0)
    v = haar_unitary(2, rng)
    vv = kron(v, v)
    r = vv @ bell_transform(-1, 1) @ dagger(vv)
    assert yang_baxter_check(r, 2).max_residual < 1e-12


@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_braid_relations(strands):
    rep = braid_rep_check(strands, -1, 1)
    assert rep.passed
    if strands >= 4:
        assert any("far-commute(1,3)" in c.case_id for c in rep.cases)


def test_far_commute_reads_zero_for_any_finite_gate():
    """Both sides of far-commute(i,j) are built as the same outer product ``x[:, b] x X``
    (``braid._pair_block``): exactly 0.0 for any finite X, a failure only from a NaN or inf entry."""
    rng = np.random.default_rng(6)
    gate = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    proj = np.outer(state, state.conj()) / np.vdot(state, state)
    checks = ((lambda x: braid_rep_check(6, gate=x), gate), (lambda x: tl_relation_check(TLRep(6, 4, x)), proj))
    for check, x in checks:
        poisoned = x.copy()
        poisoned[1, 2] = np.nan
        for mat, want in ((x, 0.0), (poisoned, np.nan)):
            far = [c for c in check(mat).cases if c.case_id.startswith("far-commute")]
            assert len(far) == 6
            np.testing.assert_array_equal([c.residual for c in far], want)
            assert [c.passed for c in far] == [want == 0.0] * 6


def test_braid_relations_cnot_control():
    cnot = dense_circuit_matrix(Circuit(2, [("CNOT", (0, 1))]))
    rep = braid_rep_check(3, gate=cnot)
    braid_cases = [c for c in rep.cases if c.case_id.startswith("braid")]
    assert max(c.residual for c in braid_cases) > 1e-6


def test_tl_generator_shape():
    # on two strands e_1 is the projector itself
    rep = tl_generators(2, 2, (0, 0))
    phi = bell2(0, 0)
    assert residual(rep.proj, np.outer(phi, phi.conj())) == 0


@pytest.mark.parametrize(
    "strands,d", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
)
def test_tl_relations_all_labels(strands, d):
    for a in range(d):
        for b in range(d):
            rep = tl_relation_check(tl_generators(strands, d, (a, b)))
            assert rep.passed, (d, strands, a, b)


def test_tl_relations_with_unitary_m():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        rep = tl_relation_check(tl_generators(3, d, (1, d - 1), haar_unitary(d, rng)))
        assert rep.passed


def test_tl_nonunitary_m_breaks_relation():
    rep = tl_relation_check(tl_generators(3, 2, (0, 0), np.diag([1.0, 2.0])))
    tl_cases = [c for c in rep.cases if c.case_id.startswith("tl(")]
    assert max(c.residual for c in tl_cases) > 1e-6
    # projector idempotency survives the skew (the state stays normalized)
    idem = [c for c in rep.cases if c.case_id.startswith("idempotent")]
    assert max(c.residual for c in idem) < 1e-12


def test_tl_loop_parameter_scaling():
    for d in (2, 3):
        # on three strands e_1 = P x 1 and e_2 = 1 x P span the whole space
        p = tl_generators(3, d).proj
        e1, e2 = kron(p, identity(d)), kron(identity(d), p)
        assert residual(e1 @ e2 @ e1, e1 / d**2) < 1e-12


def test_table1_exact():
    rep = table1_check()
    assert rep.passed
    assert all(c.residual == 0 for c in rep.cases)


def test_table1_row_values_spotcheck():
    # row (eps,eta)=(1,1): a = i xor (k xor 1)(i xor j), b = i+j+k+m, c = i+k+1
    assert table1_abc(1, 1, k=0, m=0, i=1, j=0) == (1 ^ (1 & 1), 1, 0)
    assert correction_abc(1, 1, -1, -1, 0, 0, 1, 0) == table1_abc(1, 1, 0, 0, 1, 0)


@pytest.mark.parametrize("eps_l,eta_l", SIGN_PAIRS)
@pytest.mark.parametrize("eps_r,eta_r", SIGN_PAIRS)
def test_braid_teleport_single_all_signs(eps_l, eta_l, eps_r, eta_r):
    for k, m in product((0, 1), repeat=2):
        rep = braid_teleport_single_check(eps_l, eta_l, eps_r, eta_r, k, m, seed=2)
        assert rep.passed, (eps_l, eta_l, eps_r, eta_r, k, m)


def test_braid_teleport_resource_forced_by_km_zero():
    # k' = m' = 0 forces k = m = (1 + eta_l)/2
    for eps_l, eta_l in SIGN_PAIRS:
        k = m = (1 + eta_l) // 2
        kp, mp = bell_bijection(eps_l, eta_l, k, m)
        assert (kp, mp) == (0, 0)


def test_braid_teleport_worked_specialization():
    # left B(-1,1) on |11>, right (-1,1): correction (-1)^(i(j+1)) T^dag(j+1, i+j)
    rep = braid_teleport_single_check(-1, 1, -1, 1, 1, 1, seed=3)
    assert rep.passed
    # right (1,-1): correction (-1)^(ij) T^dag(j, i+j)
    rep = braid_teleport_single_check(-1, 1, 1, -1, 1, 1, seed=3)
    assert rep.passed
    for i, j in product((0, 1), repeat=2):
        assert bell_bijection(-1, 1, i, j) == ((j ^ 1), (i ^ j))
        assert bell_bijection(1, -1, i, j) == (j, (i ^ j))


def test_twisted_gates_n1_equal_bell_transform():
    for eps, eta in SIGN_PAIRS:
        for kind in ("plain", "conjugated"):
            assert residual(
                twisted_yb_gates(1, (eps,), (eta,), kind), bell_transform(eps, eta)
            ) == 0


def test_twisted_gate_ybe_claims():
    plain = twisted_yb_gates(2, (-1, 1), (1, 1), "plain")
    conj = twisted_yb_gates(2, (-1, 1), (1, 1), "conjugated")
    assert yang_baxter_check(conj, 4).max_residual < 1e-12
    assert yang_baxter_check(plain, 4).max_residual > 1e-6
    with pytest.raises(ValueError):
        twisted_yb_gates(2, (1,), (1, 1), "plain")
    with pytest.raises(ValueError):
        twisted_yb_gates(2, (1, 1), (1, 1), "sideways")


def _case(rep, a, b):
    """The case of resource ket |ab> in a multi-check report."""
    (case,) = [c for c in rep.cases if c.case_id == f"a={a} b={b}"]
    return case


def test_multi_braid_teleport_reduces_to_single_at_n1():
    rep = braid_teleport_multi_check(1, (-1,), (1,), (1,), (-1,), seed=4)
    assert rep.passed
    assert _case(rep, (1,), (1,)).passed
    single = braid_teleport_single_check(-1, 1, 1, -1, 1, 1, seed=4)
    assert single.passed


def test_multi_braid_teleport_worked_n2():
    # the (-1,-1)/(1,1) left signs with a = b = 11 and right epsilon = 1, eta = -1
    eps_l = eta_r = (-1, -1)
    eta_l = eps_r = (1, 1)
    rep = braid_teleport_multi_check(2, eps_l, eta_l, eps_r, eta_r, seed=5)
    assert [c.case_id for c in rep.cases] == [f"a={a} b={b}" for a, b in all_labels(2)]
    for a, b in all_labels(2):
        assert _case(rep, a, b).passed, (a, b)


def test_multi_braid_teleport_blocked_form():
    eps = (-1, -1)
    eta = (1, 1)
    rep = braid_teleport_multi_check(2, eps, eta, eps, eta, seed=6, blocked=True)
    assert rep.params["form"] == "blocked"
    for a, b in [((1, 1), (1, 1)), ((0, 1), (1, 0))]:
        assert _case(rep, a, b).passed


def test_tlrep_dataclass():
    rep = TLRep(3, 2, tl_generators(3, 2).proj)
    assert rep.n == 3 and rep.d == 2 and rep.proj.shape == (4, 4)
    idem = [c.case_id for c in tl_relation_check(rep).cases if c.case_id.startswith("idem")]
    assert idem == ["idempotent e1", "idempotent e2"]


@pytest.mark.parametrize(
    "strands,d,check",
    [
        (5, 4, lambda: tl_relation_check(
            tl_generators(5, 4, (1, 3), haar_unitary(4, np.random.default_rng(3))))),
        (6, 2, lambda: braid_rep_check(6, -1, 1)),
    ],
    ids=["tl", "braid"],
)
def test_relation_checks_stay_on_joint_support(strands, d, check):
    # one dense generator on the full space is d^n x d^n complex (16 bytes an
    # entry); the joint-support arrays are at most d^4 x d^4
    check()
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d ** (2 * strands)
