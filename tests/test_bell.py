import numpy as np
import pytest

from bellkit.bell import (
    Circuit,
    all_labels,
    bell_unitaries,
    bell_vector,
    concurrence,
    concurrence_oracle,
    expand_in_bell_basis,
    ghz_state,
    multi_bell,
    omega,
    pair_product_bell,
    prep_circuit,
    product_ket,
    qudit_bell,
    twist_decomposition,
)
from bellkit.linalg import (
    dagger,
    haar_unitary,
    identity,
    residual,
)
from bellkit.pauli import bits_to_int, word
from dense import (
    GenPauliWord,
    PauliWord,
    dense_circuit_matrix,
    gen_word_matrix,
    kron,
    reconstruct,
    twist,
    word_matrix,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_omega():
    assert residual(omega(2), np.array([1, 0, 0, 1]) / np.sqrt(2)) == 0
    for d in range(2, 17):
        assert abs(np.linalg.norm(omega(d)) - 1) < 1e-12
    with pytest.raises(ValueError):
        omega(1)


def test_omega_trace_inner_product():
    # <Omega| (N^dag L x 1) |Omega> = tr(N^dag L) / d
    rng = np.random.default_rng(3)
    l, n = rand_complex(rng, (3, 3)), rand_complex(rng, (3, 3))
    lhs = np.vdot(kron(n, identity(3)) @ omega(3), kron(l, identity(3)) @ omega(3))
    assert abs(lhs - np.trace(n.conj().T @ l) / 3) < 1e-12


def test_m_shift_identity():
    # (M x 1)|Omega> = (1 x M^T)|Omega> for any square M
    rng = np.random.default_rng(4)
    for d in range(2, 9):
        m = rand_complex(rng, (d, d))
        lhs = kron(m, identity(d)) @ omega(d)
        rhs = kron(identity(d), m.T) @ omega(d)
        assert residual(lhs, rhs) < 1e-12


def test_bell2_states():
    # the d = 2 qudit word and the n = 1 qubit word give the same state, bit for bit
    for a in (0, 1):
        for b in (0, 1):
            assert qudit_bell(2, a, b).tobytes() == bell_vector(word(a, b, n=1).dense()).tobytes()
    assert residual(qudit_bell(2, 0, 0), np.array([1, 0, 0, 1]) / np.sqrt(2)) == 0
    states = [qudit_bell(2, a, b) for a in (0, 1) for b in (0, 1)]
    gram = np.array([[np.vdot(u, v) for v in states] for u in states])
    assert residual(gram, np.eye(4)) < 1e-15


def test_bell2_circuit_route():
    # CNOT (H x 1) |ab> reproduces every Bell state
    circ = Circuit(2)
    circ.append("H", 0)
    circ.append("CNOT", 0, 1)
    mat = dense_circuit_matrix(circ)
    for a in (0, 1):
        for b in (0, 1):
            assert residual(mat @ product_ket((a, b)), qudit_bell(2, a, b)) < 1e-15


def test_qudit_bell_family():
    assert residual(qudit_bell(3, 0, 0), omega(3)) == 0
    states = [qudit_bell(3, a, b) for a in range(3) for b in range(3)]
    gram = np.array([[np.vdot(u, v) for v in states] for u in states])
    assert residual(gram, np.eye(9)) < 1e-12
    total = sum(np.outer(s, s.conj()) for s in states)
    assert residual(total, np.eye(9)) < 1e-12
    with pytest.raises(ValueError):
        qudit_bell(3, 3, 0)


def test_twist_small_cases():
    assert residual(twist(1), np.eye(4)) == 0
    swap = dense_circuit_matrix(Circuit(2, [("SWAP", (0, 1))]))
    assert residual(twist(2), kron(identity(2), swap, identity(2))) == 0
    out = twist(3) @ product_ket("011011")
    assert np.argmax(np.abs(out)) == bits_to_int((0, 1, 1, 1, 0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twist_decomposition(n):
    circ = twist_decomposition(n)
    assert len(circ.gates) == n * (n - 1) // 2
    assert all(name == "SWAP" for name, _ in circ.gates)
    assert residual(dense_circuit_matrix(circ), twist(n)) == 0


def test_twist_decomposition_n2_is_middle_swap():
    assert twist_decomposition(2).gates == [("SWAP", (1, 2))]


def test_twist_conjugation_property():
    # tau (O_1 x ... x O_2n) tau^dag regroups odd factors then even factors
    rng = np.random.default_rng(5)
    for n in (2, 3):
        ops = [rand_complex(rng, (2, 2)) for _ in range(2 * n)]
        tau = twist(n)
        lhs = tau @ kron(*ops) @ dagger(tau)
        rhs = kron(*ops[0::2] + ops[1::2])
        assert residual(lhs, rhs) < 1e-12


def test_twist_intertwines_word_layouts():
    # tau . prod_k (T(a_k b_k) x 1) = (T_n(ab) x 1^n) . tau
    tau = twist(2)
    for a, b in all_labels(2):
        interleaved = kron(*[
            word_matrix(PauliWord((a[k],), (b[k],))) if q == 0 else identity(2)
            for k in range(2) for q in range(2)
        ])
        blocked = kron(word_matrix(PauliWord(a, b)), identity(4))
        assert residual(tau @ interleaved, blocked @ tau) == 0


def test_multi_bell():
    assert residual(multi_bell(1, (0,), (0,)), qudit_bell(2, 0, 0)) == 0
    for n in (1, 2, 3):
        assert residual(multi_bell(n, 0, 0), omega(2**n)) == 0
    for a, b in all_labels(2):
        assert residual(multi_bell(2, a, b), twist(2) @ pair_product_bell(2, a, b)) < 1e-15
    with pytest.raises(ValueError):
        multi_bell(2, (0,), (0, 1))


def test_multi_bell_orthonormal_and_complete():
    for n in (1, 2, 3):
        states = [multi_bell(n, a, b) for a, b in all_labels(n)]
        gram = np.array([[np.vdot(u, v) for v in states] for u in states])
        assert residual(gram, np.eye(4**n)) < 1e-12
        total = sum(np.outer(s, s.conj()) for s in states)
        assert residual(total, np.eye(4**n)) < 1e-12


def test_prep_circuit():
    circ = prep_circuit(1, (0,), (0,))
    assert [g[0] for g in circ.gates] == ["H", "CNOT"]
    zero = product_ket((0, 0))
    assert residual(dense_circuit_matrix(circ) @ zero, qudit_bell(2, 0, 0)) < 1e-15
    for a, b in all_labels(2):
        circ = prep_circuit(2, a, b)
        state = dense_circuit_matrix(circ) @ product_ket((0,) * 4)
        assert residual(state, multi_bell(2, a, b)) < 1e-12
        assert len(circ.gates) == 4 + sum(a) + sum(b)


def test_expand_delta_amplitudes():
    amps = expand_in_bell_basis(multi_bell(2, (1, 0), (0, 1)), 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[bits_to_int((1, 0)), bits_to_int((0, 1))] = 1
    assert residual(amps, expected) < 1e-12
    assert abs(amps[bits_to_int((1, 0)), bits_to_int((0, 1))] - 1) < 1e-12


def test_expand_product_ket_formula():
    # |j l> has amplitudes (-1)^(sum a_k j_k) delta(b, l xor j) / sqrt(2^n)
    n = 2
    j, l = (1, 0), (1, 1)
    amps = expand_in_bell_basis(product_ket(j + l), n)
    for a, b in all_labels(n):
        if b == tuple(x ^ y for x, y in zip(l, j)):
            want = (-1.0) ** (sum(x * y for x, y in zip(a, j))) / np.sqrt(2**n)
        else:
            want = 0.0
        assert abs(amps[bits_to_int(a), bits_to_int(b)] - want) < 1e-12


def test_expand_ghz_amplitudes():
    # d+- = ((-1)^(a.j) +- (-1)^(a.jbar)) delta(b, l xor j) / sqrt(2^(n+1))
    n = 2
    j, l = (0, 1), (1, 1)
    jbar = tuple(1 - x for x in j)
    for sign in (1, -1):
        amps = expand_in_bell_basis(ghz_state(n, j, l, sign), n)
        for a, b in all_labels(n):
            if b == tuple(x ^ y for x, y in zip(l, j)):
                want = (
                    (-1.0) ** sum(x * y for x, y in zip(a, j))
                    + sign * (-1.0) ** sum(x * y for x, y in zip(a, jbar))
                ) / np.sqrt(2 ** (n + 1))
            else:
                want = 0.0
            assert abs(amps[bits_to_int(a), bits_to_int(b)] - want) < 1e-12


def test_expansion_reconstructs():
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    amps = expand_in_bell_basis(psi, 2)
    assert abs(np.sum(np.abs(amps) ** 2) - 1) < 1e-12
    assert residual(reconstruct(amps, 2), psi) < 1e-12


def test_expand_rejects_unnormalized():
    with pytest.raises(ValueError):
        expand_in_bell_basis(np.ones(16), 2)


def test_concurrence_worked_examples():
    for a, b in all_labels(2):
        assert abs(concurrence(multi_bell(2, a, b), 2) - 1) < 1e-10
    assert concurrence(product_ket((0, 1, 1, 0)), 2) < 1e-10
    assert concurrence_oracle(product_ket((0,) * 4), 2) < 1e-10
    for n in (1, 2, 3):
        for sign in (1, -1):
            assert abs(concurrence(ghz_state(n, 0, 0, sign), n) - 1) < 1e-10


def test_concurrence_formula_vs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        assert abs(concurrence(psi, 2) - concurrence_oracle(psi, 2)) < 1e-10


def _concurrence_off_at(monkeypatch, offsets):
    """``bell.concurrence`` with ``offsets[t]`` added on its call t (counted from 0): trial t of a check."""
    from bellkit import bell

    real, calls = bell.concurrence, []

    def patched(state, n):
        calls.append(None)
        return real(state, n) + offsets.get(len(calls) - 1, 0.0)

    monkeypatch.setattr(bell, "concurrence", patched)


def test_concurrence_failure_names_witness_trial(monkeypatch):
    from bellkit.bell import concurrence_check

    def formula_case(offsets):
        monkeypatch.undo()
        _concurrence_off_at(monkeypatch, offsets)
        return concurrence_check(2, 4, 3, 1e-12).cases[0]

    # passing ids are unchanged
    case = formula_case({})
    assert (case.case_id, case.passed) == ("formula-vs-oracle (4 random states)", True)
    # the worst trial is the witness, not the first failing one
    case = formula_case({1: 0.25, 2: 0.5})
    assert case.case_id == "formula-vs-oracle (4 random states) witness=trial 2"
    assert case.residual == pytest.approx(0.5) and not case.passed
    # a NaN trial is the witness even when a finite one is worse
    case = formula_case({0: 0.75, 3: np.nan})
    assert case.case_id == "formula-vs-oracle (4 random states) witness=trial 3"
    assert np.isnan(case.residual) and not case.passed


def test_circuit_validation():
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.append("H", 2)
    with pytest.raises(ValueError):
        circ.append("CNOT", 0, 0)
    with pytest.raises(ValueError):
        circ.append("T", 0)


def test_qasm_export():
    circ = prep_circuit(1, (1,), (1,))
    text = circ.to_qasm()
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert lines[3:] == ["h q[0];", "cx q[0],q[1];", "x q[0];", "z q[0];"]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
def test_bell_unitaries_qudit_exact(d):
    labels, words = bell_unitaries(d=d)
    assert labels == [(a, b) for a in range(d) for b in range(d)]
    assert words.perm.shape == words.phase.shape == (d * d, d)
    for a, (alpha, beta) in enumerate(labels):
        assert residual(words[a].dense(), gen_word_matrix(GenPauliWord(d, alpha, beta))) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bell_unitaries_nqubit_exact(n):
    labels, words = bell_unitaries(n=n)
    assert words.perm.shape == words.phase.shape == (4**n, 2**n) and words.phase.dtype == np.float64
    assert labels == list(all_labels(n))
    assert labels == sorted(labels) and len(set(labels)) == 4**n
    assert labels[1] == ((0,) * n, (0,) * (n - 1) + (1,))
    for (a, b), u in zip(labels, words.dense()):
        assert residual(u, word_matrix(PauliWord(a, b))) == 0
        assert residual(u.T, dagger(u)) == 0  # real signed permutation


def test_bell_unitaries_needs_exactly_one_size():
    with pytest.raises(ValueError):
        bell_unitaries()
    with pytest.raises(ValueError):
        bell_unitaries(d=2, n=1)
