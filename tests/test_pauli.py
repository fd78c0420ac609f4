from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.linalg import Monomial, dagger, residual
from dense import (
    GenPauliWord,
    PauliWord,
    bit_dot,
    gen_word_dagger,
    gen_word_matrix,
    gen_word_mul,
    gen_x,
    gen_z,
    hs_inner,
    pauli_gate,
    word_dagger,
    word_matrix,
    word_mul,
)
from bellkit.pauli import (
    as_bits,
    basis_group_check,
    qubit_word_set,
    qudit_word_set,
    word,
)


def all_words(n: int):
    """The 4^n unsigned n-qubit words, labels in (alpha, beta) lexicographic order."""
    for za in product((0, 1), repeat=n):
        for xb in product((0, 1), repeat=n):
            yield PauliWord(za, xb)


def test_pauli_gates():
    # I, X and Z are the one-qubit words; only the tests' table holds H
    for name, (a, b) in {"I": (0, 0), "X": (0, 1), "Z": (1, 0)}.items():
        assert residual(word(a, b, n=1).dense(), pauli_gate(name)) == 0
    assert residual(word(0, 1, n=1).dense(), np.array([[0, 1], [1, 0]])) == 0
    h = pauli_gate("H")
    assert residual(h @ h, np.eye(2)) < 1e-15
    assert residual(h, (pauli_gate("X") + pauli_gate("Z")) / np.sqrt(2)) == 0
    with pytest.raises(ValueError):
        pauli_gate("Y")


def test_gen_x():
    assert residual(gen_x(2), pauli_gate("X")) == 0
    # wraparound: the shift sends |2> to |0> at d=3
    ket2 = np.array([0, 0, 1], dtype=complex)
    assert residual(gen_x(3) @ ket2, np.array([1, 0, 0], dtype=complex)) == 0
    for d in range(2, 9):
        assert residual(np.linalg.matrix_power(gen_x(d), d), np.eye(d)) < 1e-15
    with pytest.raises(ValueError):
        gen_x(1)


def test_gen_z():
    assert residual(gen_z(2), pauli_gate("Z")) < 1e-15
    assert abs(gen_z(3)[1, 1] - np.exp(2j * np.pi / 3)) < 1e-15
    for d in range(2, 9):
        omega = np.exp(2j * np.pi / d)
        assert residual(gen_z(d) @ gen_x(d), omega * gen_x(d) @ gen_z(d)) < 1e-12
        assert residual(np.linalg.matrix_power(gen_z(d), d), np.eye(d)) < 1e-12


def test_gen_z_not_hermitian_above_two():
    for d in range(3, 9):
        assert residual(gen_z(d), dagger(gen_z(d))) > 0.5


def test_omega_sum_identity():
    # sum_i omega^(k i) = d when d divides k, else 0
    for d in range(2, 13):
        omega = np.exp(2j * np.pi / d)
        for k in range(-3 * d, 3 * d + 1):
            total = sum(omega ** (k * i) for i in range(d))
            expected = d if k % d == 0 else 0
            assert abs(total - expected) < 1e-10, (d, k)


def test_gen_word_matrix():
    zx = pauli_gate("Z") @ pauli_gate("X")
    assert residual(gen_word_matrix(GenPauliWord(2, 1, 1)), zx) == 0
    # nine words at d=3, phase representative gamma=0, form an HS-orthonormal set
    words = [gen_word_matrix(GenPauliWord(3, a, b)) for a in range(3) for b in range(3)]
    gram = np.array([[hs_inner(u, v) for v in words] for u in words])
    assert residual(gram, np.eye(9)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gen_word_dagger_rule(d):
    # matches the closed form with exponent -(gamma + alpha beta) and negated labels
    for a in range(d):
        for b in range(d):
            for g in range(d):
                w = GenPauliWord(d, a, b, g)
                assert residual(
                    dagger(gen_word_matrix(w)), gen_word_matrix(gen_word_dagger(w))
                ) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gen_word_mul_matches_matrices(d):
    for a in range(d):
        for b in range(d):
            w1 = GenPauliWord(d, a, b, 1)
            w2 = GenPauliWord(d, (a + 1) % d, (d - b) % d, 2)
            assert residual(
                gen_word_matrix(gen_word_mul(w1, w2)),
                gen_word_matrix(w1) @ gen_word_matrix(w2),
            ) < 1e-12


def test_word_matrix_examples():
    assert residual(word_matrix(PauliWord((0,), (0,))), np.eye(2)) == 0
    zx_word = word_matrix(PauliWord((1, 0), (0, 1)))
    assert residual(zx_word, np.kron(pauli_gate("Z"), pauli_gate("X"))) == 0


def test_word_dagger_rule_all_n2():
    for w in all_words(2):
        assert residual(dagger(word_matrix(w)), word_matrix(word_dagger(w))) == 0
        assert word_dagger(w).sign == bit_dot(w.z_exps, w.x_exps)


def test_word_mul_identity_and_zx():
    e = PauliWord((0,), (0,))
    assert word_mul(e, e) == e
    z, x = PauliWord((1,), (0,)), PauliWord((0,), (1,))
    prod = word_mul(z, x)
    assert prod.sign == 0
    assert residual(word_matrix(prod), pauli_gate("Z") @ pauli_gate("X")) == 0
    with pytest.raises(ValueError):
        word_mul(z, PauliWord((1, 1), (0, 0)))


def test_word_closure_exhaustive_n2():
    words = [PauliWord(w.z_exps, w.x_exps, s) for w in all_words(2) for s in (0, 1)]
    index = {(w.z_exps, w.x_exps, w.sign) for w in words}
    for a in words:
        for b in words:
            c = word_mul(a, b)
            assert (c.z_exps, c.x_exps, c.sign) in index


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_word_mul_symbolic_numeric_agreement(seed, n):
    rng = np.random.default_rng(seed)
    bits = lambda: tuple(int(b) for b in rng.integers(0, 2, n))
    a = PauliWord(bits(), bits(), int(rng.integers(0, 2)))
    b = PauliWord(bits(), bits(), int(rng.integers(0, 2)))
    assert residual(word_matrix(word_mul(a, b)), word_matrix(a) @ word_matrix(b)) == 0


def test_words_hs_orthonormal():
    for n in (1, 2, 3):
        mats = [word_matrix(w) for w in all_words(n)]
        gram = np.array([[hs_inner(u, v) for v in mats] for u in mats])
        assert residual(gram, np.eye(4**n)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qubit_word_set_order_exact(n):
    # basis-group witness ids index into this order: each word, then its negative
    want = [word_matrix(PauliWord(w.z_exps, w.x_exps, s)) for w in all_words(n) for s in (0, 1)]
    got = qubit_word_set(n).dense()
    assert len(got) == len(want) == 2 * 4**n
    assert all(residual(g, w) == 0 for g, w in zip(got, want))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_qudit_word_set_order_exact(d):
    want = [gen_word_matrix(GenPauliWord(d, a, b, g)) for g in range(d) for a in range(d) for b in range(d)]
    got = qudit_word_set(d).dense()
    assert len(got) == len(want) == d**3
    assert all(residual(g, w) == 0 for g, w in zip(got, want))


def test_basis_group_check():
    assert basis_group_check(qudit_word_set(3)).passed
    assert basis_group_check(qubit_word_set(2)).passed
    bad = basis_group_check(Monomial([[0, 1], [0, 1]], [[1.0, 1.0], [1.0, 2.0]]))  # 1 and diag(1, 2)
    assert not bad.passed
    assert not bad.cases[0].passed  # unitarity is the first failure
    with pytest.raises(ValueError):
        basis_group_check(Monomial(np.zeros((0, 2), dtype=int)))
    with pytest.raises(ValueError):
        basis_group_check(word(1, 0, d=3))  # one word, not a stack


def test_closure_dagger_witness():
    # Z^dagger = Z^2 is missing from {1, Z}; the worst adjoint is index 1
    ids = [c.case_id for c in basis_group_check(word(np.array([[0], [1]]), np.zeros((2, 1), dtype=int), d=3)).cases]
    assert ids == ["unitary", "closure-mul witness=(1,1)", "closure-dagger witness=(1)", "hs-orthonormal"]
    ids = [c.case_id for c in basis_group_check(qudit_word_set(3)).cases]
    assert ids == ["unitary", "closure-mul", "closure-dagger", "hs-orthonormal"]


def test_as_bits():
    assert as_bits(5, 4) == (0, 1, 0, 1)
    assert as_bits("101") == (1, 0, 1)
    assert as_bits((1, 0)) == (1, 0)
    with pytest.raises(ValueError):
        as_bits(4, 2)
    with pytest.raises(ValueError):
        as_bits("102")
