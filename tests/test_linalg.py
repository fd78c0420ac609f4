import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import linalg
from bellkit.linalg import (
    Monomial,
    blocks,
    dagger,
    fold,
    haar_unitary,
    permutation,
    real_if_real,
    residual,
    walk,
)
from dense import (
    GenPauliWord,
    PauliWord,
    gen_word_matrix,
    gen_word_monomial,
    gen_x,
    gen_z,
    hs_inner,
    kron,
    pauli_gate,
    word_monomial,
)

X = pauli_gate("X")
Z = pauli_gate("Z")
I2 = pauli_gate("I")


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tensor_identity():
    assert residual(kron(I2, I2), np.eye(4)) == 0


def test_tensor_zx_entries():
    # expand the 2x2 blocks by hand: Z diag picks the sign of the X block
    zx = kron(Z, X)
    assert zx[0, 1] == 1
    assert zx[2, 3] == -1
    expected = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=complex
    )
    assert residual(zx, expected) == 0


def test_tensor_basis_kets():
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    assert residual(kron(ket0, ket1), np.array([0, 1, 0, 0], dtype=complex)) == 0


def test_dagger_identity_and_involution():
    assert residual(dagger(I2), I2) == 0
    rng = np.random.default_rng(0)
    a = rand_complex(rng, (5, 3))
    assert residual(dagger(dagger(a)), a) == 0


def test_dagger_gen_z_entry():
    assert abs(dagger(gen_z(3))[1, 1] - np.exp(-2j * np.pi / 3)) < 1e-15


def test_transpose_vs_dagger():
    # symmetric / diagonal matrices are transpose-fixed
    assert residual(X.T, X) == 0
    assert residual(gen_z(3).T, gen_z(3)) == 0
    # the shift matrix is real, so transpose and dagger coincide on it,
    # but differ from the matrix itself at its 6 nonzero positions
    x3 = gen_x(3)
    assert residual(x3.T, dagger(x3)) == 0
    assert np.count_nonzero(np.abs(x3.T - x3) > 0.5) == 6
    # with complex entries the two operations genuinely split
    z3 = gen_z(3)
    assert residual(z3.T, z3) == 0
    assert np.count_nonzero(np.abs(dagger(z3) - z3.T) > 0.5) == 2


def test_pauli_anticommutation():
    assert residual(X @ X, I2) == 0
    assert residual(Z @ X, -(X @ Z)) == 0


def test_hs_inner_values():
    assert hs_inner(I2, I2) == 1
    assert hs_inner(Z, X) == 0
    m = np.diag([1.0, 2.0])
    assert hs_inner(m, m) == 2.5
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_permutation_matrix_examples():
    assert residual(permutation([0, 1], 2).dense(), np.eye(4)) == 0
    swap = permutation([1, 0], 2).dense()
    ket01 = np.zeros(4)
    ket01[0b01] = 1
    ket10 = np.zeros(4)
    ket10[0b10] = 1
    assert residual(swap @ ket01, ket10) == 0
    # perm (1,2,0) relabels digits: |100> -> |010>
    p = permutation([1, 2, 0], 2).dense()
    ket = np.zeros(8)
    ket[0b100] = 1
    out = p @ ket
    assert np.argmax(np.abs(out)) == 0b010
    with pytest.raises(ValueError):
        permutation([0, 0], 2).dense()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_permutation_composition(k):
    from itertools import permutations

    for sigma in permutations(range(k)):
        for pi in permutations(range(k)):
            composed = [sigma[pi[q]] for q in range(k)]
            lhs = permutation(composed, 2).dense()
            rhs = permutation(sigma, 2).dense() @ permutation(pi, 2).dense()
            assert residual(lhs, rhs) == 0


def test_residual():
    a = np.eye(2)
    assert residual(a, a) == 0
    assert residual(np.eye(2), Z) == 2
    with pytest.raises(ValueError):
        residual(np.eye(2), np.eye(3))


@pytest.mark.parametrize("dtype", [float, complex, np.int64])
def test_residual_is_the_max_abs_difference_and_keeps_nan(dtype):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((2, 2, 5, 4)) * 8
    a, b = (z[0] + (1j * z[1] if dtype is complex else 0)).astype(dtype)
    kept = a.copy(), b.copy()
    assert residual(a, b) == np.abs(a - b).max()
    # the difference is taken in a temporary: the operands are unchanged
    assert all(np.array_equal(got, want) for got, want in zip((a, b), kept))
    assert residual(dtype(3), dtype(-1)) == 4
    if dtype is np.int64:
        return
    for bad in [np.nan, np.inf] + ([complex(0.0, np.nan)] if dtype is complex else []):
        c = b.copy()
        c[3, 1] = bad
        np.testing.assert_equal(residual(a, c), np.abs(a - c).max())
        # inf - inf is NaN as well
        assert np.isnan(residual(c, c))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_associativity(seed):
    rng = np.random.default_rng(seed)
    # exact equality whenever the entry products are exactly representable
    a, b, c = (rng.integers(-4, 5, (2, 2)).astype(complex) for _ in range(3))
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) == 0
    # generic complex entries reassociate within one ulp
    a, b, c = (rand_complex(rng, (2, 2)) for _ in range(3))
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_of_unitaries_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(3, rng), haar_unitary(2, rng)
    uv = kron(u, v)
    assert residual(dagger(uv) @ uv, np.eye(6)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_cyclicity(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_complex(rng, (8, 8)), rand_complex(rng, (8, 8))
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_fold_propagates_nan():
    nan = float("nan")
    assert fold([]) == 0.0
    assert fold([], np.min, np.inf) == np.inf
    assert fold([0.5, 2.0, 1.0]) == 2.0
    assert fold(iter([0.5, 2.0]), np.min, np.inf) == 0.5
    for values in ([nan, 1.0], [1.0, nan], [0.0, nan, 0.0]):
        assert np.isnan(fold(values))
        assert np.isnan(fold(values, np.min, np.inf))


def test_real_if_real():
    exact = np.array([[1.0, -0.5], [0.0, 2.0]], dtype=complex)
    out = real_if_real(exact[:, ::-1])
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, exact.real[:, ::-1])
    for imag in (1e-300, np.nan, np.inf):
        held = exact.copy()
        held[1, 0] = complex(0.0, imag)
        assert real_if_real(held) is held
    held = exact.copy()
    held[1, 0] = np.nan  # a NaN real part with a zero imaginary one is still real
    assert real_if_real(held).dtype == np.float64 and np.isnan(real_if_real(held)[1, 0])
    real = np.eye(2)
    assert real_if_real(real) is real


REAL_MONOMIALS = {
    "pauli word": word_monomial(PauliWord((1, 0, 1), (0, 1, 1), 1)),
    "permutation": permutation([2, 0, 1], 2),
    "integer phases": Monomial([1, 0], [1, -1]),
}


@pytest.mark.parametrize("name", list(REAL_MONOMIALS))
def test_real_monomial_stays_float64(name):
    m = REAL_MONOMIALS[name]
    rng = np.random.default_rng(len(name))
    for out in (m.phase, (m @ m).phase, m.adjoint().phase, dagger(m).phase, m.dense()):
        assert out.dtype == np.float64
    for shape in ((m.dim,), (m.dim, 3)):
        states = rng.standard_normal(shape)
        assert m.apply(states).dtype == np.float64 and (m @ states).dtype == np.float64
        assert residual(m @ states, m.dense() @ states) == 0
        assert (m @ (states + 0j)).dtype == np.complex128
        assert residual(m @ (states + 0j), m @ states) == 0
    assert (m @ Monomial(np.arange(m.dim), np.full(m.dim, 1j))).phase.dtype == np.complex128


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qudit_words_stay_complex(d):
    m = gen_word_monomial(GenPauliWord(d, 1, 1))
    assert m.phase.dtype == np.complex128 and m.dense().dtype == np.complex128
    assert gen_word_matrix(GenPauliWord(d, 0, 0)).dtype == np.complex128


@pytest.mark.parametrize("budget", [linalg.BLOCK_BYTES, 400])
@pytest.mark.parametrize("item_bytes", [1, 48, 400, 401, 2**20])
@pytest.mark.parametrize("total", [0, 1, 25, 1000])
def test_blocks_partition_in_order(total, item_bytes, budget, monkeypatch):
    """Slices of ``range(total)`` in order, ``max(1, BLOCK_BYTES // item_bytes)`` items each but the last.

    The budget is read when ``blocks`` is called, and an item larger than it gets a block to itself.
    """
    monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
    walk = list(blocks(total, item_bytes))
    step = max(1, budget // item_bytes)
    assert [i for block in walk for i in range(total)[block]] == list(range(total))
    assert [block.stop - block.start for block in walk[:-1]] == [step] * (len(walk) - 1)
    assert all(0 < block.stop - block.start <= step for block in walk)
    if item_bytes > budget:
        assert walk == [slice(i, i + 1) for i in range(total)]
    if not total:
        assert walk == []


# (shape, dtype) items of a walk: the largest first, last, one byte past the 400-byte budget, past the default one
WALK_ITEMS = {
    "scalar": [((), float)],
    "largest-first": [((2, 3), complex), ((3,), float)],
    "largest-last": [((5,), np.int8), ((50,), float)],
    "past-400": [((401,), np.uint8)],
    "past-default": [((3, 64, 64), complex), ((64, 64), float)],
}


@pytest.mark.parametrize("budget", [linalg.BLOCK_BYTES, 400])
@pytest.mark.parametrize("items", list(WALK_ITEMS))
@pytest.mark.parametrize("total", [0, 1, 25, 1000])
def test_walk_sizes_block_arrays_once(total, items, budget, monkeypatch):
    """The ``blocks`` of the largest item's bytes, each with a ``(count, *shape)`` view per item.

    Every view of an item, on every pass over the list, is a view of one
    array of the first block's length; an item larger than the budget gets
    one entry per block.
    """
    monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
    items = WALK_ITEMS[items]
    largest = max(int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in items)
    walked = walk(total, *items)
    assert [block for block, _ in walked] == list(blocks(total, largest))
    if not total:
        assert walked == []
        return
    bases = [view.base for view in walked[0][1]]
    for _ in range(2):
        for block, views in walked:
            assert len(views) == len(items)
            for view, (shape, dtype), base in zip(views, items, bases):
                assert view.shape == (block.stop - block.start, *shape) and view.dtype == dtype
                assert view.base is base and len(base) == walked[0][0].stop
    if largest > budget:
        assert all(block.stop - block.start == 1 for block, _ in walked)
