import numpy as np
import pytest

from bellkit.bell import bell_unitaries, omega, qudit_bell, word_groups
from bellkit.linalg import Monomial, haar_unitary, residual, identity
from dense import conjugated_spec, conjugated_states, dense_states, gram, kron, observable_check, qudit_states
from bellkit.pauli import pauli_gate
from bellkit.verify import (
    APPENDIX_N1_MATRIX,
    ObservableSpec,
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
    trace_constraint_solve,
    trace_system,
)


def _scaled(words, label, factor):
    """``words`` with the phases of one word scaled: the row maps, and so the tiling, stay."""
    scale = np.ones(len(words.perm))
    scale[label] = factor
    return Monomial(words.perm, words.phase * scale[:, None])


def test_gram_check_pass_and_fail():
    assert gram_check(bell_unitaries(d=2)[1]).passed
    assert gram_check(bell_unitaries(d=3)[1]).passed
    # one state doubled: <s_0|s_0> = 4
    rep = gram_check(_scaled(bell_unitaries(d=2)[1], 0, 2.0))
    assert not rep.passed
    assert rep.cases[0].residual == pytest.approx(3.0)
    # no words tile nothing: refused
    with pytest.raises(ValueError, match="tile"):
        gram_check(bell_unitaries(d=2)[1][:0])


def test_completeness_check():
    assert completeness_check(bell_unitaries(d=2)[1]).passed
    assert completeness_check(bell_unitaries(n=2)[1]).passed
    words = bell_unitaries(d=2)[1]
    # one Bell projector counted four times: its diagonal entries 1/2 become 2
    rep = completeness_check(_scaled(words, 0, 2.0))
    assert not rep.passed
    assert rep.cases[0].residual == pytest.approx(1.5)
    # a family short of a word leaves a gap in the D^2 positions: refused, never checked
    with pytest.raises(ValueError, match="tile"):
        completeness_check(words[:3])


def test_extend_basis():
    words = bell_unitaries(d=2)[1]
    same = extend_basis(words, np.eye(2), "left")
    assert residual(same, dense_states(words)) == 0
    rng = np.random.default_rng(0)
    extended = extend_basis(bell_unitaries(d=3)[1], haar_unitary(3, rng), "left")
    assert residual(gram(extended), np.eye(9)) < 1e-12
    g = gram(extend_basis(words, np.diag([1.0, 2.0]), "left"))
    assert g[0, 0] == pytest.approx(2.5)  # tr(M^dag M)/2
    with pytest.raises(ValueError):
        extend_basis(words, np.eye(3), "left")
    with pytest.raises(ValueError):
        extend_basis(words, np.eye(2), "up")


def test_perturbed_nonunitary_deviation():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        m = perturbed_nonunitary(d, rng)
        assert np.linalg.norm(m.conj().T @ m - np.eye(d), 2) >= 0.1


@pytest.mark.parametrize("d", [2, 3])
def test_basis_theorem_suite_qudit(d):
    rep = basis_theorem_suite(d=d, trials=20, seed=11)
    assert rep.passed, [(c.case_id, c.residual) for c in rep.cases]


def test_basis_theorem_suite_multi():
    assert basis_theorem_suite(n=2, trials=10, seed=12).passed
    with pytest.raises(ValueError):
        basis_theorem_suite(d=2, n=2)


def _patch_trials(monkeypatch, changed):
    """Pass trial t of stack ``kind`` (0 unitary, 1 perturbed) from call k of ``_trial_matrices`` through ``changed[k, kind, t](matrix, *args)``."""
    import bellkit.verify as verify

    real = verify._trial_matrices
    count = [0]

    def patched(*args):
        stacks = [stack.copy() for stack in real(*args)]
        for (k, kind, t), change in changed.items():
            if k == count[0]:
                stacks[kind][t] = change(stacks[kind][t], *args)
        count[0] += 1
        return tuple(stacks)

    monkeypatch.setattr(verify, "_trial_matrices", patched)


def test_basis_theorem_names_witness_trial(monkeypatch):
    def ids(rep):
        return [c.case_id for c in rep.cases]

    passing = [
        "unitary-extensions-left (4 trials)", "nonunitary-extensions-left (4 trials)",
        "unitary-extensions-right (4 trials)", "nonunitary-extensions-right (4 trials)",
        "reduced-completeness (general M)", "vacuous-one-sided-unitarity",
    ]
    assert ids(basis_theorem_suite(d=2, trials=4, seed=5)) == passing
    # _trial_matrices draws a side's trials as one stack at this size: call 0
    # is the left side, call 1 the right.  Left: trial 1 NaN, trial 2 worse
    # but finite; right: trial 0 fails, trial 3 is worse.
    scale = {(0, 0, 1): np.nan, (0, 0, 2): 3.0, (1, 0, 0): 1.5, (1, 0, 3): 2.0}
    _patch_trials(monkeypatch, {k: (lambda u, *args, s=s: s * u) for k, s in scale.items()})
    rep = basis_theorem_suite(d=2, trials=4, seed=5)
    assert ids(rep) == [
        "unitary-extensions-left (4 trials) witness=trial 1", "nonunitary-extensions-left (4 trials)",
        "unitary-extensions-right (4 trials) witness=trial 3", "nonunitary-extensions-right (4 trials)",
        *passing[4:],
    ]
    assert np.isnan(rep.cases[0].residual) and rep.cases[2].residual == pytest.approx(3.0)
    assert [c.passed for c in rep.cases] == [False, True, False, True, True, True]

    # the non-unitary control names its best trial: a unitary M on the
    # left at trial 2, a NaN M on the right at trial 1
    monkeypatch.undo()
    changed = {(0, 1, 2): lambda m, dim, trials, rng: haar_unitary(dim, rng), (1, 1, 1): lambda m, *args: np.nan * m}
    _patch_trials(monkeypatch, changed)
    rep = basis_theorem_suite(d=2, trials=4, seed=5)
    assert ids(rep) == [
        "unitary-extensions-left (4 trials)", "nonunitary-extensions-left (4 trials) witness=trial 2",
        "unitary-extensions-right (4 trials)", "nonunitary-extensions-right (4 trials) witness=trial 1",
        *passing[4:],
    ]
    assert rep.cases[1].residual < 1e-12 and np.isnan(rep.cases[3].residual)
    assert [c.passed for c in rep.cases] == [True, False, True, False, True, True]


def test_qudit_observables_d2():
    ox_p, ox_m, oz_p, oz_m = qudit_observables(*qudit_states(2), 1)
    xx = kron(pauli_gate("X"), pauli_gate("X"))
    zz = kron(pauli_gate("Z"), pauli_gate("Z"))
    assert residual(ox_p.matrix, xx) == 0
    assert residual(oz_p.matrix, zz) == 0
    assert residual(ox_m.matrix, np.zeros((4, 4))) < 1e-15
    assert residual(oz_m.matrix, np.zeros((4, 4))) < 1e-15
    # eigenvalues (-1)^alpha and (-1)^beta
    for (al, be), lam in zip(ox_p.labels, ox_p.eigenvalues):
        assert lam == pytest.approx((-1.0) ** al)
    for (al, be), lam in zip(oz_p.labels, oz_p.eigenvalues):
        assert lam == pytest.approx((-1.0) ** be)


def test_qudit_observables_d3_eigenvalue():
    ox_p = qudit_observables(*qudit_states(3), 1)[0]
    lam = dict(zip(ox_p.labels, ox_p.eigenvalues))[(1, 0)]
    assert lam == pytest.approx(np.cos(2 * np.pi / 3))
    state = qudit_bell(3, 1, 0)
    assert residual(ox_p.matrix @ state, lam * state) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_qudit_observables_all_k(d):
    for k in range(1, d):
        for spec in qudit_observables(*qudit_states(d), k):
            assert observable_check(spec).passed, (d, k, spec.name)
    with pytest.raises(ValueError):
        qudit_observables(*qudit_states(d), d)


def test_conjugated_observables(monkeypatch):
    import bellkit.verify as verify

    rng = np.random.default_rng(2)
    spec = qudit_observables(*qudit_states(3), 2)[1]
    words = bell_unitaries(d=3)[1]
    for side in ("left", "right"):
        assert observable_check(conjugated_spec(spec, words, haar_unitary(3, rng), side)).passed
    same = conjugated_observables(spec, np.eye(3), "left")
    assert residual(same.matrix, spec.matrix) == 0
    # the suite checks each stack of Haar draws once, as it is drawn, and refuses a non-unitary one
    stretched = np.diag([1.0, 2.0, 3.0])
    monkeypatch.setattr(verify, "haar_unitary", lambda dim, rng, lead: np.broadcast_to(stretched, lead + (3, 3)))
    with pytest.raises(ValueError, match="unitary"):
        qudit_observable_suite(3, k=1, conjugated=1)


def test_right_conjugation_uses_transpose_pair():
    # eigenvectors of the right form are (1 x M^T)|Omega(ab)> = |Omega M(ab)>
    rng = np.random.default_rng(3)
    m = haar_unitary(3, rng)
    spec = qudit_observables(*qudit_states(3), 1)[2]
    conj = conjugated_observables(spec, m, "right")
    shift = kron(identity(3), m.T)
    inv = kron(identity(3), m.conj())
    # apply_local takes the dense shift's products in its order; the matrix and
    # the extended family sum in another, so with a rounding M they differ from
    # the dense pair in the last bits (exact equality: the dyadic test below)
    assert residual(conjugated_states(spec, m, "right"), shift @ spec.states) == 0
    assert np.array_equal(conj.eigenvalues, spec.eigenvalues)
    assert residual(conj.matrix, shift @ spec.matrix @ inv) < 1e-15
    plain = kron(identity(3), m) @ spec.matrix @ kron(identity(3), m.conj().T)
    assert residual(conj.matrix, plain) > 0.1
    family = extend_basis(bell_unitaries(d=3)[1], m, "right")
    assert residual(family.T, shift @ spec.states) < 1e-15
    for (al, be), state in zip(conj.labels, family):
        direct = kron(np.eye(3), m.T) @ qudit_bell(3, al, be)
        assert residual(state, direct) < 1e-12


# M = diag(1, i, -1, -i) H_4 / 2 is unitary with entries in {+-1/2, +-i/2}, not
# symmetric, and OZ+(1) at d = 4 has entries in {0, +-1}: every product and
# partial sum is a small multiple of 1/4, so any summation order gives the
# dense pair's bits
DYADIC = np.diag([1, 1j, -1, -1j]) @ np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2


@pytest.mark.parametrize("side", ["left", "right"])
def test_conjugation_is_exact_on_dyadic_unitary(side):
    m = DYADIC
    spec = qudit_observables(*qudit_states(4), 1)[2]
    conj = conjugated_observables(spec, m, side)
    eye = identity(4)
    # the left form shifts by M x 1, the right by 1 x M^T; the other matrix is wrong
    op, wrong = (m, m.T) if side == "left" else (m.T, m)
    place = (lambda a: kron(a, eye)) if side == "left" else (lambda a: kron(eye, a))
    shift = place(op)
    assert residual(conj.matrix, shift @ spec.matrix @ shift.conj().T) == 0
    assert residual(conjugated_states(spec, m, side), shift @ spec.states) == 0
    assert residual(extend_basis(bell_unitaries(d=4)[1], m, side).T, shift @ spec.states) == 0
    off = place(wrong)
    assert residual(conj.matrix, off @ spec.matrix @ off.conj().T) > 0.1


@pytest.mark.parametrize("side", ["left", "right"])
def test_conjugation_on_the_other_qudit_fails_the_eigenequations(side, monkeypatch):
    """An O' conjugated on the other qudit is Hermitian, but the family extended on ``side`` is not its
    eigenbasis: the eigenequation residual alone fails, and by more than 0.1."""
    import bellkit.verify as verify

    words = bell_unitaries(d=4)[1]
    spec = qudit_observables(*qudit_states(4), 1)[2]
    ms = DYADIC[None]
    prod, mags = np.empty((1, 16, 16), dtype=complex), np.empty((1, 16, 16))
    (name, eig, herm), = verify._conjugated_cases(spec, words, ms, side, prod, mags)
    # cos(pi / 2) is 6e-17, not 0, so the eigenequations hold to that, not exactly
    assert name == f"OZ+(1)|{side}-conjugated" and eig < 1e-16 and herm == 0
    other = {"left": "right", "right": "left"}
    real = verify.conjugated_observables
    monkeypatch.setattr(verify, "conjugated_observables", lambda spec, m, side: real(spec, m, other[side]))
    (_, eig, herm), = verify._conjugated_cases(spec, words, ms, side, prod, mags)
    assert herm == 0 and eig > 0.1


def test_multiqubit_observables():
    for n in (1, 2, 3):
        assert multiqubit_observable_suite(n).passed
    specs = multiqubit_observables(1)
    xx = kron(pauli_gate("X"), pauli_gate("X"))
    assert residual(specs[0].matrix.dense(), xx) == 0
    # n=2: joint eigenvalue pattern separates all 16 labels
    rep = multiqubit_observable_suite(2)
    case = [c for c in rep.cases if c.case_id == "joint-labels-distinct"][0]
    assert case.residual == 0


def test_multiqubit_family_readers_take_real_products():
    for n in (1, 2, 3):
        for spec in multiqubit_observables(n):
            assert spec.states.phase.dtype == np.float64 and spec.matrix.phase.dtype == np.float64
        words = bell_unitaries(n=n)[1]
        # the grouped Gram and projector-sum blocks are real GEMMs of the real phases
        assert words.phase[word_groups(words)[0]].dtype == np.float64
    words = bell_unitaries(d=3)[1]
    assert words.phase[word_groups(words)[0]].dtype == np.complex128


def _respec(spec, lam_shift=None, nan_at=None):
    """``spec`` with eigenvalues shifted by ``lam_shift[label]``, and a NaN in the state at ``nan_at``."""
    shift = lam_shift or {}
    states = spec.states
    if nan_at is not None:
        states = states.copy()
        states[0, spec.labels.index(nan_at)] = np.nan
    eigenvalues = spec.eigenvalues + [shift.get(lab, 0.0) for lab in spec.labels]
    return ObservableSpec(spec.name, spec.matrix, spec.labels, eigenvalues, states)


def test_failed_eigenequations_name_witness():
    spec = qudit_observables(*qudit_states(3), 1)[0]
    # the worst state is the witness, not the first failing one
    rep = observable_check(_respec(spec, {(0, 1): 0.25, (1, 2): 0.5}))
    assert rep.cases[1].case_id == "eigenequations (9 states) witness=(1,2)"
    assert rep.cases[1].residual > 0.1 and not rep.cases[1].passed
    # a NaN state is the witness even when a finite one is worse
    rep = observable_check(_respec(spec, {(0, 1): 5.0}, nan_at=(2, 0)))
    assert rep.cases[1].case_id == "eigenequations (9 states) witness=(2,0)"
    assert np.isnan(rep.cases[1].residual) and not rep.passed
    # n-qubit labels read as bit strings; the matrix here is a monomial
    multi = multiqubit_observables(2)[0]
    rep = observable_check(_respec(multi, {((1, 0), (0, 1)): 2.0}))
    assert rep.cases[1].case_id == "eigenequations (16 states) witness=(10,01)"
    # passing ids are unchanged
    assert [c.case_id for c in observable_check(spec).cases] == ["hermitian", "eigenequations (9 states)"]


def test_observable_suite_case_names_witness(monkeypatch):
    import bellkit.verify as verify

    real = verify.qudit_observables

    def broken(labels, states, k):
        specs = real(labels, states, k)
        return [_respec(specs[0], nan_at=(1, 1))] + specs[1:]

    monkeypatch.setattr(verify, "qudit_observables", broken)
    rep = qudit_observable_suite(3, k=1)
    assert [c.case_id for c in rep.cases] == ["OX+(1) witness=(1,1)", "OX-(1)", "OZ+(1)", "OZ-(1)"]
    assert np.isnan(rep.cases[0].residual) and not rep.passed


def test_trace_system_appendix_order():
    mat, rhs, labels = trace_system(1)
    assert labels[0] == ((0,), (0,))
    assert rhs[0] == 2
    reordered = mat[[0, 1, 3, 2]]
    assert residual(reordered, APPENDIX_N1_MATRIX) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_constraint_solve(n):
    rep = trace_constraint_solve(n)
    assert rep.passed, [(c.case_id, c.residual) for c in rep.cases]
    if n == 1:
        assert any("appendix" in c.case_id for c in rep.cases)


# ---------------------------------------------------------------------------
# a NaN residual never passes a folded case


def test_nan_residual_fails_must_pass_fold():
    spec = qudit_observables(*qudit_states(2), 1)[0]
    # the eigenequations fold one residual per state; a NaN in the last state
    # lands after finite ones
    rep = observable_check(_respec(spec, nan_at=spec.labels[-1]))
    case = rep.cases[1]
    assert case.case_id.startswith("eigenequations")
    assert np.isnan(case.residual) and not case.passed
    assert not rep.passed


def _with_nan(m, *args):
    m = m.copy()
    m[0, 1] = np.nan
    return m


def test_nan_residual_fails_expect_fail_control(monkeypatch):
    # one non-unitary M per side carries a NaN: trial 1 on the left (call 0), trial 2 on the right (call 1)
    _patch_trials(monkeypatch, {(0, 1, 1): _with_nan, (1, 1, 2): _with_nan})
    rep = basis_theorem_suite(d=2, trials=3, seed=11)
    controls = [c for c in rep.cases if c.case_id.startswith("nonunitary")]
    assert len(controls) == 2
    assert all(np.isnan(c.residual) and not c.passed for c in controls)
    assert [c.case_id for c in controls] == [
        "nonunitary-extensions-left (3 trials) witness=trial 1",
        "nonunitary-extensions-right (3 trials) witness=trial 2",
    ]
    assert not rep.passed


def test_nan_case_propagates_through_max_residual():
    from bellkit.report import Report

    rep = Report("s", {})
    rep.add("finite", 0.0)
    rep.add("nan", float("nan"))
    assert np.isnan(rep.max_residual)
    outer = Report("outer", {})
    outer.add("folded", rep.max_residual)
    assert not outer.passed
