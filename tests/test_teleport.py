import numpy as np
import pytest

from bellkit import linalg, teleport
from bellkit.bell import omega, product_ket
from bellkit.linalg import DEFAULT_TOL, haar_unitary, identity, random_state, residual
from bellkit.teleport import (
    _Setting,
    linearity_reduction_check,
    projective_eq_check,
    protocol_outcomes,
    teleport_eq_suite,
    transfer_identity_check,
)
from dense import dense_receivers, dense_resource, dense_setting, dense_words, teleport_sides


def skewed_resource(d: int, weights) -> np.ndarray:
    """Non-maximally entangled control: sum_i w_i |ii> with w normalized."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (d,):
        raise ValueError("need d Schmidt weights")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = w / np.linalg.norm(w)
    return vec


def label_residual(variant, psi, m, label, **size):
    """One label's residual from the setting's difference ``E``, checked against the dense oracle's two sides.

    Label b's difference is ``E U_b`` in form 22 and ``E U_b M^T`` in form 11.
    """
    setting = _Setting("teleport-eq", variant, **size)
    setting.use(m)
    setting.send(psi)
    b = setting.labels.index(label)
    op = setting.words[b] if setting.form == 22 else setting._operators(b)
    got = float(np.abs(setting.difference() @ op).max())
    assert abs(got - residual(*teleport_sides(setting, psi, b))) <= 1e-15
    return got


def test_transfer_identity():
    rep = transfer_identity_check(2, seed=0)
    assert rep.passed
    rep = transfer_identity_check(5, seed=1)
    assert rep.passed


def test_basic2_teleportation_equation():
    rng = np.random.default_rng(2)
    psi = random_state(2, rng)
    assert label_residual("basic2", psi, identity(2), (0, 0), d=2) < DEFAULT_TOL


@pytest.mark.parametrize("variant", ["qudit11", "qudit22", "qudit11p", "qudit22p"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_qudit_equations_unitary_m(variant, d):
    rep = teleport_eq_suite(variant, d=d, seed=5)
    assert rep.passed, rep.max_residual
    assert len(rep.cases) == d * d


@pytest.mark.parametrize("variant", ["nqubit11", "nqubit22"])
def test_nqubit_equations(variant):
    rep = teleport_eq_suite(variant, n=2, seed=6)
    assert rep.passed
    assert len(rep.cases) == 16


def test_general_m_allowed_on_11_variants():
    assert teleport_eq_suite("qudit11", d=3, seed=7, m_mode="general").passed
    assert teleport_eq_suite("nqubit11", n=2, seed=7, m_mode="general").passed


def test_unitary_m_required_on_22_variants():
    rng = np.random.default_rng(8)
    psi = random_state(3, rng)
    bad_m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    for variant in ("qudit22", "qudit22p"):
        with pytest.raises(ValueError):
            label_residual(variant, psi, bad_m, (0, 0), d=3)
    psi4 = random_state(4, rng)
    with pytest.raises(ValueError):
        label_residual("nqubit22", psi4, np.diag([1.0, 1, 1, 2]).astype(complex), ((0, 0), (0, 0)), n=2)
    # and a genuinely non-orthonormal measurement family does break the equation
    assert label_residual("qudit11", psi, bad_m, (0, 1), d=3) < DEFAULT_TOL  # 11 stays valid for any M


def test_residual_invariant_under_global_phase():
    rng = np.random.default_rng(9)
    psi = random_state(3, rng)
    m = haar_unitary(3, rng)
    base = label_residual("qudit22", psi, m, (1, 2), d=3)
    rotated = label_residual("qudit22", np.exp(0.7j) * psi, m, (1, 2), d=3)
    assert abs(base - rotated) < 1e-15


@pytest.mark.parametrize(
    "variant,kw",
    [
        ("projective_qudit", {"d": 2}),
        ("projective_qudit", {"d": 3}),
        ("projective_qudit11", {"d": 3}),
        ("projective_nqubit", {"n": 2}),
    ],
)
def test_projective_equations(variant, kw):
    rep = projective_eq_check(variant, seed=3, **kw)
    assert rep.passed
    expected = kw.get("d", 0) ** 2 or 4 ** kw["n"]
    assert len(rep.cases) == expected


def test_projective_identity_m_is_standard_protocol(monkeypatch):
    monkeypatch.setattr(teleport, "haar_unitary", lambda dim, rng: np.eye(dim))
    rep = projective_eq_check("projective_qudit", d=2, seed=4)
    assert rep.passed


def test_protocol_outcomes_qudit():
    rng = np.random.default_rng(10)
    psi = random_state(3, rng)
    m = haar_unitary(3, rng)
    rows = protocol_outcomes(psi, "qudit", m)
    assert len(rows) == 9
    assert abs(sum(r[1] for r in rows) - 1) < 1e-12
    for _, prob, fid, out, corr in rows:
        assert prob == pytest.approx(1 / 9, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert "M†" in corr
    with pytest.raises(ValueError):
        protocol_outcomes(psi, "qudit", np.diag([1.0, 2, 3]))


def test_protocol_outcomes_nqubit():
    rng = np.random.default_rng(11)
    psi = random_state(4, rng)
    rows = protocol_outcomes(psi, "nqubit")
    assert len(rows) == 16
    for _, prob, fid, _, _ in rows:
        assert prob == pytest.approx(1 / 16, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-10)


def test_protocol_outcomes_basic2():
    psi = np.array([1, 1j]) / np.sqrt(2)
    rows = protocol_outcomes(psi, "basic2")
    assert len(rows) == 4
    for _, prob, fid, _, _ in rows:
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-10)


def test_skewed_resource_degrades_fidelity(monkeypatch):
    psi = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    monkeypatch.setattr(teleport._Setting, "resource", lambda self, b: skewed_resource(2, [2.0, 1.0])[None])
    rows = protocol_outcomes(psi, "basic2")
    assert abs(sum(r[1] for r in rows) - 1) < 1e-12
    assert min(r[2] for r in rows) < 1 - 1e-3  # recorded, strictly below 1
    probs = sorted(r[1] for r in rows)
    assert probs[-1] - probs[0] > 1e-3  # no longer uniform


@pytest.mark.parametrize(
    "variant,kw",
    [("basic2", {"d": 2}), ("qudit11", {"d": 3}), ("nqubit11", {"n": 2}), ("nqubit22", {"n": 2})],
)
def test_linearity_reduction(variant, kw):
    rep = linearity_reduction_check(variant, seed=12, **kw)
    assert rep.passed, [(c.case_id, c.residual) for c in rep.cases]


def test_linearity_includes_order_crosscheck():
    rep = linearity_reduction_check("nqubit11", n=2, seed=13)
    assert any("twisted-interleaved" in c.case_id for c in rep.cases)


def test_bad_variant_rejected():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        label_residual("qudit33", psi, np.eye(2), (0, 0), d=2)
    with pytest.raises(ValueError):
        protocol_outcomes(psi, "weird")
    with pytest.raises(ValueError):
        teleport_eq_suite("weird", d=2)


@pytest.mark.parametrize("variant,kw", [("qudit11", {"d": 3}), ("basic2", {}), ("nqubit22", {"n": 1})])
def test_unknown_m_mode_rejected(variant, kw):
    with pytest.raises(ValueError, match="m_mode"):
        teleport_eq_suite(variant, m_mode="haar", **kw)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize(
    "base,modes", [("qudit11", ("identity", "unitary", "general")), ("qudit22", ("identity", "unitary"))]
)
def test_primed_variants_are_aliases(base, modes, d):
    # qudit11p/qudit22p are documented aliases: same case ids, bit-identical residuals.
    for m_mode in modes:
        for seed in (0, 5):
            want = teleport_eq_suite(base, d=d, seed=seed, m_mode=m_mode).cases
            got = teleport_eq_suite(base + "p", d=d, seed=seed, m_mode=m_mode).cases
            assert [c.case_id for c in got] == [c.case_id for c in want]
            assert [c.residual for c in got] == [c.residual for c in want]


def _patch_transfer(monkeypatch, corrupt):
    """Make ``_Setting.send`` pass the matrix ``q`` of the right sides through ``corrupt(q)``."""
    original = _Setting.send

    def send(self, psi, corrupt_flag=False):
        original(self, psi, corrupt_flag)
        corrupt(self.q)

    monkeypatch.setattr(_Setting, "send", send)


@pytest.mark.parametrize(
    "variant,size", [("qudit22", {"d": 3}), ("nqubit11", {"n": 2}), ("nqubit22", {"n": 2}), ("qudit22", {"d": 4})]
)
def test_failing_label_names_worst_entry(variant, size, monkeypatch):
    clean = teleport_eq_suite(variant, **size, seed=3)
    assert clean.passed and all(" witness" not in c.case_id for c in clean.cases)

    def shift(q):
        q[1, 0] += 0.25

    _patch_transfer(monkeypatch, shift)
    rep = teleport_eq_suite(variant, **size, seed=3)
    setting = _Setting("teleport-eq", variant, **size)
    rng = np.random.default_rng(3)
    psi = random_state(setting.dim, rng)
    setting.use(haar_unitary(setting.dim, rng))
    # the shift reaches label b's right side as bump U_b [M^T], from the dense words
    bump = np.zeros((setting.dim**2, setting.dim), dtype=complex)
    bump[1, 0] = 0.25
    after = setting.m.T if setting.form == 11 else identity(setting.dim)
    assert not any(c.passed for c in rep.cases)
    for b, (case, lab, u_b) in enumerate(zip(rep.cases, setting.labels, dense_words(setting.words))):
        lhs, rhs = teleport_sides(setting, psi, b)
        diff = np.abs(lhs - rhs - (bump @ u_b @ after).reshape(-1))
        assert case.case_id == f"label={lab} witness=entry {np.argmax(diff)}"
        assert abs(case.residual - diff.max()) <= 1e-15


# d = 3: every label's difference in one block, or two labels' (27 complex entries each) per block
@pytest.mark.parametrize("block_entries", [2**16, 2 * 27])
def test_nan_fails_its_label_only(block_entries, monkeypatch):
    clean = teleport_eq_suite("qudit11", d=3, seed=2)
    target = 4
    original = _Setting._operators

    def _operators(self, labels):
        ops = original(self, labels)
        ops[np.arange(len(self.labels))[labels] == target, 0, 1] = np.nan
        return ops

    monkeypatch.setattr(_Setting, "_operators", _operators)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * block_entries)
    rep = teleport_eq_suite("qudit11", d=3, seed=2)
    for b, (case, want) in enumerate(zip(rep.cases, clean.cases)):
        if b == target:
            # entry (0, 1) of the operator makes column 1 of E times it NaN: entry 1 is the first NaN
            assert case.case_id == f"{want.case_id} witness=entry 1"
            assert np.isnan(case.residual) and not case.passed
        else:
            assert case == want


@pytest.mark.parametrize("variant,size", [("qudit", {"d": 3}), ("qudit11", {"d": 3}), ("nqubit", {"n": 2})])
def test_projective_eq_names_worst_entry(variant, size, monkeypatch):
    clean = projective_eq_check(variant, **size, seed=3)
    assert clean.passed and all(" witness" not in c.case_id for c in clean.cases)
    original = _Setting.receivers

    def receivers(self, psi):
        outs = original(self, psi).copy()
        outs[2, 1] += 0.25
        outs[3, 0] = np.nan
        return outs

    monkeypatch.setattr(_Setting, "receivers", receivers)
    rep = projective_eq_check(variant, **size, seed=3)
    # the check's draws: M for the qudit variants, then psi
    setting = _Setting("projective-eq", variant, **size)
    dim = setting.dim
    rng = np.random.default_rng(3)
    setting.use(identity(dim) if variant == "nqubit" else haar_unitary(dim, rng))
    psi = random_state(dim, rng)
    forward, meas = dense_setting(setting)
    prepared = np.kron(psi, dense_resource(setting, forward, 0)).reshape(dim * dim, dim)
    bumped = dense_receivers(setting, forward, psi, 0)[2] + np.eye(dim)[1] * 0.25
    # outcome 2: the worst entry of the dense product of its two sides
    diff = np.abs(np.kron(meas[2], meas[2].conj() @ prepared) - np.kron(meas[2], bumped) / dim)
    assert rep.cases[2].case_id == f"outcome={setting.labels[2]} witness=entry {np.argmax(diff)}"
    assert abs(rep.cases[2].residual - diff.max()) <= 1e-15
    # outcome 3: its first NaN entry of branch - receiver / D, in the row of the largest |meas_a|
    assert rep.cases[3].case_id == f"outcome={setting.labels[3]} witness=entry {np.argmax(np.abs(meas[3])) * dim}"
    assert np.isnan(rep.cases[3].residual) and not rep.passed
    assert [c for a, c in enumerate(rep.cases) if a not in (2, 3)] == [
        c for a, c in enumerate(clean.cases) if a not in (2, 3)
    ]


def test_linearity_reduction_names_failing_input(monkeypatch):
    clean = linearity_reduction_check("qudit11", d=3, seed=1)
    assert clean.passed and clean.cases[0].case_id == "all-basis-inputs"
    original = _Setting.send
    poison = {}

    def send(self, psi, corrupt=False):
        original(self, psi, corrupt)
        for index, value in poison.items():
            if not corrupt and psi[index] == 1:
                self.q = self.q + value

    monkeypatch.setattr(_Setting, "send", send)
    poison[2] = 0.5
    rep = linearity_reduction_check("qudit11", d=3, seed=1)
    assert rep.cases[0].case_id == "all-basis-inputs witness=input 2"
    assert not rep.cases[0].passed and rep.cases[1:] == clean.cases[1:]
    # a NaN input is the witness even when a finite one is worse
    poison[1] = np.nan
    rep = linearity_reduction_check("qudit11", d=3, seed=1)
    assert rep.cases[0].case_id == "all-basis-inputs witness=input 1"
    assert np.isnan(rep.cases[0].residual) and rep.cases[1:] == clean.cases[1:]
