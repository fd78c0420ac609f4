"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line with the worst observed residual.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.
"""

import time
from itertools import product

import numpy as np
import pytest

from bellkit import bell, braid, teleport, verify
from bellkit.cli import main as cli_main
from bellkit.linalg import fold, haar_unitary, identity, random_state, residual
from dense import conjugated_spec, dense_circuit_matrix, kron, observable_check, qudit_states, twist
from bellkit.pauli import pauli_gate

TOL = 1e-12


def criterion(number, text, worst, bound=TOL):
    ok = worst == 0.0 if bound == 0.0 else worst < bound
    shown = "exact 0" if bound == 0.0 else f"{bound:g}"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text} "
          f"(worst={worst:.3e}, bound={shown})")
    assert ok, f"criterion {number}: {text}: worst={worst}, bound={shown}"


def test_criterion_1_bell_basis_suites():
    start = time.monotonic()
    worst = 0.0
    fams = [bell.bell_unitaries(d=2)[1]]
    fams += [bell.bell_unitaries(d=d)[1] for d in (2, 3, 4, 5)]
    fams += [bell.bell_unitaries(n=n)[1] for n in (1, 2, 3)]
    for words in fams:
        worst = fold((worst, verify.gram_check(words).max_residual))
        worst = fold((worst, verify.completeness_check(words).max_residual))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    criterion(1, "gram + completeness, qubit / qudit d<=5 / multi n<=3", worst)


def test_criterion_2_basis_theorem():
    misclassified = 0
    worst_unitary = 0.0
    for kwargs in ({"d": 2}, {"d": 3}, {"d": 4}, {"n": 2}):
        rep = verify.basis_theorem_suite(**kwargs, trials=100, seed=20260810)
        for case in rep.cases:
            if case.case_id.startswith(("unitary", "nonunitary")) and not case.passed:
                misclassified += 1
            if case.case_id.startswith("unitary"):
                worst_unitary = fold((worst_unitary, case.residual))
    assert misclassified == 0, f"{misclassified} misclassified extension classes"
    criterion(2, "basis theorem, 100+100 trials, d in 2..4 and n=2, both sides",
              worst_unitary)


def test_criterion_3_twist():
    worst = 0.0
    for n in (1, 2, 3, 4):
        circ = bell.twist_decomposition(n)
        worst = fold((worst, residual(dense_circuit_matrix(circ), twist(n))))
        assert len(circ.gates) == n * (n - 1) // 2
    swap = dense_circuit_matrix(bell.Circuit(2, [("SWAP", (0, 1))]))
    tau4 = kron(identity(2), swap, identity(2))
    assert residual(twist(2), tau4) == 0
    criterion(3, "twist decomposition exact, swap counts n(n-1)/2, tau4 = I.SWAP.I",
              worst, bound=0.0)


def test_criterion_4_observables():
    worst = 0.0
    for d in (2, 3, 4, 5):
        for k in range(1, d):
            for spec in verify.qudit_observables(*qudit_states(d), k):
                worst = fold((worst, observable_check(spec).max_residual))
    # d=2 degenerate zero operators
    ox_m, oz_m = verify.qudit_observables(*qudit_states(2), 1)[1::2]
    worst = fold((worst, residual(ox_m.matrix, np.zeros((4, 4)))))
    worst = fold((worst, residual(oz_m.matrix, np.zeros((4, 4)))))
    for n in (1, 2, 3):
        rep = verify.multiqubit_observable_suite(n)
        worst = fold((worst, rep.max_residual))
        assert rep.passed
    rng = np.random.default_rng(41)
    base = verify.qudit_observables(*qudit_states(3), 1)
    words = bell.bell_unitaries(d=3)[1]
    for _ in range(10):
        m = haar_unitary(3, rng)
        for spec in base:
            for side in ("left", "right"):
                # the conjugated observable on its eigenvectors, the family extended by M
                conj = conjugated_spec(spec, words, m, side)
                worst = fold((worst, observable_check(conj).max_residual))
    criterion(4, "observable eigenequations d<=5 all k, n<=3, 10 M-conjugations", worst)


def test_criterion_5_trace_constraint():
    worst = 0.0
    for n in (1, 2, 3):
        rep = verify.trace_constraint_solve(n)
        assert rep.passed
        worst = fold((worst, rep.max_residual))
    mat, rhs, _ = verify.trace_system(1)
    assert residual(mat[[0, 1, 3, 2]], verify.APPENDIX_N1_MATRIX) == 0
    assert rhs[0] == 2 and not rhs[1:].any()
    criterion(5, "trace-constraint solver: identity solution, zero kernel, appendix n=1",
              worst)


def test_criterion_6_concurrence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        psi = random_state(16, rng)
        worst = fold((worst, abs(bell.concurrence(psi, 2) - bell.concurrence_oracle(psi, 2))))
    for a, b in bell.all_labels(2):
        worst = fold((worst, abs(bell.concurrence(bell.multi_bell(2, a, b), 2) - 1)))
    worst = fold((worst, bell.concurrence(bell.product_ket((0, 1, 1, 0)), 2)))
    for n in (1, 2, 3, 4):
        for sign in (1, -1):
            worst = fold((worst, abs(bell.concurrence(bell.ghz_state(n, 0, 0, sign), n) - 1)))
    criterion(6, "concurrence formula vs oracle, Bell/product/GHZ worked examples",
              worst, bound=1e-10)


def test_criterion_7_teleportation():
    worst = 0.0
    for d in (2, 3, 5):
        worst = fold((worst, teleport.teleport_eq_suite("qudit11", d=d, seed=1).max_residual))
        worst = fold((worst, teleport.teleport_eq_suite("qudit22", d=d, seed=2).max_residual))
        worst = fold((worst, teleport.teleport_eq_suite(
            "qudit11", d=d, seed=3, m_mode="general").max_residual))
    for variant in ("qudit11p", "qudit22p"):
        rep = teleport.teleport_eq_suite(variant, d=3, seed=4)
        assert len(rep.cases) == 9
        worst = fold((worst, rep.max_residual))
    for variant in ("nqubit11", "nqubit22"):
        rep = teleport.teleport_eq_suite(variant, n=2, seed=5)
        assert len(rep.cases) == 16
        worst = fold((worst, rep.max_residual))
    for variant, kw in (
        ("projective_qudit", {"d": 2}),
        ("projective_qudit", {"d": 3}),
        ("projective_qudit11", {"d": 3}),
        ("projective_nqubit", {"n": 2}),
    ):
        worst = fold((worst, teleport.projective_eq_check(variant, seed=6, **kw).max_residual))
    criterion(7, "teleportation equations, all variants and labels", worst)

    rng = np.random.default_rng(7)
    bad_fid = 0.0
    for variant, dim in (("qudit", 3), ("nqubit", 4), ("basic2", 2)):
        psi = random_state(dim, rng)
        m = haar_unitary(dim, rng) if variant == "qudit" else None
        for _, _, fid, _, _ in teleport.protocol_outcomes(psi, variant, m):
            bad_fid = fold((bad_fid, abs(fid - 1.0)))
    criterion(7, "protocol fidelity = 1 on every outcome, every variant",
              bad_fid, bound=1e-10)

    rows = teleport.protocol_outcomes(random_state(2, rng), "basic2")
    probs = np.array([r[1] for r in rows])
    draws = rng.choice(4, size=10_000, p=probs / probs.sum())
    counts = np.bincount(draws, minlength=4)
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    dev = np.max(np.abs(counts - 2500.0))
    criterion(7, "outcome frequencies uniform within 5 sigma over 10^4 samples",
              dev, bound=5 * sigma)


def test_criterion_8_yang_baxter_braid():
    worst = 0.0
    for eps, eta in product((1, -1), repeat=2):
        worst = fold((worst, braid.yang_baxter_check(
            braid.bell_transform(eps, eta), 2).max_residual))
    for strands in (3, 4):
        rep = braid.braid_rep_check(strands, -1, 1)
        assert rep.passed
        worst = fold((worst, rep.max_residual))
    criterion(8, "B(eps,eta) solves YBE (all signs); braid relations, <=4 strands", worst)

    cnot = dense_circuit_matrix(bell.Circuit(2, [("CNOT", (0, 1))]))
    cnot_res = braid.yang_baxter_check(cnot, 2).max_residual
    assert cnot_res >= 0.5, f"CNOT control too weak: {cnot_res}"
    plain = braid.twisted_yb_gates(2, (1, -1), (-1, 1), "plain")
    conj = braid.twisted_yb_gates(2, (1, -1), (-1, 1), "conjugated")
    plain_res = braid.yang_baxter_check(plain, 4).max_residual
    conj_res = braid.yang_baxter_check(conj, 4).max_residual
    assert plain_res > 1e-6, f"plain twisted gate unexpectedly solves YBE: {plain_res}"
    criterion(8, "CNOT fails YBE >= 0.5; twisted gates: conjugated passes, plain fails",
              conj_res)


def test_criterion_9_temperley_lieb():
    worst = 0.0
    rng = np.random.default_rng(90)
    for d in (2, 3):
        for strands in (3, 4):
            for a in range(d):
                for b in range(d):
                    rep = braid.tl_relation_check(braid.tl_generators(strands, d, (a, b)))
                    assert rep.passed, (d, strands, a, b)
                    worst = fold((worst, rep.max_residual))
        for _ in range(5):
            rep = braid.tl_relation_check(
                braid.tl_generators(3, d, (1, 0), haar_unitary(d, rng)))
            assert rep.passed
            worst = fold((worst, rep.max_residual))
    bad = braid.tl_relation_check(braid.tl_generators(3, 2, (0, 0), np.diag([1.0, 2.0])))
    bad_res = fold(c.residual for c in bad.cases if c.case_id.startswith("tl("))
    assert bad_res > 1e-6, f"non-unitary control too weak: {bad_res}"
    criterion(9, "TL idempotents and d^-2 relations, n<=4 strands, d in {2,3}, 10 unitary M",
              worst)


def test_criterion_10_braid_teleportation():
    rep = braid.table1_check()
    assert all(c.residual == 0 for c in rep.cases), "Table 1 sign mismatch"
    worst = 0.0
    for eps_l, eta_l, eps_r, eta_r in product((1, -1), repeat=4):
        for k, m in product((0, 1), repeat=2):
            sub = braid.braid_teleport_single_check(
                eps_l, eta_l, eps_r, eta_r, k, m, seed=100)
            worst = fold((worst, sub.max_residual))
    for blocked in (False, True):
        sub = braid.braid_teleport_multi_check(
            2, (-1, -1), (1, 1), (1, 1), (-1, -1), seed=101, blocked=blocked)
        assert [c.case_id for c in sub.cases] == [f"a={a} b={b}" for a, b in bell.all_labels(2)]
        worst = fold((worst, sub.max_residual))
    criterion(10, "Table 1 exact; single braid equation all signs; n=2 multi, 16 labels",
              worst)


def test_criterion_11_determinism(tmp_path, capsys):
    pairs = []
    for suite, extra in (
        ("basis-theorem", ["--d", "3", "--trials", "10"]),
        ("concurrence", ["--n", "2", "--trials", "5"]),
        ("teleport-eq", ["--variant", "qudit22", "--d", "3"]),
    ):
        files = []
        for run_idx in (0, 1):
            path = tmp_path / f"{suite}-{run_idx}.json"
            code = cli_main(["verify", suite, *extra, "--seed", "123", "--json", str(path)])
            assert code == 0, suite
            files.append(path.read_bytes())
        pairs.append(files[0] == files[1])
    capsys.readouterr()
    assert all(pairs)
    print("[PASS] criterion 11: byte-identical JSON on rerun with fixed seed "
          f"({len(pairs)} suites)")
