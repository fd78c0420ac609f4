"""Command-line front end: named verification suites, protocol demos,
circuit export, JSON reporting.

Exit codes: 0 all cases pass, 1 some case failed, 2 bad usage.  The
default seed comes from BELLKIT_SEED (else 0); reports with a fixed
seed serialize byte-identically across reruns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bell, braid, teleport, verify
from .linalg import DEFAULT_TOL, fold, haar_unitary, random_state, residual
from .pauli import basis_group_check, qubit_word_set, qudit_word_set
from .report import Report

# --tol must lie in [TOL_FLOOR, TOL_CEILING]: below the floor float64
# rounding fails sound identities, above the ceiling (or non-finite) a
# tolerance would pass broken ones.
TOL_FLOOR = 1e-15
TOL_CEILING = 1e-6

# basis-group compares all N^2 products of its N = d^3 (qudit) or 2*4^n
# (multi) candidates with every member; above these sizes that no longer
# finishes in seconds, so it is refused up front.
BASIS_GROUP_MAX_D = 7
BASIS_GROUP_MAX_N = 3


def _choice(value: str, flag: str, allowed: tuple[str, ...]) -> None:
    """Reject a control-flag value the suite does not distinguish (exit 2)."""
    if value not in allowed:
        raise ValueError(f"{flag} must be one of {'|'.join(allowed)}, got {value!r}")


def _family(args) -> verify.BasisFamily:
    if args.family == "qubit":
        return verify.qubit_bell_family()
    if args.family == "qudit":
        return verify.qudit_bell_family(args.d)
    return verify.multi_bell_family(args.n)


def _suite_gram(args) -> Report:
    return verify.gram_check(_family(args), args.tol)


def _suite_completeness(args) -> Report:
    return verify.completeness_check(_family(args), args.tol)


def _suite_basis_theorem(args) -> Report:
    if args.family == "multi":
        return verify.basis_theorem_suite(n=args.n, trials=args.trials, seed=args.seed, tol=args.tol)
    return verify.basis_theorem_suite(d=args.d, trials=args.trials, seed=args.seed, tol=args.tol)


def _suite_observables(args) -> Report:
    rep = Report(
        "observables",
        {"family": args.family, "d": args.d, "n": args.n, "conjugated": args.conjugated},
        tolerance=args.tol,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    if args.family == "multi":
        sub = verify.multiqubit_observable_suite(args.n, args.tol)
        rep.cases.extend(sub.cases)
        return rep
    ks = [args.k] if args.k else range(1, args.d)
    for k in ks:
        for spec in verify.qudit_observables(args.d, k):
            rep.add(spec.name, verify.observable_check(spec, args.tol).max_residual)
            for _ in range(args.conjugated):
                for side in ("left", "right"):
                    conj = verify.conjugated_observables(spec, haar_unitary(args.d, rng), side)
                    rep.add(conj.name, verify.observable_check(conj, args.tol).max_residual)
    return rep


def _suite_twist(args) -> Report:
    rep = Report("twist", {"n": args.n}, tolerance=args.tol)
    circ = bell.twist_decomposition(args.n)
    rep.add("decomposition-matches-twist", residual(circ.to_matrix(), bell.twist(args.n)))
    expected = args.n * (args.n - 1) // 2
    rep.add(f"swap-count={expected}", float(abs(len(circ.gates) - expected)), tol=0.5)
    if args.n == 2:
        direct = np.kron(np.kron(np.eye(2), bell.Circuit(2, [("SWAP", (0, 1))]).to_matrix()), np.eye(2))
        rep.add("tau4-is-I.SWAP.I", residual(bell.twist(2), direct))
    return rep


def _suite_concurrence(args) -> Report:
    rng = np.random.default_rng(args.seed)
    rep = Report("concurrence", {"n": args.n, "trials": args.trials}, tolerance=args.tol, seed=args.seed)
    deviations = []
    for _ in range(args.trials):
        psi = random_state(4**args.n, rng)
        deviations.append(abs(bell.concurrence(psi, args.n) - bell.concurrence_oracle(psi, args.n)))
    worst = fold(deviations)
    rep.add(f"formula-vs-oracle ({args.trials} random states)", worst, tol=1e-10)
    rep.add("bell-state-is-1", abs(bell.concurrence(bell.multi_bell(args.n, 0, 0), args.n) - 1.0), tol=1e-10)
    rep.add("product-ket-is-0", bell.concurrence(bell.product_ket((0,) * (2 * args.n)), args.n), tol=1e-10)
    for sign, name in ((1, "+"), (-1, "-")):
        rep.add(
            f"ghz{name}-is-1",
            abs(bell.concurrence(bell.ghz_state(args.n, 0, 0, sign), args.n) - 1.0),
            tol=1e-10,
        )
    return rep


def _suite_teleport_eq(args) -> Report:
    return teleport.teleport_eq_suite(
        args.variant, d=args.d, n=args.n, seed=args.seed, tol=args.tol, m_mode=args.m
    )


def _suite_projective_eq(args) -> Report:
    aliases = {
        "basic2": "projective_qudit",
        "qudit": "projective_qudit",
        "qudit11": "projective_qudit11",
        "nqubit": "projective_nqubit",
    }
    variant = aliases.get(args.variant, args.variant)
    return teleport.projective_eq_check(
        variant, d=args.d, n=args.n, seed=args.seed, tol=args.tol
    )


def _suite_ybe(args) -> Report:
    _choice(args.gate, "--gate", ("bell", "swap", "cnot", "twisted", "twisted-plain"))
    if args.gate == "bell":
        rep = Report("ybe", {"gate": "bell"}, tolerance=args.tol)
        for eps in (1, -1):
            for eta in (1, -1):
                sub = braid.yang_baxter_check(braid.bell_transform(eps, eta), 2, args.tol)
                rep.add(f"B({eps},{eta})", sub.max_residual)
        return rep
    if args.gate == "swap":
        swap = bell.Circuit(2, [("SWAP", (0, 1))]).to_matrix()
        return braid.yang_baxter_check(swap, 2, args.tol)
    if args.gate == "cnot":
        # falsifiability control; the report fails and the CLI exits 1
        cnot = bell.Circuit(2, [("CNOT", (0, 1))]).to_matrix()
        return braid.yang_baxter_check(cnot, 2, args.tol)
    signs = _parse_signs(args.eps, args.n), _parse_signs(args.eta, args.n)
    kind = "plain" if args.gate == "twisted-plain" else "conjugated"
    gate = braid.twisted_yb_gates(args.n, signs[0], signs[1], kind)
    return braid.yang_baxter_check(gate, 2**args.n, args.tol)


def _suite_braid(args) -> Report:
    _choice(args.gate, "--gate", ("bell", "cnot"))
    if args.gate == "cnot":
        cnot = bell.Circuit(2, [("CNOT", (0, 1))]).to_matrix()
        return braid.braid_rep_check(args.strands, gate=cnot, tol=args.tol)
    return braid.braid_rep_check(args.strands, args.eps_scalar, args.eta_scalar, tol=args.tol)


def _suite_tl(args) -> Report:
    _choice(args.m, "--m", ("identity", "unitary", "nonunitary"))
    rng = np.random.default_rng(args.seed)
    m = None
    if args.m == "unitary":
        m = haar_unitary(args.d, rng)
    elif args.m == "nonunitary":
        m = verify.perturbed_nonunitary(args.d, rng)
    rep_tl = braid.tl_generators(args.strands, args.d, (args.alpha, args.beta), m)
    rep = braid.tl_relation_check(rep_tl, args.tol)
    rep.params["m"] = args.m
    rep.seed = args.seed
    return rep


def _suite_braid_teleport(args) -> Report:
    rep = Report("braid-teleport", {"n": args.n}, tolerance=args.tol, seed=args.seed)
    if args.n == 1:
        sub = braid.table1_check()
        rep.cases.extend(sub.cases)
        for eps_l in (1, -1):
            for eta_l in (1, -1):
                k = m = (1 + eta_l) // 2
                sub = braid.braid_teleport_single_check(
                    eps_l, eta_l, -eps_l, -eta_l, k, m, seed=args.seed, tol=args.tol
                )
                rep.add(f"single eps_l={eps_l} eta_l={eta_l} k=m={k}", sub.max_residual)
        return rep
    eps_l = _parse_signs(args.eps_l, args.n)
    eta_l = _parse_signs(args.eta_l, args.n)
    eps_r = _parse_signs(args.eps_r, args.n)
    eta_r = _parse_signs(args.eta_r, args.n)
    for blocked in (False, True):
        for a, b in bell.all_labels(args.n):
            sub = braid.braid_teleport_multi_check(
                args.n, eps_l, eta_l, eps_r, eta_r, a, b,
                seed=args.seed, tol=args.tol, blocked=blocked,
            )
            form = "blocked" if blocked else "interleaved"
            rep.add(f"{form} a={a} b={b}", sub.max_residual)
    return rep


def _suite_trace_constraint(args) -> Report:
    return verify.trace_constraint_solve(args.n, args.tol)


def _suite_basis_group(args) -> Report:
    if args.family == "multi":
        if args.n > BASIS_GROUP_MAX_N:
            raise ValueError(f"basis-group --n must be at most {BASIS_GROUP_MAX_N}, got {args.n}")
        return basis_group_check(qubit_word_set(args.n), 2**args.n, args.tol)
    if args.d > BASIS_GROUP_MAX_D:
        raise ValueError(f"basis-group --d must be at most {BASIS_GROUP_MAX_D}, got {args.d}")
    return basis_group_check(qudit_word_set(args.d), args.d, args.tol)


SUITES = {
    "gram": _suite_gram,
    "completeness": _suite_completeness,
    "basis-theorem": _suite_basis_theorem,
    "basis-group": _suite_basis_group,
    "observables": _suite_observables,
    "twist": _suite_twist,
    "concurrence": _suite_concurrence,
    "teleport-eq": _suite_teleport_eq,
    "projective-eq": _suite_projective_eq,
    "ybe": _suite_ybe,
    "braid": _suite_braid,
    "tl": _suite_tl,
    "braid-teleport": _suite_braid_teleport,
    "trace-constraint": _suite_trace_constraint,
}


def _parse_signs(text: str, n: int) -> tuple[int, ...]:
    parts = [int(p) for p in str(text).split(",")]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ValueError(f"need {n} signs, got {text!r}")
    return tuple(parts)


def _default_seed() -> int:
    return int(os.environ.get("BELLKIT_SEED", "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bellkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    pv.add_argument("--family", choices=["qubit", "qudit", "multi"], default="qudit")
    pv.add_argument("--d", type=int, default=2)
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--k", type=int, default=0)
    pv.add_argument("--strands", type=int, default=3)
    pv.add_argument("--alpha", type=int, default=0)
    pv.add_argument("--beta", type=int, default=0)
    pv.add_argument("--trials", type=int, default=20)
    pv.add_argument("--variant", default="basic2")
    pv.add_argument("--gate", default="bell")
    pv.add_argument("--m", default="unitary")
    pv.add_argument("--conjugated", type=int, default=0)
    pv.add_argument("--eps", default="1")
    pv.add_argument("--eta", default="1")
    pv.add_argument("--eps-l", default="-1")
    pv.add_argument("--eta-l", default="1")
    pv.add_argument("--eps-r", default="1")
    pv.add_argument("--eta-r", default="-1")
    pv.add_argument("--eps-scalar", type=int, default=1)
    pv.add_argument("--eta-scalar", type=int, default=1)
    pv.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--json", dest="json_path", default=None)

    pt = sub.add_parser("teleport", help="run the protocol simulator")
    pt.add_argument("--variant", choices=["basic2", "qudit", "nqubit"], default="basic2")
    pt.add_argument("--d", type=int, default=2)
    pt.add_argument("--n", type=int, default=1)
    pt.add_argument("--samples", type=int, default=1000)
    pt.add_argument("--seed", type=int, default=None)
    pt.add_argument("--json", dest="json_path", default=None)

    pc = sub.add_parser("circuit", help="export a preparation circuit as OpenQASM 2.0")
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--alpha", default="0")
    pc.add_argument("--beta", default="0")
    pc.add_argument("--twist", type=int, default=None, help="export only the twist SWAPs")
    pc.add_argument("--out", required=True)
    return parser


def _at_least(args, **floors: int) -> bool:
    """False, with a one-line message on stderr, if a size flag is below its floor."""
    for name, floor in floors.items():
        value = getattr(args, name)
        if value < floor:
            print(f"--{name} must be at least {floor}, got {value}", file=sys.stderr)
            return False
    return True


def _emit(report_dict: dict, json_path: str | None, passed: bool) -> int:
    text = json.dumps(report_dict, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
        for case in report_dict.get("cases", []):
            status = "PASS" if case["pass"] else "FAIL"
            print(f"[{status}] {case['id']}  residual={case['residual']:.3e}")
    else:
        print(text)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    if not TOL_FLOOR <= args.tol <= TOL_CEILING:
        print(
            f"--tol {args.tol} outside the documented floor {TOL_FLOOR} and ceiling {TOL_CEILING}",
            file=sys.stderr,
        )
        return 2
    if not _at_least(args, n=1, d=2, trials=1, conjugated=0):
        return 2
    if args.seed is None:
        args.seed = _default_seed()
    try:
        report = SUITES[args.suite](args)
    except (ValueError, KeyError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    return _emit(report.to_dict(), args.json_path, report.passed)


def cmd_teleport(args) -> int:
    if not _at_least(args, n=1, d=2, samples=1):
        return 2
    if args.seed is None:
        args.seed = _default_seed()
    rng = np.random.default_rng(args.seed)
    try:
        if args.variant == "nqubit":
            psi = random_state(2**args.n, rng)
            m = None
            dims = {"n": args.n}
        else:
            d = 2 if args.variant == "basic2" else args.d
            psi = random_state(d, rng)
            m = None if args.variant == "basic2" else haar_unitary(d, rng)
            dims = {"d": d}
        rows = teleport.protocol_outcomes(psi, args.variant, m)
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    probs = np.array([r[1] for r in rows])
    draws = rng.choice(len(rows), size=args.samples, p=probs / probs.sum())
    histogram = {str(rows[k][0]): int(np.sum(draws == k)) for k in range(len(rows))}
    fidelities = [r[2] for r in rows]
    min_fidelity = fold(fidelities, np.min)
    out = {
        "schema": "bellkit-report/1",
        "suite": "teleport-protocol",
        "params": {**dims, "samples": args.samples, "variant": args.variant},
        "seed": args.seed,
        "histogram": histogram,
        "min_fidelity": min_fidelity,
        "max_fidelity": fold(fidelities),
        "pass": bool(min_fidelity > 1 - 1e-10),
    }
    return _emit(out, args.json_path, out["pass"])


def cmd_circuit(args) -> int:
    try:
        if args.twist is not None:
            circ = bell.twist_decomposition(args.twist)
        else:
            alpha = [int(c) for c in str(args.alpha)]
            beta = [int(c) for c in str(args.beta)]
            if len(alpha) != args.n or len(beta) != args.n:
                raise ValueError(f"labels must have length n={args.n}")
            circ = bell.prep_circuit(args.n, alpha, beta)
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        fh.write(circ.to_qasm())
    print(f"wrote {len(circ.gates)} gates to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "teleport":
        return cmd_teleport(args)
    return cmd_circuit(args)


if __name__ == "__main__":
    sys.exit(main())
