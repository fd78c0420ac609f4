"""Command-line front end: named verification suites, protocol demos,
circuit export, JSON reporting.

``SUITES`` declares each ``verify`` suite once, as a runner
``(tol, seed, *, flag=default, ...)`` whose keyword-only parameters are
its flags: the name gives ``--flag``, the default its default and the
annotation its type, with a ``Literal[...]`` annotation giving the
accepted values.  ``--tol``, ``--seed`` and ``--json`` are common to
every suite; any other flag a suite does not declare is bad usage.

Exit codes: 0 all cases pass, 1 some case failed, 2 bad usage.  The
default seed comes from BELLKIT_SEED (else 0); reports with a fixed
seed serialize byte-identically across reruns.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Literal, get_args, get_origin

import numpy as np

from . import bell, braid, teleport, verify
from .linalg import DEFAULT_TOL, fold, haar_unitary, random_state
from .pauli import basis_group_check, qubit_word_set, qudit_word_set
from .report import Report

# --tol must lie in [TOL_FLOOR, TOL_CEILING]: below the floor float64
# rounding fails sound identities, above the ceiling (or non-finite) a
# tolerance would pass broken ones.
TOL_FLOOR = 1e-15
TOL_CEILING = 1e-6

# A size flag below its floor exits 2 before anything is built.
SIZE_FLOORS = {"n": 1, "d": 2, "trials": 1, "conjugated": 0, "samples": 1}

# basis-group compares all N^2 products of its N = d^3 (qudit) or 2*4^n
# (multi) candidates with every member; above these sizes that no longer
# finishes in seconds, so it is refused up front.
BASIS_GROUP_MAX_D = 7
BASIS_GROUP_MAX_N = 3

Family = Literal["qubit", "qudit", "multi"]
TeleportVariant = Literal[teleport.QUDIT_VARIANTS + teleport.NQUBIT_VARIANTS]
# projective-eq also takes the teleport-eq style names of its variants
PROJECTIVE_ALIASES = {"basic2": "projective_qudit", "qudit": "projective_qudit",
                      "qudit11": "projective_qudit11", "nqubit": "projective_nqubit"}
ProjectiveVariant = Literal[
    (*PROJECTIVE_ALIASES, "projective_qudit", "projective_qudit11", "projective_nqubit")
]


def _size(kind: str, d: int, n: int, runner=None) -> dict:
    """The one size a family or teleport variant runs at, as its report records it.

    Multi-qubit kinds run at ``n``, the others at ``d``; the other size must
    keep the default that ``runner`` declares.  ``--family qubit`` and
    ``--variant basic2`` fix d = 2, so any other ``--d`` is refused.
    """
    branch = f"{'--family' if kind in get_args(Family) else '--variant'} {kind}"
    if kind == "multi" or "nqubit" in kind:
        _unused(runner, branch, d=d)
        return {"n": n}
    _unused(runner, branch, n=n)
    if kind in ("qubit", "basic2") and d != 2:
        raise ValueError(f"{branch} runs at d=2, got --d {d}")
    return {"d": d}


def _unused(runner, branch: str, **values) -> None:
    """Refuse a flag that ``branch`` ignores unless it keeps the default ``runner`` declares."""
    if runner is None:  # bellkit teleport declares its flags in _build_parser, not in a runner
        return
    declared = inspect.signature(runner).parameters
    for name, value in values.items():
        if value != declared[name].default:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{branch} ignores {flag}, got {flag} {value}")


def _suite_gram(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    return verify.gram_check(verify.bell_family(**_size(family, d, n, _suite_gram)), tol)


def _suite_completeness(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    return verify.completeness_check(verify.bell_family(**_size(family, d, n, _suite_completeness)), tol)


def _suite_basis_theorem(
    tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2, trials: int = 20,
) -> Report:
    size = _size(family, d, n, _suite_basis_theorem)
    return verify.basis_theorem_suite(**size, trials=trials, seed=seed, tol=tol)


def _suite_basis_group(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    if family == "multi":
        if n > BASIS_GROUP_MAX_N:
            raise ValueError(f"basis-group --n must be at most {BASIS_GROUP_MAX_N}, got {n}")
        n = _size(family, d, n, _suite_basis_group)["n"]
        return basis_group_check(qubit_word_set(n), 2**n, tol)
    if d > BASIS_GROUP_MAX_D:
        raise ValueError(f"basis-group --d must be at most {BASIS_GROUP_MAX_D}, got {d}")
    d = _size(family, d, n, _suite_basis_group)["d"]
    return basis_group_check(qudit_word_set(d), d, tol)


def _suite_observables(
    tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2, k: int = 0, conjugated: int = 0,
) -> Report:
    if family == "multi":
        _unused(_suite_observables, "--family multi", d=d, k=k, conjugated=conjugated)
        rep = verify.multiqubit_observable_suite(n, tol)
    else:
        d = _size(family, d, n, _suite_observables)["d"]
        rep = verify.qudit_observable_suite(d, k, conjugated, seed, tol)
    return Report("observables", {"family": family, **rep.params}, rep.cases, tolerance=tol, seed=seed)


def _suite_twist(tol, seed, *, n: int = 2) -> Report:
    return bell.twist_check(n, tol)


def _suite_concurrence(tol, seed, *, n: int = 2, trials: int = 20) -> Report:
    return bell.concurrence_check(n, trials, seed, tol)


def _suite_teleport_eq(
    tol, seed, *, variant: TeleportVariant = "basic2", d: int = 2, n: int = 2,
    m: Literal[teleport.M_MODES] = "unitary",
) -> Report:
    size = _size(variant, d, n, _suite_teleport_eq)
    return teleport.teleport_eq_suite(variant, **size, seed=seed, tol=tol, m_mode=m)


def _suite_projective_eq(
    tol, seed, *, variant: ProjectiveVariant = "basic2", d: int = 2, n: int = 2,
) -> Report:
    size = _size(variant, d, n, _suite_projective_eq)
    variant = PROJECTIVE_ALIASES.get(variant, variant)
    return teleport.projective_eq_check(variant, **size, seed=seed, tol=tol)


def _suite_linearity_reduction(
    tol, seed, *, variant: TeleportVariant = "basic2", d: int = 2, n: int = 2,
) -> Report:
    size = _size(variant, d, n, _suite_linearity_reduction)
    return teleport.linearity_reduction_check(variant, **size, seed=seed, tol=tol)


def _suite_transfer_identity(tol, seed, *, d: int = 2) -> Report:
    return teleport.transfer_identity_check(d, seed, tol)


def _suite_ybe(
    tol, seed, *, gate: Literal["bell", "swap", "cnot", "twisted", "twisted-plain"] = "bell", n: int = 2,
    eps: str = "1", eta: str = "1",
) -> Report:
    if not gate.startswith("twisted"):
        _unused(_suite_ybe, f"--gate {gate}", n=n, eps=eps, eta=eta)
    if gate == "bell":
        rep = Report("ybe", {"gate": "bell"}, tolerance=tol)
        for e in (1, -1):
            for t in (1, -1):
                sub = braid.yang_baxter_check(braid.bell_transform(e, t), 2, tol)
                rep.add(f"B({e},{t})", sub.max_residual)
        return rep
    if gate in ("swap", "cnot"):
        # cnot is a falsifiability control; the report fails and the CLI exits 1
        rep = braid.yang_baxter_check(bell.Circuit(2, [(gate.upper(), (0, 1))]).to_matrix(), 2, tol)
    else:
        signs = _parse_signs(eps, n), _parse_signs(eta, n)
        kind = "plain" if gate == "twisted-plain" else "conjugated"
        rep = braid.yang_baxter_check(braid.twisted_yb_gates(n, *signs, kind), 2**n, tol)
        rep.params.update(eps=signs[0], eta=signs[1])
    rep.params["gate"] = gate
    return rep


def _suite_braid(
    tol, seed, *, gate: Literal["bell", "cnot"] = "bell", strands: int = 3, eps_scalar: int = 1,
    eta_scalar: int = 1,
) -> Report:
    cnot = None
    if gate == "cnot":
        _unused(_suite_braid, "--gate cnot", eps_scalar=eps_scalar, eta_scalar=eta_scalar)
        cnot = bell.Circuit(2, [("CNOT", (0, 1))]).to_matrix()
    rep = braid.braid_rep_check(strands, eps_scalar, eta_scalar, gate=cnot, tol=tol)
    rep.params["gate"] = gate
    return rep


def _suite_tl(
    tol, seed, *, m: Literal["identity", "unitary", "nonunitary"] = "unitary", strands: int = 3, d: int = 2,
    alpha: int = 0, beta: int = 0,
) -> Report:
    rng = np.random.default_rng(seed)
    local = None
    if m == "unitary":
        local = haar_unitary(d, rng)
    elif m == "nonunitary":
        local = verify.perturbed_nonunitary(d, rng)
    rep = braid.tl_relation_check(braid.tl_generators(strands, d, (alpha, beta), local), tol)
    rep.params.update(m=m, alpha=alpha, beta=beta)
    rep.seed = seed
    return rep


def _suite_braid_teleport(
    tol, seed, *, n: int = 2, eps_l: str = "-1", eta_l: str = "1", eps_r: str = "1", eta_r: str = "-1",
) -> Report:
    rep = Report("braid-teleport", {"n": n}, tolerance=tol, seed=seed)
    if n == 1:
        _unused(_suite_braid_teleport, "--n 1", eps_l=eps_l, eta_l=eta_l, eps_r=eps_r, eta_r=eta_r)
        sub = braid.table1_check()
        rep.cases.extend(sub.cases)
        for e in (1, -1):
            for t in (1, -1):
                k = m = (1 + t) // 2
                sub = braid.braid_teleport_single_check(e, t, -e, -t, k, m, seed=seed, tol=tol)
                rep.add(f"single eps_l={e} eta_l={t} k=m={k}", sub.max_residual)
        return rep
    texts = {"eps_l": eps_l, "eta_l": eta_l, "eps_r": eps_r, "eta_r": eta_r}
    signs = {name: _parse_signs(text, n) for name, text in texts.items()}
    rep.params.update(signs)
    for blocked in (False, True):
        for a, b in bell.all_labels(n):
            sub = braid.braid_teleport_multi_check(
                n, **signs, a_bits=a, b_bits=b, seed=seed, tol=tol, blocked=blocked
            )
            form = "blocked" if blocked else "interleaved"
            rep.add(f"{form} a={a} b={b}", sub.max_residual)
    return rep


def _suite_trace_constraint(tol, seed, *, n: int = 2) -> Report:
    return verify.trace_constraint_solve(n, tol)


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
    "linearity-reduction": _suite_linearity_reduction,
    "transfer-identity": _suite_transfer_identity,
    "ybe": _suite_ybe,
    "braid": _suite_braid,
    "tl": _suite_tl,
    "braid-teleport": _suite_braid_teleport,
    "trace-constraint": _suite_trace_constraint,
}


def _parse_signs(text: str, n: int) -> tuple[int, ...]:
    """One sign for all n pairs, or a comma list (the library checks its length)."""
    parts = tuple(int(p) for p in text.split(","))
    return parts * n if len(parts) == 1 else parts


class _Parser(argparse.ArgumentParser):
    """Raise bad usage as ValueError, so that ``main`` returns 2 instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _suite_parser(name: str) -> argparse.ArgumentParser:
    """The flags of ``verify <name>``: its runner's keyword-only parameters, then the common ones."""
    parser = _Parser(prog=f"bellkit verify {name}", allow_abbrev=False)
    for param in inspect.signature(SUITES[name], eval_str=True).parameters.values():
        if param.kind is not param.KEYWORD_ONLY:
            continue
        choices = get_args(param.annotation) if get_origin(param.annotation) is Literal else None
        parser.add_argument(
            "--" + param.name.replace("_", "-"),
            type=str if choices else param.annotation,
            choices=choices,
            default=param.default,
            help=f"default: {param.default}",
        )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"default: {DEFAULT_TOL}, "
                        f"at least {TOL_FLOOR}, at most {TOL_CEILING}")
    # argparse applies type=int to a string default only when the flag is absent,
    # so a malformed BELLKIT_SEED exits 2 like a malformed --seed
    seed = os.environ.get("BELLKIT_SEED", "0")
    parser.add_argument("--seed", type=int, default=seed, help="default: BELLKIT_SEED, else 0")
    parser.add_argument("--json", dest="json_path", metavar="PATH", help="write the report here")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a named verification suite",
                        description="Each suite takes its own flags: bellkit verify SUITE --help")
    pv.add_argument("suite", metavar="SUITE", help=f"one of: {', '.join(sorted(SUITES))}")

    pt = sub.add_parser("teleport", help="run the protocol simulator")
    pt.add_argument("--variant", choices=["basic2", "qudit", "nqubit"], default="basic2")
    pt.add_argument("--d", type=int, default=2)
    pt.add_argument("--n", type=int, default=1)
    pt.add_argument("--samples", type=int, default=1000)
    pt.add_argument("--seed", type=int, default=os.environ.get("BELLKIT_SEED", "0"))
    pt.add_argument("--json", dest="json_path", default=None)

    pc = sub.add_parser("circuit", help="export a preparation circuit as OpenQASM 2.0")
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--alpha", default="0")
    pc.add_argument("--beta", default="0")
    pc.add_argument("--twist", type=int, default=None, help="export only the twist SWAPs")
    pc.add_argument("--out", required=True)
    return parser


def _at_least(values: dict) -> bool:
    """False, with a one-line message on stderr, if a size flag is below its floor."""
    for name, floor in SIZE_FLOORS.items():
        if name in values and values[name] < floor:
            print(f"--{name} must be at least {floor}, got {values[name]}", file=sys.stderr)
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


def cmd_verify(suite: str, argv: list[str]) -> int:
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    flags = vars(_suite_parser(suite).parse_args(argv))
    tol, seed, json_path = flags.pop("tol"), flags.pop("seed"), flags.pop("json_path")
    if not TOL_FLOOR <= tol <= TOL_CEILING:
        print(
            f"--tol {tol} outside the documented floor {TOL_FLOOR} and ceiling {TOL_CEILING}",
            file=sys.stderr,
        )
        return 2
    if not _at_least(flags):
        return 2
    report = SUITES[suite](tol, seed, **flags)
    return _emit(report.to_dict(), json_path, report.passed)


def cmd_teleport(args) -> int:
    if not _at_least(vars(args)):
        return 2
    dims = _size(args.variant, args.d, args.n)
    rng = np.random.default_rng(args.seed)
    if args.variant == "nqubit":
        psi, m = random_state(2**args.n, rng), None
    else:
        psi = random_state(args.d, rng)
        m = None if args.variant == "basic2" else haar_unitary(args.d, rng)
    rows = teleport.protocol_outcomes(psi, args.variant, m)
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
    if args.twist is not None:
        circ = bell.twist_decomposition(args.twist)
    else:
        alpha = [int(c) for c in str(args.alpha)]
        beta = [int(c) for c in str(args.beta)]
        if len(alpha) != args.n or len(beta) != args.n:
            raise ValueError(f"labels must have length n={args.n}")
        circ = bell.prep_circuit(args.n, alpha, beta)
    with open(args.out, "w") as fh:
        fh.write(circ.to_qasm())
    print(f"wrote {len(circ.gates)} gates to {args.out}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a suite's flags are parsed by its own parser, built only for that suite
        if argv[:1] == ["verify"] and len(argv) > 1 and argv[1] not in ("-h", "--help"):
            return cmd_verify(argv[1], argv[2:])
        args = _build_parser().parse_args(argv)
        return cmd_teleport(args) if args.command == "teleport" else cmd_circuit(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
