"""Command-line front end: named verification suites, protocol demos,
circuit export, JSON reporting.

Every command is declared once, by its runner: ``SUITES`` holds one per
``verify`` suite, named after it, and ``COMMANDS`` one for ``teleport``
and ``circuit``.  A runner's keyword-only parameters are its flags: name,
default (none: required) and type, a ``Literal[...]`` giving the choices;
the annotations are evaluated where each runner is defined, never from text.
Its positional parameters name the common flags it takes, ``tol`` and
``seed``; a runner that returns a report also takes ``--json``.  Any other
flag is bad usage.  ``_read`` reads the flags from that table, and prints
it for ``--help``; argparse serves only top-level help and bad usage.

Exit codes: 0 all cases pass, 1 some case failed or the report has no
case, 2 bad usage.  The default seed comes from BELLKIT_SEED (else 0);
reports with a fixed seed serialize byte-identically across reruns.
"""

import inspect
import json
import os
import re
import sys
from contextlib import suppress
from typing import Literal, get_args, get_origin

import numpy as np

from . import bell, braid, teleport, verify
from .linalg import DEFAULT_TOL, fold, haar_unitary, random_state
from .pauli import basis_group_check, qubit_word_set, qudit_word_set
from .report import SCHEMA, Report

# --tol must lie in [TOL_FLOOR, TOL_CEILING]: below the floor float64
# rounding fails sound identities, above the ceiling (or non-finite) a
# tolerance would pass broken ones.
TOL_FLOOR = 1e-15
TOL_CEILING = 1e-6

# A size flag below its floor, or above its command's cap, exits 2 before
# anything is built.  Each cap's comment names what grows past it; most caps
# sit well below a second of work and keep the sizes each suite was written for.
SIZE_FLOORS = {"n": 1, "d": 2, "trials": 1, "conjugated": 0, "samples": 1, "strands": 2, "twist": 1}
SIZE_CAPS = {
    # closure: N^2 products of N = d^3 (qudit) or 2*4^n (multi) candidates
    "verify basis-group": {"d": 7, "n": 3},
    # each trial state and the dense Bell word: 4^n complex entries, 1 GiB at n = 13
    "verify concurrence": {"n": 12},
    # the twist's 4^n-entry index arrays, and its n(n-1)/2 SWAPs
    "verify twist": {"n": 6},
    # one teleportation per basis input: 2^n inputs, each with 8^n-entry sides
    "verify linearity-reduction": {"n": 6},
    # the exported twist circuit's n(n-1)/2 SWAPs
    "circuit": {"twist": 6},
    # 2n observables on the family's 4^n words of 4^n entries each
    "verify observables": {"n": 5},
    # the trace system, dense, 4^n x 4^n
    "verify trace-constraint": {"n": 3},
    # the contracted state psi x Omega: d^3 entries
    "verify transfer-identity": {"d": 16},
    # one case per generator pair; the far-commutation support, d^4 x d^4
    "verify tl": {"strands": 5, "d": 4},
    # one case per pair of generators
    "verify braid": {"strands": 6},
    # the twisted gates, 4^n x 4^n, checked on the 8^n-dim triple space
    "verify ybe": {"n": 3},
    # 4^n resource kets, each an 8^n-entry teleportation vector
    "verify braid-teleport": {"n": 2},
}

Family = Literal["qubit", "qudit", "multi"]


# The variant names each teleport check accepts, aliases first.
_variants = {check: Literal[(*teleport._ALIASES.get(check, ()), *names)] for check, names in teleport._VARIANTS.items()}


def _size(runner, d: int, n: int, **choice: str) -> dict:
    """The one size a family or teleport variant runs at, as its report records it.

    ``choice`` is the flag that picks it, ``family=...`` or ``variant=...``.
    Multi-qubit kinds run at ``n``, the others at ``d``; the other size must
    keep the default that ``runner`` declares.  ``--family qubit`` and
    ``--variant basic2`` fix d = 2, so any other ``--d`` is refused.
    """
    ((flag, kind),) = choice.items()
    branch = f"--{flag} {kind}"
    if kind == "multi" or "nqubit" in kind:
        _unused(runner, branch, d=d)
        return {"n": n}
    _unused(runner, branch, n=n)
    if kind in ("qubit", "basic2") and d != 2:
        raise ValueError(f"{branch} runs at d=2, got --d {d}")
    return {"d": d}


def _unused(runner, branch: str, **values) -> None:
    """Refuse a flag that ``branch`` ignores unless it keeps the default ``runner`` declares."""
    declared = inspect.unwrap(runner).__kwdefaults__  # a wrapper keeps no defaults of its own
    for name, value in values.items():
        if value != declared[name]:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{branch} ignores {flag}, got {flag} {value}")


def _suite_gram(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    return verify.gram_check(bell.bell_unitaries(**_size(_suite_gram, d, n, family=family))[1], tol)


def _suite_completeness(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    return verify.completeness_check(bell.bell_unitaries(**_size(_suite_completeness, d, n, family=family))[1], tol)


def _suite_basis_theorem(
    tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2, trials: int = 20,
) -> Report:
    size = _size(_suite_basis_theorem, d, n, family=family)
    return verify.basis_theorem_suite(**size, trials=trials, seed=seed, tol=tol)


def _suite_basis_group(tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2) -> Report:
    size = _size(_suite_basis_group, d, n, family=family)
    return basis_group_check(qubit_word_set(**size) if family == "multi" else qudit_word_set(**size), tol)


def _suite_observables(
    tol, seed, *, family: Family = "qudit", d: int = 2, n: int = 2, k: int = 0, conjugated: int = 0,
) -> Report:
    if family == "multi":
        _unused(_suite_observables, "--family multi", d=d, k=k, conjugated=conjugated)
        rep = verify.multiqubit_observable_suite(n, tol)
    else:
        d = _size(_suite_observables, d, n, family=family)["d"]
        rep = verify.qudit_observable_suite(d, k, conjugated, seed, tol)
    return Report("observables", {"family": family, **rep.params}, rep.cases, tolerance=tol, seed=seed)


def _suite_twist(tol, seed, *, n: int = 2) -> Report:
    return bell.twist_check(n, tol)


def _suite_concurrence(tol, seed, *, n: int = 2, trials: int = 20) -> Report:
    return bell.concurrence_check(n, trials, seed, tol)


def _suite_teleport_eq(
    tol, seed, *, variant: _variants["teleport-eq"] = "basic2", d: int = 2, n: int = 2,
    m: Literal[teleport.M_MODES] = "unitary",
) -> Report:
    size = _size(_suite_teleport_eq, d, n, variant=variant)
    if variant == "basic2" and m != "identity":  # basic2 runs at M = 1
        _unused(_suite_teleport_eq, "--variant basic2", m=m)
    return teleport.teleport_eq_suite(variant, **size, seed=seed, tol=tol, m_mode=m)


def _suite_projective_eq(
    tol, seed, *, variant: _variants["projective-eq"] = "basic2", d: int = 2, n: int = 2,
) -> Report:
    size = _size(_suite_projective_eq, d, n, variant=variant)
    return teleport.projective_eq_check(variant, **size, seed=seed, tol=tol)


def _suite_linearity_reduction(
    tol, seed, *, variant: _variants["teleport-eq"] = "basic2", d: int = 2, n: int = 2,
) -> Report:
    size = _size(_suite_linearity_reduction, d, n, variant=variant)
    return teleport.linearity_reduction_check(variant, **size, seed=seed, tol=tol)


def _suite_transfer_identity(tol, seed, *, d: int = 2) -> Report:
    return teleport.transfer_identity_check(d, seed, tol)


def _suite_bell_action(tol, seed) -> Report:
    """The Bell transform's unified action on product kets, its bijection, adjoint and unitarity, at all four sign pairs."""
    rep = Report("bell-action", {}, tolerance=tol)
    for e in (1, -1):
        for t in (1, -1):
            for case in braid.bell_action_check(e, t, tol).cases:
                rep.add(f"B({e},{t}) {case.case_id}", case.residual)
    return rep


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
        rep = braid.yang_baxter_check(bell.Circuit(2, [(gate.upper(), (0, 1))]).to_monomial().dense(), 2, tol)
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
        cnot = bell.Circuit(2, [("CNOT", (0, 1))]).to_monomial().dense()
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
        sub = braid.braid_teleport_multi_check(n, **signs, seed=seed, tol=tol, blocked=blocked)
        for case in sub.cases:
            rep.add(f"{sub.params['form']} {case.case_id}", case.residual)
    return rep


def _suite_trace_constraint(tol, seed, *, n: int = 2) -> Report:
    return verify.trace_constraint_solve(n, tol)


# A suite's name is its runner's after "_suite_", with "-" for "_".
SUITES = {runner.__name__[7:].replace("_", "-"): runner for runner in (
    _suite_gram, _suite_completeness, _suite_basis_theorem, _suite_basis_group, _suite_observables, _suite_twist,
    _suite_concurrence, _suite_teleport_eq, _suite_projective_eq, _suite_linearity_reduction, _suite_transfer_identity,
    _suite_bell_action, _suite_ybe, _suite_braid, _suite_tl, _suite_braid_teleport, _suite_trace_constraint,
)}


def _parse_signs(text: str, n: int) -> tuple[int, ...]:
    """One sign for all n pairs, or a comma list (the library checks its length)."""
    parts = tuple(int(p) for p in text.split(","))
    return parts * n if len(parts) == 1 else parts


def _run_teleport(
    seed, *, variant: _variants["protocol"] = "basic2", d: int = 2, n: int = 1, samples: int = 1000,
) -> dict:
    """Run the protocol simulator: sample Born-rule outcomes of one teleportation."""
    dims = _size(_run_teleport, d, n, variant=variant)
    rng = np.random.default_rng(seed)
    if variant == "nqubit":
        psi, m = random_state(2**n, rng), None
    else:
        psi = random_state(d, rng)
        m = None if variant == "basic2" else haar_unitary(d, rng)
    labels, probs, fidelities, _, _ = zip(*teleport.protocol_outcomes(psi, variant, m))
    histogram = dict(zip(map(str, labels), teleport.sample_histogram(np.array(probs), samples, rng).tolist()))
    min_fidelity = fold(fidelities, np.min)
    return {
        "schema": SCHEMA,
        "suite": "teleport-protocol",
        "params": {**dims, "samples": samples, "variant": variant},
        "seed": seed,
        "histogram": histogram,
        "min_fidelity": min_fidelity,
        "max_fidelity": fold(fidelities),
        "pass": bool(min_fidelity > 1 - 1e-10),
    }


def _run_circuit(*, n: int = 1, alpha: str = "0", beta: str = "0", twist: int | None = None, out: str) -> str:
    """Export a Bell-state preparation circuit, or with --twist the twist SWAPs, as OpenQASM 2.0."""
    if twist is not None:
        _unused(_run_circuit, f"--twist {twist}", n=n, alpha=alpha, beta=beta)
        circ = bell.twist_decomposition(twist)
    else:
        circ = bell.prep_circuit(n, alpha, beta)  # refuses a label that is not n bits
    with open(out, "w") as fh:
        fh.write(circ.to_qasm())
    return f"wrote {len(circ.gates)} gates to {out}"


COMMANDS = {"teleport": _run_teleport, "circuit": _run_circuit}


def _read(command: str, runner, args: list[str]) -> dict:
    """The value of each flag of ``bellkit <command>``, the last one ``args`` gives or its default; the flags
    are ``runner``'s keyword-only parameters, then the common ones it takes.  Bad usage raises ValueError."""
    signature = inspect.signature(runner)
    table = {}  # --flag: (name, type, choices, default (empty: a required flag), help)
    for param in signature.parameters.values():
        if param.kind is param.KEYWORD_ONLY:  # a Literal gives the choices; int | None is an int, None if left out
            hint, help_ = param.annotation, "required" if param.default is param.empty else f"default: {param.default}"
            kind, choices = (str, get_args(hint)) if get_origin(hint) is Literal else ((*get_args(hint), hint)[0], None)
            table["--" + param.name.replace("_", "-")] = (param.name, kind, choices, param.default, help_)
    if "tol" in signature.parameters:
        table["--tol"] = ("tol", float, None, DEFAULT_TOL, f"default: {DEFAULT_TOL}, in [{TOL_FLOOR}, {TOL_CEILING}]")
    if "seed" in signature.parameters:  # a text default is read as a value: a bad BELLKIT_SEED exits 2
        table["--seed"] = ("seed", int, None, os.environ.get("BELLKIT_SEED", "0"), "default: BELLKIT_SEED, else 0")
    if signature.return_annotation is not str:  # a report, not a message
        table["--json"] = ("json_path", str, None, None, "write the report here")

    def value(flag, text):
        _, kind, choices, _, _ = table[flag]
        with suppress(ValueError):
            if not choices or text in choices:
                return kind(text)
        raise ValueError(f"argument {flag}: " + (f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"
                                                  if choices else f"invalid {kind.__name__} value: {text!r}"))

    values, extra, words = {}, [], iter(args)
    for word in words:
        flag, eq, text = word.partition("=")
        if "--" in extra or flag not in table and word not in ("-h", "--help"):  # after "--" no word is a flag
            extra.append(word)
        elif flag not in table:
            print(f"usage: bellkit {command} [--FLAG VALUE ...]\n" + (f"\n{runner.__doc__}\n" if runner.__doc__ else ""), *(
                f"  {flag} {'{' + ','.join(choices) + '}' if choices else name.upper()}  {help_}"
                for flag, (name, _, choices, _, help_) in table.items()), "  -h, --help  show this help", sep="\n")
            raise SystemExit(0)
        # argparse's rule: the next word is a flag, not a value, if it starts with "-" and is not "-", and it
        # names a flag (before any "="), starts with "-h", or is neither a negative number nor holds a space
        elif not eq and (text := next(words, "--"))[:1] == "-" and text != "-" and (text[:2] == "-h" or text.partition(
                "=")[0] in (*table, "--help") or not (re.match(r"-\d+$|-\d*\.\d+$", text) or " " in text)):
            raise ValueError(f"argument {flag}: expected one argument")
        else:
            values[table[flag][0]] = value(flag, text)
    if missing := [flag for flag, entry in table.items() if entry[3] is signature.empty and entry[0] not in values]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    return {name: values[name] if name in values else value(flag, default) if isinstance(default, str)
            else default for flag, (name, _, _, default, _) in table.items()}


def _build_parser():
    """Command names only, for top-level help and bad usage; each command reads its own flags (``_read``)."""
    import argparse  # only top-level help and bad usage import it

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # main returns 2 instead of exiting
            raise ValueError(message)

    parser = Parser(prog="bellkit")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="Run a named verification suite.",
                        description="Each suite takes its own flags: bellkit verify SUITE --help")
    pv.add_argument("suite", metavar="SUITE", help=f"one of: {', '.join(sorted(SUITES))}")
    for name, runner in COMMANDS.items():
        sub.add_parser(name, help=runner.__doc__)
    return parser


def _in_range(command: str, values: dict) -> bool:
    """False, with a one-line message on stderr, if ``--tol`` or a size flag of ``command`` is out of range.

    A flag left out (``None``) is not checked.
    """
    if "tol" in values and not TOL_FLOOR <= values["tol"] <= TOL_CEILING:
        print(f"--tol {values['tol']} outside the documented floor {TOL_FLOOR} and ceiling {TOL_CEILING}",
              file=sys.stderr)
        return False
    bounds = [(name, "least", floor) for name, floor in SIZE_FLOORS.items()]
    bounds += [(name, "most", cap) for name, cap in SIZE_CAPS.get(command, {}).items()]
    for name, side, bound in bounds:
        value = values.get(name)
        if value is not None and (value < bound if side == "least" else value > bound):
            print(f"bad parameters: {command.split()[-1]} --{name} must be at {side} {bound}, got {value}",
                  file=sys.stderr)
            return False
    return True


def _emit(result: Report | dict | str, json_path: str | None) -> int:
    """Print what a runner returned, or write its report to ``json_path``; 1 if the report did not pass."""
    if isinstance(result, str):
        print(result)
        return 0
    report = result.to_dict() if isinstance(result, Report) else result
    text = json.dumps(report, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
        for case in report.get("cases", []):
            status = "PASS" if case["pass"] else "FAIL"
            print(f"[{status}] {case['id']}  residual={case['residual']:.3e}")
    else:
        print(text)
    return 0 if report["pass"] else 1


def _resolve(argv: list[str]):
    """The words of ``argv`` that name the command, and its runner (None if unknown)."""
    if argv[:1] == ["verify"]:
        return argv[:2], SUITES.get(argv[1]) if len(argv) > 1 else None
    return argv[:1], COMMANDS.get(argv[0]) if argv else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, runner = _resolve(argv)
        if runner is None:  # help or bad usage raise; what passes is `verify SUITE` with an unknown suite
            args = _build_parser().parse_args(command)
            print(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}", file=sys.stderr)
            return 2
        name = " ".join(command)
        flags = _read(name, runner, argv[len(command):])
        json_path = flags.pop("json_path", None)
        if not _in_range(name, flags):
            return 2
        # the common flags fill the runner's positional parameters by name
        return _emit(runner(**flags), json_path)
    except (ValueError, KeyError, OSError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
