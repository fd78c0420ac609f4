import functools
import inspect
import json
import os
import re
import subprocess
import sys
from typing import get_args

import numpy as np
import pytest

from bellkit.bell import Circuit, multi_bell, product_ket, twist_decomposition
from bellkit import cli
from bellkit.cli import SUITES, TOL_CEILING, main
from bellkit.linalg import residual
from bellkit.teleport import linearity_reduction_check
from dense import dense_circuit_matrix, twist

# The flags each `verify` suite declares; --tol, --seed and --json are common to all.
SUITE_FLAGS = {
    "gram": {"--family", "--d", "--n"},
    "completeness": {"--family", "--d", "--n"},
    "basis-theorem": {"--family", "--d", "--n", "--trials"},
    "basis-group": {"--family", "--d", "--n"},
    "observables": {"--family", "--d", "--n", "--k", "--conjugated"},
    "twist": {"--n"},
    "concurrence": {"--n", "--trials"},
    "teleport-eq": {"--variant", "--d", "--n", "--m"},
    "projective-eq": {"--variant", "--d", "--n"},
    "ybe": {"--gate", "--n", "--eps", "--eta"},
    "braid": {"--gate", "--strands", "--eps-scalar", "--eta-scalar"},
    "tl": {"--m", "--strands", "--d", "--alpha", "--beta"},
    "braid-teleport": {"--n", "--eps-l", "--eta-l", "--eps-r", "--eta-r"},
    "trace-constraint": {"--n"},
    "linearity-reduction": {"--variant", "--d", "--n"},
    "transfer-identity": {"--d"},
    "bell-action": set(),
}
COMMON_FLAGS = {"--tol", "--seed", "--json"}
# Every command's flags, common ones included, keyed by the words after `bellkit`.
COMMAND_FLAGS = {
    **{f"verify {suite}": flags | COMMON_FLAGS for suite, flags in SUITE_FLAGS.items()},
    "teleport": {"--variant", "--d", "--n", "--samples", "--seed", "--json"},
    "circuit": {"--n", "--alpha", "--beta", "--twist", "--out"},
}


def run(argv):
    return main(argv)


def one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


def test_gram_suite_exit_zero(capsys):
    assert run(["verify", "gram", "--family", "qudit", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "bellkit-report/1"
    assert out["pass"] is True


def test_unknown_suite_exit_two(capsys):
    assert run(["verify", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_known_command_needs_no_top_level_parser(monkeypatch, tmp_path, capsys):
    def refuse():
        raise AssertionError("the top-level parser was built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run(["verify", "gram"]) == 0
    assert run(["teleport", "--samples", "10"]) == 0
    assert run(["circuit", "--out", str(tmp_path / "c.qasm")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["verify", "twist", "--help"])
    assert exc.value.code == 0


def test_happy_path_imports_no_argparse(tmp_path):
    # pytest imports argparse itself, so only a fresh interpreter can tell whether the CLI does
    code = ("import sys; import bellkit.cli as cli; "
            f"code = cli.main(['verify', 'gram', '--family', 'qudit', '--d', '3', '--json', {str(tmp_path / 'r.json')!r}]); "
            "print(code, 'argparse' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False", out


@pytest.mark.parametrize("argv", [["verify", "gram", "--n=--"], ["verify", "gram", "--tol=--"], ["teleport", "--samples=--"]],
                         ids=" ".join)
def test_double_dash_value_exit_two(argv, capsys):
    # argparse read "--flag=--" as an empty list, which then raised a TypeError in the range check
    assert run(argv) == 2
    assert one_line_error(capsys).startswith("bad parameters: argument --")


def test_top_level_help_and_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bellkit [-h] {verify,teleport,circuit}")
    assert "Run a named verification suite." in out
    assert run(["verify"]) == 2
    assert one_line_error(capsys) == "bad parameters: the following arguments are required: SUITE"
    assert run(["verify", "nosuch"]) == 2
    assert one_line_error(capsys).startswith("unknown suite 'nosuch'; choose from basis-group, basis-theorem")
    assert run(["nosuch"]) == 2
    assert one_line_error(capsys).startswith("bad parameters: argument command: invalid choice: 'nosuch'")
    assert run([]) == 2
    assert "required: command" in one_line_error(capsys)


def test_bad_params_exit_two(capsys):
    assert run(["verify", "twist", "--n", "9"]) == 2
    assert "bad parameters" in capsys.readouterr().err


def test_tolerance_floor(capsys):
    assert run(["verify", "gram", "--tol", "1e-16"]) == 2
    assert "floor" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "1.1e-6", "0.5"])
def test_tolerance_ceiling_and_non_finite(tol, capsys):
    assert TOL_CEILING == 1e-6
    assert run(["verify", "gram", f"--tol={tol}"]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_tolerance_at_ceiling_accepted(capsys):
    assert run(["verify", "gram", "--tol", str(TOL_CEILING)]) == 0


@pytest.mark.parametrize("suite", ["concurrence", "basis-theorem", "gram"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_exit_two(suite, trials, capsys):
    assert run(["verify", suite, "--n", "1", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


def test_nan_concurrence_deviation_fails_suite(monkeypatch, capsys):
    from bellkit import bell

    real = bell.concurrence_oracle
    calls = []

    def oracle(state, n):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(state, n)

    monkeypatch.setattr(bell, "concurrence_oracle", oracle)
    assert run(["verify", "concurrence", "--n", "1", "--trials", "3"]) == 1
    case = json.loads(capsys.readouterr().out)["cases"][0]
    assert case["id"].startswith("formula-vs-oracle") and case["pass"] is False


def test_cnot_ybe_fails_exit_one(capsys):
    assert run(["verify", "ybe", "--gate", "cnot"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["cases"][0]["residual"] >= 0.5


@pytest.mark.parametrize("gate", ["bell", "cnot"])
def test_braid_on_two_strands_checks_nothing_and_fails(gate, capsys):
    # two strands have one generator and no relation: a report with no cases fails
    assert run(["verify", "braid", "--strands", "2", "--gate", gate]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["cases"] == [] and out["pass"] is False


def test_bell_action_suite(capsys):
    assert run(["verify", "bell-action"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["params"] == {} and "seed" not in out
    checks = ["unified-action (4 inputs)", "input-output-bijection", "dagger-is-negated-params", "unitarity"]
    signs = ["B(1,1)", "B(1,-1)", "B(-1,1)", "B(-1,-1)"]
    assert [c["id"] for c in out["cases"]] == [f"{b} {c}" for b in signs for c in checks]


def test_bell_action_suite_fails_on_a_flipped_eta(monkeypatch, capsys):
    from bellkit import braid

    real = braid.bell_transform
    monkeypatch.setattr(braid, "bell_transform", lambda eps, eta: real(eps, -eta))
    assert run(["verify", "bell-action"]) == 1
    failed = {c["id"] for c in json.loads(capsys.readouterr().out)["cases"] if not c["pass"]}
    assert failed == {f"B({e},{t}) unified-action (4 inputs)" for e in (1, -1) for t in (1, -1)}


def test_observables_tell_right_conjugation_from_left(monkeypatch, capsys):
    from bellkit import verify
    from bellkit.linalg import apply_local

    real = verify.conjugated_observables

    def first_qudit_transpose(matrix, m, side):
        """The right conjugation of a stack of M, with M^T on the first qudit instead of the second."""
        if side == "left":
            return real(matrix, m, side)
        op = np.swapaxes(m, -1, -2)
        return np.swapaxes(apply_local(op.conj(), np.swapaxes(apply_local(op, matrix), -1, -2)), -1, -2)

    argv = ["verify", "observables", "--family", "qudit", "--d", "3", "--conjugated", "1"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, "conjugated_observables", first_qudit_transpose)
    assert run(argv) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert len(cases) == 24
    assert all(c["pass"] != c["id"].endswith("|right-conjugated") for c in cases)


def test_trace_constraint_suite(capsys):
    assert run(["verify", "trace-constraint", "--n", "2"]) == 0


def test_all_registered_suites_run(capsys):
    shared = {"--d": "2", "--n": "2", "--trials": "3", "--variant": "basic2"}
    for suite in [
        "gram", "completeness", "basis-theorem", "basis-group", "observables",
        "twist", "concurrence", "teleport-eq", "projective-eq", "ybe", "braid",
        "tl", "braid-teleport", "trace-constraint", "linearity-reduction",
        "transfer-identity", "bell-action",
    ]:
        argv = ["verify", suite, "--seed", "1"]
        for flag, value in shared.items():
            if flag in SUITE_FLAGS[suite]:
                argv += [flag, value]
        code = run(argv)
        capsys.readouterr()
        assert code == 0, suite


def test_json_deterministic_rerun(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run([
            "verify", "basis-theorem", "--d", "2", "--trials", "5",
            "--seed", "9", "--json", str(path),
        ]) == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_path_prints_summary(tmp_path, capsys):
    path = tmp_path / "r.json"
    run(["verify", "gram", "--family", "qubit", "--json", str(path)])
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert json.loads(path.read_text())["pass"] is True


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("BELLKIT_SEED", "77")
    run(["verify", "concurrence", "--n", "1", "--trials", "2", "--json", str(a)])
    capsys.readouterr()
    monkeypatch.delenv("BELLKIT_SEED")
    run(["verify", "concurrence", "--n", "1", "--trials", "2", "--seed", "77", "--json", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_teleport_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run([
            "teleport", "--variant", "basic2", "--samples", "1000",
            "--seed", "5", "--json", str(path),
        ]) == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["min_fidelity"] > 1 - 1e-10
    assert sum(data["histogram"].values()) == 1000


def test_teleport_nqubit_command(capsys):
    assert run(["teleport", "--variant", "nqubit", "--n", "2", "--samples", "64", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True


def _parse_qasm(text):
    wires = None
    circ = None
    names = {"h": "H", "x": "X", "z": "Z", "cx": "CNOT", "swap": "SWAP"}
    for line in text.strip().split("\n"):
        line = line.strip().rstrip(";")
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            wires = int(line.split("[")[1].split("]")[0])
            circ = Circuit(wires)
            continue
        op, args = line.split(" ", 1)
        qs = [int(q.split("[")[1].split("]")[0]) for q in args.split(",")]
        circ.append(names[op], *qs)
    return circ


def test_circuit_export_n1(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    assert run(["circuit", "--n", "1", "--alpha", "0", "--beta", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[:2] == ["OPENQASM 2.0;", 'include "qelib1.inc";']
    assert [l for l in text.splitlines() if l and not l.startswith(("OPENQASM", "include", "qreg"))] == [
        "h q[0];", "cx q[0],q[1];",
    ]


def test_circuit_roundtrip_n2(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    assert run(["circuit", "--n", "2", "--alpha", "10", "--beta", "01", "--out", str(out)]) == 0
    capsys.readouterr()
    circ = _parse_qasm(out.read_text())
    state = dense_circuit_matrix(circ) @ product_ket((0,) * 4)
    assert residual(state, multi_bell(2, (1, 0), (0, 1))) < 1e-12


def test_circuit_twist_export(tmp_path, capsys):
    out = tmp_path / "t.qasm"
    assert run(["circuit", "--twist", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    circ = _parse_qasm(out.read_text())
    assert len(circ.gates) == 3
    assert all(name == "SWAP" for name, _ in circ.gates)
    assert residual(dense_circuit_matrix(circ), twist(3)) == 0


@pytest.mark.parametrize(
    "twist,message",
    [
        pytest.param("0", "bad parameters: circuit --twist must be at least 1, got 0", id="0"),
        pytest.param("7", "bad parameters: circuit --twist must be at most 6, got 7", id="7"),
    ],
)
def test_circuit_twist_out_of_range_exit_two(twist, message, tmp_path, capsys):
    out = tmp_path / "t.qasm"
    assert run(["circuit", "--twist", twist, "--out", str(out)]) == 2
    assert one_line_error(capsys) == message
    assert not out.exists()


def test_circuit_bad_label_exit_two(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    assert run(["circuit", "--n", "2", "--alpha", "1", "--beta", "01", "--out", str(out)]) == 2
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite,flag,value",
    [
        ("ybe", "--gate", "bogus"),
        ("ybe", "--gate", "twisted-conj"),
        ("braid", "--gate", "cnott"),
        ("braid", "--gate", "swap"),
        ("tl", "--m", "nonunitry"),
        ("tl", "--m", "general"),
        ("teleport-eq", "--m", "haar"),
        ("teleport-eq", "--m", "nonunitary"),
    ],
)
def test_unknown_control_flag_exit_two(suite, flag, value, capsys):
    assert run(["verify", suite, flag, value]) == 2
    err = capsys.readouterr().err
    assert "bad parameters" in err and value in err


@pytest.mark.parametrize(
    "suite,flag,values",
    [
        ("ybe", "--gate", ["bell", "swap", "twisted", "twisted-plain", "cnot"]),
        ("braid", "--gate", ["bell", "cnot"]),
        ("tl", "--m", ["identity", "unitary", "nonunitary"]),
        ("teleport-eq --variant qudit11 --d 3", "--m", ["identity", "unitary", "general"]),
        ("teleport-eq --variant basic2", "--m", ["identity", "unitary"]),
    ],
)
def test_known_control_flags_accepted(suite, flag, values, capsys):
    for value in values:
        assert run(["verify", *suite.split(), flag, value]) in (0, 1), (suite, value)
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "concurrence", "--n", "0"], "--n"),
        (["verify", "concurrence", "--n", "-1"], "--n"),
        (["verify", "projective-eq", "--variant", "nqubit", "--n", "-2"], "--n"),
        (["verify", "basis-group", "--family", "multi", "--n", "0"], "--n"),
        (["verify", "gram", "--family", "qudit", "--d", "1"], "--d"),
        (["teleport", "--variant", "nqubit", "--n", "-1"], "--n"),
        (["teleport", "--variant", "qudit", "--d", "0"], "--d"),
        (["teleport", "--samples", "-1"], "--samples"),
        (["teleport", "--samples", "0"], "--samples"),
        (["verify", "observables", "--family", "qudit", "--d", "3", "--conjugated", "-1"], "--conjugated"),
        (["circuit", "--n", "0", "--alpha=", "--beta=", "--out", "{tmp}/c.qasm"], "--n"),
    ],
)
def test_out_of_range_size_exit_two(argv, flag, tmp_path, capsys):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    command = argv[1] if argv[0] == "verify" else argv[0]
    assert len(lines) == 1 and lines[0].startswith(f"bad parameters: {command} {flag} must be at least"), lines


# The inputs past a cap that only these two tests had are BEYOND_CAP rows below; these keep the real runner and
# stub the work inside it instead.
@pytest.mark.parametrize(
    "argv,flag,cap",
    [(["--family", "qudit", "--d", "8"], "--d", 7), (["--family", "multi", "--n", "4"], "--n", 3)],
    ids=["argv0---d-7", "argv3---n-3"],
)
def test_basis_group_size_cap_exit_two(argv, flag, cap, monkeypatch, capsys):
    from bellkit import cli

    def never(*args, **kwargs):
        raise AssertionError("the closure check ran above its size cap")

    # a check that reached the closure would fail here instead of running for hours
    monkeypatch.setattr(cli, "basis_group_check", never)
    assert run(["verify", "basis-group", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and f"basis-group {flag} must be at most {cap}" in lines[0], lines


def test_concurrence_size_cap_exit_two_before_any_draw(monkeypatch, capsys):
    from bellkit import bell

    def never(*args, **kwargs):
        raise AssertionError("a trial state was drawn above the dense cap")

    # a 4^13-entry trial state is 1 GiB; the cap must refuse before the first one
    monkeypatch.setattr(bell, "random_state", never)
    assert run(["verify", "concurrence", "--n", "13", "--trials", "2"]) == 2
    assert one_line_error(capsys) == "bad parameters: concurrence --n must be at most 12, got 13"


# Each size cap of cli.SIZE_CAPS: the argv that reaches the capped flag, the flag and its cap.
CAP_ROWS = [
    ("verify basis-group", "d", 7),
    ("verify basis-group --family multi", "n", 3),
    ("verify concurrence", "n", 12),
    ("verify twist", "n", 6),
    ("verify linearity-reduction --variant nqubit11", "n", 6),
    ("circuit", "twist", 6),
    ("verify observables --family multi", "n", 5),
    ("verify trace-constraint", "n", 3),
    ("verify transfer-identity", "d", 16),
    ("verify tl", "strands", 5),
    ("verify tl", "d", 4),
    ("verify braid", "strands", 6),
    ("verify ybe --gate twisted", "n", 3),
    ("verify braid-teleport", "n", 2),
]


def _stub_runner(monkeypatch, argv: str, stub):
    """Put ``stub``, under the runner's signature, in place of the runner of ``argv``; return the command words."""
    command, runner = cli._resolve(argv.split())
    table = cli.SUITES if command[0] == "verify" else cli.COMMANDS
    monkeypatch.setitem(table, command[-1], functools.wraps(runner)(stub))
    return command


def _output_flag(command, tmp_path):
    return ["--out", str(tmp_path / "c.qasm")] if command == ["circuit"] else ["--json", str(tmp_path / "r.json")]


# Each row of CAP_ROWS at cap + 1 (ids as in CAP_ROWS), then values further past a cap, each with its row's
# cap: --family qubit runs at d = 2 yet its --d is still capped.
BEYOND_CAP = [("verify basis-group --family qubit", "d", 8), ("verify basis-group", "d", 20),
              ("verify basis-group --family multi", "n", 5)]
CAP_OF = {(" ".join(cli._resolve(argv.split())[0]), flag): cap for argv, flag, cap in CAP_ROWS}
REFUSED_ROWS = [(argv, flag, cap, cap + 1) for argv, flag, cap in CAP_ROWS] + [
    (argv, flag, CAP_OF[" ".join(cli._resolve(argv.split())[0]), flag], value) for argv, flag, value in BEYOND_CAP]


@pytest.mark.parametrize(
    "argv,flag,cap,value", REFUSED_ROWS,
    ids=[f"{argv} --{flag}" for argv, flag, _ in CAP_ROWS] + [f"{argv} --{flag} {value}" for argv, flag, value in BEYOND_CAP],
)
def test_size_cap_exit_two_before_runner(argv, flag, cap, value, monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError(f"{argv} ran above its --{flag} cap")

    command = _stub_runner(monkeypatch, argv, never)
    assert run([*argv.split(), f"--{flag}", str(value), *_output_flag(command, tmp_path)]) == 2
    assert one_line_error(capsys) == f"bad parameters: {command[-1]} --{flag} must be at most {cap}, got {value}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag,cap", CAP_ROWS, ids=[f"{argv} --{flag}" for argv, flag, _ in CAP_ROWS])
def test_size_cap_is_inclusive(argv, flag, cap, monkeypatch, tmp_path, capsys):
    calls = []
    command = _stub_runner(monkeypatch, argv, lambda *args, **kwargs: calls.append(kwargs[flag]) or "ran")
    assert run([*argv.split(), f"--{flag}", str(cap), *_output_flag(command, tmp_path)]) == 0
    assert calls == [cap]


def test_size_caps_name_int_flags_of_their_runners():
    # a misspelt command or flag would drop its cap unseen
    rows = {}
    for argv, flag, cap in CAP_ROWS:
        rows.setdefault(" ".join(cli._resolve(argv.split())[0]), {})[flag] = cap
    assert rows == cli.SIZE_CAPS
    for command, caps in cli.SIZE_CAPS.items():
        words, runner = cli._resolve(command.split())
        assert runner is not None and words == command.split(), command
        params = inspect.signature(runner).parameters
        for flag in caps:
            assert params[flag].kind is inspect.Parameter.KEYWORD_ONLY, (command, flag)
            assert int in (params[flag].annotation, *get_args(params[flag].annotation)), (command, flag)


def test_basis_group_at_size_cap_runs(capsys):
    assert run(["verify", "basis-group", "--family", "multi", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_suite_flag_table_covers_registry():
    assert set(SUITES) == set(SUITE_FLAGS)


@pytest.mark.parametrize("suite", sorted(SUITE_FLAGS))
def test_foreign_flag_exit_two(suite, capsys):
    flag = "--family" if "--strands" in SUITE_FLAGS[suite] else "--strands"
    value = "qudit" if flag == "--family" else "3"
    assert run(["verify", suite, flag, value]) == 2
    assert flag in one_line_error(capsys)


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_suite_help_lists_declared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*command.split(), "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"--help"}


def _params(capsys, *argv):
    assert run(["verify", *argv]) in (0, 1), argv
    return json.loads(capsys.readouterr().out)["params"]


def test_params_record_what_ran(capsys):
    basic2 = _params(capsys, "teleport-eq", "--variant", "basic2")
    assert basic2["d"] == 2 and "n" not in basic2
    assert "d" not in _params(capsys, "teleport-eq", "--variant", "nqubit22", "--n", "2")
    assert "n" not in _params(capsys, "projective-eq", "--variant", "qudit", "--d", "3")
    swap = _params(capsys, "ybe", "--gate", "swap")
    cnot = _params(capsys, "ybe", "--gate", "cnot")
    assert swap["gate"] != cnot["gate"]
    twisted = _params(capsys, "ybe", "--gate", "twisted", "--n", "2", "--eps=-1,1")
    assert twisted["gate"] == "twisted" and twisted["eps"] == [-1, 1] and twisted["eta"] == [1, 1]
    assert "eps" not in swap and "eta" not in swap
    braid_cnot = _params(capsys, "braid", "--gate", "cnot")
    assert braid_cnot["gate"] == "cnot" and "eps" not in braid_cnot and "eta" not in braid_cnot
    braid_bell = _params(capsys, "braid", "--eps-scalar", "-1")
    assert braid_bell["gate"] == "bell" and braid_bell["eps"] == -1 and braid_bell["eta"] == 1
    theorem = _params(capsys, "basis-theorem", "--d", "3", "--trials", "2")
    assert theorem == {"d": 3, "trials": 2}
    multi = _params(capsys, "observables", "--family", "multi", "--n", "1")
    assert multi == {"family": "multi", "n": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--family", "qubit", "--d", "3"],
        ["completeness", "--family", "qubit", "--d", "3"],
        ["basis-theorem", "--family", "qubit", "--d", "3"],
        ["basis-group", "--family", "qubit", "--d", "3"],
        ["observables", "--family", "qubit", "--d", "3"],
        ["teleport-eq", "--variant", "basic2", "--d", "3"],
        ["projective-eq", "--variant", "basic2", "--d", "3"],
        ["linearity-reduction", "--variant", "basic2", "--d", "3"],
    ],
)
def test_qubit_and_basic2_refuse_other_d(argv, capsys):
    assert run(["verify", *argv]) == 2
    line = one_line_error(capsys)
    assert "d=2" in line and "--d 3" in line, line


@pytest.mark.parametrize("suite", ["basis-group", "basis-theorem", "observables"])
def test_family_qubit_is_the_d2_family(suite, capsys):
    extra = ["--trials", "2"] if suite == "basis-theorem" else []
    assert run(["verify", suite, "--family", "qubit", *extra]) == 0
    qubit = json.loads(capsys.readouterr().out)
    assert run(["verify", suite, "--family", "qudit", "--d", "2", *extra]) == 0
    qudit = json.loads(capsys.readouterr().out)
    assert qubit["params"]["d"] == 2
    assert qubit["cases"] == qudit["cases"]


@pytest.mark.parametrize(
    "variant,size",
    [("basic2", {}), ("qudit22", {"d": 3}), ("nqubit11", {"n": 2}), ("nqubit22", {"n": 1})],
)
def test_linearity_reduction_suite(variant, size, capsys):
    flags = [f for key, value in size.items() for f in (f"--{key}", str(value))]
    assert run(["verify", "linearity-reduction", "--variant", variant, *flags, "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    lib = linearity_reduction_check(variant, seed=4, **size).to_dict()
    assert out["cases"] == lib["cases"]
    control = [c for c in out["cases"] if c["id"] == "corrupted-correction-fails"]
    assert control and control[0]["pass"] and control[0]["residual"] >= 1e-6
    assert out["params"] == {"variant": variant, **(size or {"d": 2})}


def test_transfer_identity_suite(capsys):
    assert run(["verify", "transfer-identity", "--d", "3", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["params"] == {"d": 3} and out["seed"] == 2 and len(out["cases"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "gram", "--json", "{missing}/r.json"],
        ["teleport", "--json", "{missing}/r.json"],
        ["circuit", "--out", "{missing}/x.qasm"],
    ],
)
def test_unwritable_output_exit_two(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run([a.format(missing=missing) for a in argv]) == 2
    assert one_line_error(capsys).startswith("bad parameters:")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "observables", "--family", "multi", "--k", "2"], "--k"),
        (["verify", "observables", "--family", "multi", "--conjugated", "3"], "--conjugated"),
        (["verify", "observables", "--family", "multi", "--d", "3"], "--d"),
        (["verify", "observables", "--family", "qudit", "--d", "3", "--n", "3"], "--n"),
        (["verify", "gram", "--family", "multi", "--d", "7"], "--d"),
        (["verify", "gram", "--family", "qubit", "--n", "3"], "--n"),
        (["verify", "completeness", "--family", "qudit", "--n", "3"], "--n"),
        (["verify", "basis-theorem", "--family", "multi", "--d", "3"], "--d"),
        (["verify", "basis-group", "--family", "multi", "--d", "3"], "--d"),
        (["verify", "basis-group", "--family", "qudit", "--n", "3"], "--n"),
        (["verify", "teleport-eq", "--variant", "qudit11", "--d", "3", "--n", "3"], "--n"),
        (["verify", "teleport-eq", "--variant", "nqubit22", "--d", "3"], "--d"),
        (["verify", "projective-eq", "--variant", "qudit", "--n", "3"], "--n"),
        (["verify", "projective-eq", "--variant", "nqubit", "--d", "3"], "--d"),
        (["verify", "linearity-reduction", "--variant", "basic2", "--n", "3"], "--n"),
        (["verify", "linearity-reduction", "--variant", "nqubit11", "--d", "3"], "--d"),
        (["verify", "ybe", "--gate", "bell", "--n", "3"], "--n"),
        (["verify", "ybe", "--gate", "bell", "--eps=-1"], "--eps"),
        (["verify", "ybe", "--gate", "swap", "--eta=-1"], "--eta"),
        (["verify", "ybe", "--gate", "cnot", "--n", "3"], "--n"),
        (["verify", "braid", "--gate", "cnot", "--eps-scalar", "-1"], "--eps-scalar"),
        (["verify", "braid", "--gate", "cnot", "--eta-scalar", "-1"], "--eta-scalar"),
        (["verify", "braid-teleport", "--n", "1", "--eps-l=1"], "--eps-l"),
        (["verify", "braid-teleport", "--n", "1", "--eta-r=1"], "--eta-r"),
        (["verify", "teleport-eq", "--variant", "basic2", "--m", "general"], "--m"),
        (["teleport", "--variant", "qudit", "--d", "3", "--n", "5"], "--n"),
        (["teleport", "--variant", "nqubit", "--n", "2", "--d", "7"], "--d"),
        (["circuit", "--twist", "3", "--n", "2", "--alpha", "01", "--beta", "10", "--out", "{tmp}/t.qasm"],
         "--n"),
        (["circuit", "--twist", "3", "--alpha", "01", "--out", "{tmp}/t.qasm"], "--alpha"),
        (["circuit", "--twist", "3", "--beta", "10", "--out", "{tmp}/t.qasm"], "--beta"),
    ],
)
def test_ignored_flag_exit_two(argv, flag, tmp_path, capsys):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert list(tmp_path.iterdir()) == []
    line = one_line_error(capsys)
    assert line.startswith("bad parameters:") and f"ignores {flag}" in line, line
