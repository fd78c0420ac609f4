"""Generated argv for ``verify SUITE``, ``teleport`` and ``circuit``: whatever flags and sizes they
carry, ``main`` returns 0, 1 or 2 and no exception escapes it.

Each argv names a command and draws a subset of the flags its runner declares.
A size is drawn from a small range (every call runs in well under 0.1 s),
and a capped flag (``cli.SIZE_CAPS``) also from cap + 1 and above, which the
CLI must refuse before anything is built.
"""

import inspect
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from typing import Literal, get_args, get_origin

from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import cli

RUNNERS = {**{f"verify {suite}": runner for suite, runner in cli.SUITES.items()}, **cli.COMMANDS}
# The small range of each size flag; any other int flag draws from OTHER_INTS.
SMALL = {"n": (0, 2), "d": (1, 4), "trials": (0, 3), "samples": (0, 50), "strands": (1, 4), "twist": (0, 3)}
OTHER_INTS = (-1, 3)
TEXTS = ["1", "-1", "0", "01", "10", "1,-1", "-1,1,1", "x", ""]
TMP = "{tmp}"


def _int_values(command: str, name: str):
    values = st.integers(*SMALL.get(name, OTHER_INTS))
    cap = cli.SIZE_CAPS.get(command, {}).get(name)
    return values if cap is None else values | st.integers(cap + 1, 10**6)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(RUNNERS)))
    signature = inspect.signature(RUNNERS[command], eval_str=True)
    argv = command.split()
    for param in signature.parameters.values():
        if param.kind is not param.KEYWORD_ONLY:
            continue
        flag = "--" + param.name.replace("_", "-")
        if param.name == "out":
            argv.append(f"{flag}={TMP}/out.qasm")
        elif draw(st.booleans()):
            kind = param.annotation
            if get_origin(kind) is Literal:
                value = draw(st.sampled_from(get_args(kind)))
            elif kind is str:
                value = draw(st.sampled_from(TEXTS))
            else:
                value = draw(_int_values(command, param.name))
            argv.append(f"{flag}={value}")
    if "tol" in signature.parameters and draw(st.booleans()):
        argv.append("--tol=" + draw(st.sampled_from(["1e-12", "1e-15", "1e-6", "0", "1e-3", "nan"])))
    if "seed" in signature.parameters and draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(0, 9))}")
    if signature.return_annotation is not str and draw(st.booleans()):
        argv.append(f"--json={TMP}/report.json")
    return argv


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_generated_argv_exits_zero_one_or_two(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace(TMP, tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out.getvalue() == "", argv
            assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
        elif argv[0] == "circuit":
            assert out.getvalue().startswith("wrote "), argv
        else:
            json_path = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--json=")), None)
            if json_path is None:
                report = json.loads(out.getvalue())
            else:
                with open(json_path) as fh:
                    report = json.load(fh)
            assert report["schema"] == "bellkit-report/1", argv
