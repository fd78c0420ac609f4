"""Generated argv for ``verify SUITE``, ``teleport`` and ``circuit``: whatever flags and sizes they
carry, ``main`` returns 0, 1 or 2 and no exception escapes it; and the CLI's flag reader
(``cli._read``) reads every generated argv as an argparse parser built from the same runner does.

Each argv names a command and draws a subset of the flags its runner declares.
A size is drawn from a small range (every call runs in well under 0.1 s),
and a capped flag (``cli.SIZE_CAPS``) also from cap + 1 and above, which the
CLI must refuse before anything is built.  The reader's argv also split values
from their flags, repeat flags, leave a value out, start values with "-", and
carry unknown flags, stray words and malformed numbers; ``--help`` is not drawn.
"""

import argparse
import inspect
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from typing import Literal, get_args, get_origin

import pytest
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
    signature = inspect.signature(RUNNERS[command])
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


class _Parser(argparse.ArgumentParser):
    """Raise bad usage as ValueError instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def argparse_flags(command: str, runner, args: list[str]) -> dict:
    """The flags of ``bellkit <command>`` in ``args``, read by argparse: the reader the CLI had before."""
    parser = _Parser(prog=f"bellkit {command}", description=runner.__doc__, allow_abbrev=False)
    signature = inspect.signature(runner)
    for param in signature.parameters.values():
        if param.kind is not param.KEYWORD_ONLY:
            continue
        kind, choices = param.annotation, None
        if get_origin(kind) is Literal:
            kind, choices = str, get_args(kind)
        elif get_args(kind):  # int | None: an int, or None when the flag is left out
            kind = get_args(kind)[0]
        required = param.default is param.empty
        parser.add_argument(
            "--" + param.name.replace("_", "-"),
            type=kind,
            choices=choices,
            required=required,
            default=None if required else param.default,
        )
    if "tol" in signature.parameters:
        parser.add_argument("--tol", type=float, default=cli.DEFAULT_TOL)
    if "seed" in signature.parameters:
        # argparse applies type=int to a string default only when the flag is absent
        parser.add_argument("--seed", type=int, default=os.environ.get("BELLKIT_SEED", "0"))
    if signature.return_annotation is not str:
        parser.add_argument("--json", dest="json_path")
    return vars(parser.parse_args(args))


# Words that are no declared flag, values for int flags that int() refuses or reads oddly, and values
# that start with "-" or hold a space, which argparse takes or refuses as a flag's value by its own rule.
STRAYS = ["--foo", "--family", "--strands", "--n-x", "--Tol", "-x", "-hx", "--help=1", "--", "-", "x", "3", "-1"]
ODD_VALUES = ["x", "1.5", "", " 3 ", "3_0", "+2", "0x10", "1e3", "-0", "bogus", "-1", "-1,1", "-.5", "-1e-3", "-x",
              "-h", "-h 1", "-hx", "--n", "--n=2 x", "--foo=1 2", "--help=a b", "- 1", "-1 2", "-", "--"]
ENV_SEEDS = [None, "5", "x", " 7", ""]


def _good_values(signature) -> dict:
    """A strategy per flag of values that argparse reads as they are: choices, small ints, texts."""
    good = {}
    for param in signature.parameters.values():
        if param.kind is param.KEYWORD_ONLY:
            kind = param.annotation
            good[param.name.replace("_", "-")] = (
                st.sampled_from(get_args(kind)) if get_origin(kind) is Literal
                else st.sampled_from(TEXTS) if kind is str else st.integers(-3, 12).map(str))
    if "tol" in signature.parameters:
        good["tol"] = st.sampled_from(["1e-12", "1e-6", "0", "nan", "1e-3"])
    if "seed" in signature.parameters:
        good["seed"] = st.integers(0, 9).map(str)
    if signature.return_annotation is not str:
        good["json"] = st.sampled_from(["r.json", "a b"])
    return good


@st.composite
def reader_argvs(draw):
    """A command, up to four flags with good values (a flag may repeat, each value after "=" or as the next
    word), and at most one odd piece: a flag with an odd value, a flag with no value, or a stray word."""
    command = draw(st.sampled_from(sorted(RUNNERS)))
    good = _good_values(inspect.signature(RUNNERS[command]))
    flag = st.sampled_from(sorted(good))

    def piece(name, value):
        # argparse reads "--flag=--" as an empty list, not as a value or an error, so "--" is always split off
        return [f"--{name}", value] if value == "--" or draw(st.booleans()) else [f"--{name}={value}"]

    pieces = [piece(name, draw(good[name])) for name in draw(st.lists(flag, max_size=4))]
    odd = draw(st.sampled_from(["none", "value", "bare", "stray"]))
    if odd != "none":
        words = (piece(draw(flag), draw(st.sampled_from(ODD_VALUES))) if odd == "value"
                 else [f"--{draw(flag)}"] if odd == "bare" else [draw(st.sampled_from(STRAYS))])
        pieces.insert(draw(st.integers(0, len(pieces))), words)
    return command.split() + [word for words in pieces for word in words]


def _assert_reads_as_argparse(argv, env_seed=None):
    """``cli._read`` gives the values argparse gives; where argparse refuses, so does the reader, and ``main``
    exits 2 with one line on stderr."""
    command, runner = cli._resolve(argv)
    name, args = " ".join(command), argv[len(command):]
    saved = os.environ.pop("BELLKIT_SEED", None)
    try:
        if env_seed is not None:
            os.environ["BELLKIT_SEED"] = env_seed
        try:
            want = argparse_flags(name, runner, args)
        except ValueError:
            with pytest.raises(ValueError):
                cli._read(name, runner, args)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert cli.main(argv) == 2, argv
            assert out.getvalue() == "", argv
            assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
        else:
            got = cli._read(name, runner, args)
            assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}, argv
    finally:
        os.environ.pop("BELLKIT_SEED", None)
        if saved is not None:
            os.environ["BELLKIT_SEED"] = saved


@settings(max_examples=300, deadline=None)
@given(reader_argvs(), st.sampled_from(ENV_SEEDS))
def test_flag_reader_reads_as_argparse(argv, env_seed):
    _assert_reads_as_argparse(argv, env_seed)


@pytest.mark.parametrize("word", ODD_VALUES + STRAYS)
@pytest.mark.parametrize("flag", ["circuit --out=c.qasm --alpha", "verify tl --m", "verify tl --strands", "teleport --seed"])
def test_flag_reader_reads_each_odd_word_as_argparse(flag, word):
    # the word as the value of a str, a Literal and two int flags, and after them as a word of its own
    _assert_reads_as_argparse([*flag.split(), word])
    if word != "-h":  # on its own it asks for help
        _assert_reads_as_argparse([*flag.split(), "1", word])


def test_flag_reader_takes_no_flag_after_double_dash():
    # argparse reads every word after "--" as a stray word, a help flag too
    _assert_reads_as_argparse(["verify", "tl", "--", "--help"])
    _assert_reads_as_argparse(["verify", "tl", "--strands", "3", "--", "--strands", "4"])


def test_runner_annotations_are_objects_not_text():
    # the reader takes each annotation as it is, with no eval_str; a string would also put off, past
    # import, the def-time evaluation that fails on a Python that cannot read ``int | None``
    for command, runner in RUNNERS.items():
        signature = inspect.signature(runner)
        hints = [param.annotation for param in signature.parameters.values()] + [signature.return_annotation]
        assert not any(isinstance(hint, str) for hint in hints), command
