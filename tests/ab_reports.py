"""Diff the reports of two bellkit trees, call by call.

    python tests/ab_reports.py A B [CALL ...]

A and B are each a git ref of this repository, whose ``src/bellkit`` is read
with ``git archive``, or a directory holding ``src/bellkit``.  Each tree is
imported under a package name of its own, which works because ``bellkit``
imports itself only relatively.  Each call (by default the golden
``make_golden_reports.CALLS`` and ``WALK_CALLS``) runs in process through
both trees' ``cli.main`` at seeds 0 and 7.  For each run, the script prints
``byte-identical`` when the exit code and the printed report are the same
bytes.  Otherwise it prints what changed: the exit code, case ids, pass
flags and other report keys, and the largest move of a residual or
fidelity.

Exit codes: 0 every run byte-identical, 1 some run differs, 2 bad usage:
a side that is neither a directory with ``src/bellkit`` nor a ref that
``git archive`` reads, or a call that both trees refuse as bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from make_golden_reports import CALLS

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("0", "7")

# One call per blocked walk (linalg.blocks and linalg.walk), each at a size
# where that walk takes more than one block, so that moved block edges show.
WALK_CALLS = [
    # basis-theorem trials (20 blocks) and the Gram residuals' group walks
    "verify basis-theorem --d 3 --trials 3000",
    # the reduced completeness, one p per block
    "verify basis-theorem --d 16 --trials 2",
    # the Haar stacks (4) and the conjugation rounds (3 blocks)
    "verify observables --family qudit --d 4 --conjugated 40",
    # the Born-rule sampler (123 blocks)
    "teleport --variant nqubit --n 4 --samples 1000000",
    # the form-11 labels, one per block (256 blocks)
    "verify teleport-eq --variant qudit11 --d 16",
    # the closure search: its product blocks and the nearest-match walks of pauli._nearest
    "verify basis-group --family qudit --d 6",
]


def load(side: str, name: str, scratch: Path):
    """The ``cli`` module of the tree ``side``, imported as package ``name``."""
    src = Path(side) / "src" / "bellkit"
    if not Path(side).is_dir():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", side, "src/bellkit"], capture_output=True)
        if archive.returncode:
            raise ValueError(f"{side}: no directory, and git archive says: {archive.stderr.decode().strip()}")
        (scratch / name).mkdir()
        subprocess.run(["tar", "-x", "-C", str(scratch / name)], input=archive.stdout, check=True)
        src = scratch / name / "src" / "bellkit"
    if not (src / "__init__.py").is_file():
        raise ValueError(f"{side}: no src/bellkit package")
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str]) -> tuple:
    """The exit code and printed report of one call; an exception escaping ``main`` stands for the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # one tree crashing is a difference to print, not the end of the diff
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _move(x: float, y: float) -> float:
    """``|x - y|``: 0 for equal values or two NaNs, inf for one NaN."""
    if x == y or (x != x and y != y):
        return 0.0
    return math.inf if x != x or y != y else abs(x - y)


def _report(printed: str) -> dict:
    """The report a run printed; a run that printed none, such as bad usage, reads as an empty one."""
    try:
        return json.loads(printed)
    except ValueError:
        return {}


def differences(a: tuple, b: tuple) -> list[str]:
    """What changed from run ``a`` to run ``b``: exit code, case ids, pass flags, report keys, largest move."""
    changes = [f"exit {a[0]} -> {b[0]}"] if a[0] != b[0] else []
    reports = [_report(a[1]), _report(b[1])]
    cases_a, cases_b = ({case["id"]: case for case in report.pop("cases", [])} for report in reports)
    gone, new = [i for i in cases_a if i not in cases_b], [i for i in cases_b if i not in cases_a]
    if gone or new:
        changes.append(f"case ids -{gone} +{new}")
    shared = [i for i in cases_a if i in cases_b]
    changes += [f"pass {i} {cases_a[i]['pass']} -> {cases_b[i]['pass']}" for i in shared
                if cases_a[i]["pass"] != cases_b[i]["pass"]]
    moves = [_move(cases_a[i]["residual"], cases_b[i]["residual"]) for i in shared]
    fidelities = ("min_fidelity", "max_fidelity")
    moves += [_move(reports[0][k], reports[1][k]) for k in fidelities if k in reports[0] and k in reports[1]]
    keys = sorted(set(reports[0]) | set(reports[1]))
    changes += [f"{k} differs" for k in keys if k not in fidelities and reports[0].get(k) != reports[1].get(k)]
    return changes + [f"largest residual move {max(moves, default=0.0):.3g}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff the reports of two bellkit trees, call by call.")
    parser.add_argument("a", help="a git ref, or a directory holding src/bellkit")
    parser.add_argument("b", help="a git ref, or a directory holding src/bellkit")
    parser.add_argument("calls", nargs="*", help="calls such as 'verify gram --d 3' (default: the golden and walk calls)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        try:
            clis = [load(side, f"bellkit_{tag}", Path(scratch)) for side, tag in ((args.a, "a"), (args.b, "b"))]
        except ValueError as exc:
            print(f"bad side: {exc}", file=sys.stderr)
            return 2
        runs = [[*line.split(), "--seed", seed] for line in args.calls or CALLS + WALK_CALLS for seed in SEEDS]
        differing = unusable = 0
        for call in runs:
            a, b = (run(cli, call) for cli in clis)
            if a == b == (2, ""):
                unusable += 1
                print(f"BAD USAGE on both sides: {' '.join(call)}", flush=True)
            elif a == b:
                print(f"byte-identical: {' '.join(call)}", flush=True)
            else:
                differing += 1
                print(f"DIFFERS: {' '.join(call)}: {'; '.join(differences(a, b))}", flush=True)
    print(f"{len(runs) - differing - unusable} of {len(runs)} runs byte-identical")
    return 2 if unusable else 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
