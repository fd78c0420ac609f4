"""Reports pinned in tests/data/golden_reports.json must not drift.

The table is written by tests/make_golden_reports.py and never here.  Exit
code, params, case ids, pass flags and the teleport histogram must match
exactly; residuals and fidelities to 1e-13 absolute, far below the 1e-12
default tolerance but loose enough for another BLAS build.
"""

import json
import os

import pytest

from bellkit.cli import main

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_reports.json")
with open(TABLE) as fh:
    GOLDEN = json.load(fh)
ATOL = 1e-13


def assert_matches(got: dict, want: dict) -> None:
    """Assert that entry ``got`` (argv, exit, report) matches the pinned ``want``.

    The generator keeps a stored entry exactly when this passes, so the
    table and the test share one notion of "unchanged".
    """
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    got, want = got["report"], want["report"]
    assert set(got) == set(want)
    exact = {key: value for key, value in want.items() if key not in ("cases", "max_residual",
                                                                       "min_fidelity", "max_fidelity")}
    assert {key: got[key] for key in exact} == exact
    for key in ("max_residual", "min_fidelity", "max_fidelity"):
        if key in want:
            assert got[key] == pytest.approx(want[key], rel=0, abs=ATOL), key
    if "cases" in want:
        assert [(c["id"], c["pass"]) for c in got["cases"]] == [(c["id"], c["pass"]) for c in want["cases"]]
        for g, w in zip(got["cases"], want["cases"]):
            assert set(g) == set(w)
            assert g["residual"] == pytest.approx(w["residual"], rel=0, abs=ATOL), g["id"]
            assert {k: v for k, v in g.items() if k != "residual"} == {
                k: v for k, v in w.items() if k != "residual"
            }


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_matches_golden(entry, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main([*entry["argv"], "--json", str(path)])
    capsys.readouterr()
    assert_matches({"argv": entry["argv"], "exit": code, "report": json.loads(path.read_text())}, entry)


def test_table_pins_every_generator_call():
    """A call added to the generator but never generated would go unpinned."""
    from make_golden_reports import CALLS, SEED

    assert [e["argv"] for e in GOLDEN] == [line.split() + ["--seed", SEED] for line in CALLS]
