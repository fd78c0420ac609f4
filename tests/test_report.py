"""The one fold-and-witness rule of ``Report.add`` and ``Report.add_expect_fail``."""

import numpy as np
import pytest

from bellkit.linalg import fold
from bellkit.report import Report


def _case(add="add", *args, **kwargs):
    rep = Report("rule", {}, tolerance=1e-12)
    getattr(rep, add)(*args, **kwargs)
    (case,) = rep.cases
    return case


def test_nan_wins_over_a_larger_finite_value():
    case = _case("add", "c", np.array([1.0, np.nan, 5.0, np.nan]), index="trial")
    assert case.case_id == "c witness=trial 1"
    assert np.isnan(case.residual) and not case.passed


def test_first_of_tied_worst_entries_wins():
    case = _case("add", "c", np.array([0.0, 2.0, 1.0, 2.0]), index="input")
    assert (case.case_id, case.residual, case.passed) == ("c witness=input 1", 2.0, False)


def test_index_tuples_and_labels():
    run = np.zeros((3, 4))
    run[2, 1] = run[2, 3] = 1.0
    assert _case("add", "mul", run).case_id == "mul witness=(2,1)"
    assert _case("add", "dagger", np.array([0.0, 0.0, 1.0])).case_id == "dagger witness=(2)"
    qudit = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert _case("add", "o", np.array([0, 0, 1.0, 0]), index=qudit).case_id == "o witness=(1,0)"
    qubits = [((0, 0), (0, 0)), ((0, 1), (1, 0))]
    assert _case("add", "o", np.array([0, 1.0]), index=qubits).case_id == "o witness=(01,10)"


def test_expect_fail_names_the_first_best_entry_nan_first():
    case = _case("add_expect_fail", "ctl", np.array([5.0, 0.1, 3.0, 0.1]), 1.0, "trial")
    assert (case.case_id, case.residual, case.passed) == ("ctl witness=trial 1", 0.1, False)
    case = _case("add_expect_fail", "ctl", np.array([5.0, 0.1, np.nan]), 1.0, "trial")
    assert case.case_id == "ctl witness=trial 2"
    assert np.isnan(case.residual) and not case.passed
    case = _case("add_expect_fail", "ctl", np.array([5.0, 2.0]), 1.0, "trial")
    assert (case.case_id, case.residual, case.passed) == ("ctl", 2.0, True)


def test_empty_run_gets_no_suffix():
    case = _case("add", "c", np.array([]), tol=0.0, index="trial")
    assert (case.case_id, case.residual, case.passed) == ("c", 0.0, False)
    case = _case("add_expect_fail", "ctl", np.array([]), 1.0, "trial")
    assert (case.case_id, case.residual, case.passed) == ("ctl", np.inf, True)


def test_passing_case_gets_no_suffix():
    case = _case("add", "c", np.array([[0.0, 1e-13], [1e-14, 0.0]]), index=None)
    assert (case.case_id, case.residual, case.passed) == ("c", 1e-13, True)


def test_failing_also_residual_alone_gets_no_suffix():
    case = _case("add", "o", np.array([0.0, 1e-14]), index=[(0, 0), (0, 1)], also=(1.0, 0.0))
    assert (case.case_id, case.residual, case.passed) == ("o", 1.0, False)
    # a failing run still names its witness, and the case keeps the worst of all
    case = _case("add", "o", np.array([0.0, 0.5]), index=[(0, 0), (0, 1)], also=(1.0,))
    assert (case.case_id, case.residual, case.passed) == ("o witness=(0,1)", 1.0, False)
    case = _case("add", "o", np.array([0.0, 0.5]), index=[(0, 0), (0, 1)], also=(np.nan,))
    assert case.case_id == "o witness=(0,1)" and np.isnan(case.residual)


def test_report_with_no_cases_fails():
    # a run that checked nothing is not a green run
    rep = Report("rule", {}, tolerance=1e-12)
    assert not rep.passed and rep.to_dict()["pass"] is False and rep.to_dict()["cases"] == []
    rep.add("c", 0.0)
    assert rep.passed


@pytest.mark.parametrize("residual", [1.0, np.float64(np.nan), 0.0])
def test_scalar_gets_no_suffix(residual):
    case = _case("add", "s", residual)
    assert case.case_id == "s" and case.passed == (residual < 1e-12)


def test_fold_reduces_an_ndarray_as_it_is():
    assert fold(np.array([[1.0, 4.0], [2.0, 3.0]])) == 4.0
    assert fold(np.array([[1.0, 4.0], [2.0, 3.0]]), np.min, np.inf) == 1.0
    assert np.isnan(fold(np.array([1.0, np.nan, 9.0])))
    assert np.isnan(fold(np.array([1.0, np.nan, 9.0]), np.min))
    assert fold(np.empty((0, 3)), empty=-1.0) == -1.0
    assert fold(np.array([]), np.min, np.inf) == np.inf
    assert fold(x for x in (1.0, 2.0)) == 2.0
