"""``tests/ab_reports.py``, the two-tree report diff, on directory sides, so no git is needed."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLS = ["verify gram --family multi --n 2", "verify basis-theorem --d 2 --trials 3"]


def diff(a: Path, b: Path, calls=CALLS) -> subprocess.CompletedProcess:
    script = ROOT / "tests" / "ab_reports.py"
    argv = [sys.executable, str(script), str(a), str(b), *calls]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_tree_against_itself_is_byte_identical():
    done = diff(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    # each call at seeds 0 and 7
    assert done.stdout.count("byte-identical: ") == 2 * len(CALLS)


def test_edited_constant_differs(tmp_path):
    copy = tmp_path / "src" / "bellkit"
    shutil.copytree(ROOT / "src" / "bellkit", copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "linalg.py").read_text()
    assert "\nDEFAULT_TOL = 1e-12\n" in source
    (copy / "linalg.py").write_text(source.replace("\nDEFAULT_TOL = 1e-12\n", "\nDEFAULT_TOL = 1e-11\n"))
    done = diff(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.count("DIFFERS: ") == 2 * len(CALLS)
    assert "tolerance differs" in done.stdout


def test_bad_usage_exits_two(tmp_path):
    # a side with no src/bellkit, and a call that both trees refuse
    assert diff(tmp_path, ROOT).returncode == 2
    done = diff(ROOT, ROOT, ["verify gram --no-such-flag 1"])
    assert done.returncode == 2 and "BAD USAGE on both sides" in done.stdout
