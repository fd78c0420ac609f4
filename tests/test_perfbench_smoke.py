"""The benchmark's self-test still runs against the current library.

`perfbench/run.py --self-test` drives `bellkit.cli.main` with the smallest
workload and flips one expectation, so a kernel change that breaks the CLI
calls or module names the benchmark and its tracer rely on fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
