"""bellkit benchmark: drives `bellkit.cli.main(argv)` from outside, as users do.

    python3 perfbench/run.py --workload multiqubit --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root; it imports bellkit from `src/`.

Traffic model: a closed loop with one client.  A pass runs one workload's
call list (perfbench/workloads.py) back to back in a fresh interpreter, with
BLAS pinned to BLAS_THREADS threads in that child's environment, because the
real callers are one-shot `bellkit` runs and pytest processes: work cached
across passes serves none of them.  A run makes one discarded import-only
warm-up, then alternates SETUP_IMPORTS import-only interpreters with one pass
until `--seconds` is used up (at least MIN_PASSES, or MIN_TRACED_PASSES of
each kind when traced).

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters of the time from starting the
               interpreter until `bellkit.cli` is imported
  wall_s       median wall time of one pass, set-up excluded
  peak_rss_mb  median `ru_maxrss` of a pass process (Linux reports KiB; MiB here)
  pass_share   calls that ran to their expected outcome / calls attempted
--trace 1 runs untraced and traced passes alternately and prints the
per-layer metrics from the traced ones (see tracer.py and README.md), plus
trace.wall_ratio, the median over adjacent untraced/traced pass pairs of the
traced wall time divided by the untraced one.

Every call gets `--seed` (the benchmark seed modulo 2**32).  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
`--out FILE` also appends a full record (environment, every pass, the per-name
trace table) to FILE, a JSON list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "bench_pass.py"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_IMPORTS = 5  # import-only interpreters before each pass
MIN_PASSES = 3  # untraced passes in an end-to-end run
MIN_TRACED_PASSES = 2  # untraced and traced passes, each, in a traced run
RUN_LIMIT_S = 170  # every run must end well inside 180 s

LAYERS = ("linalg", "pauli", "bell", "verify", "teleport", "braid", "report", "cli")
# Named kernels and the fields reported for each (see README.md for which
# end-to-end metric each should move, on which workload).
KERNELS = (
    ("linalg.tensor", ("calls", "self_s", "out_mb")),
    ("linalg.permutation_matrix", ("self_s", "out_mb")),
    ("linalg.residual", ("calls", "self_s")),
    ("bell.Circuit.to_matrix", ("incl_s",)),
    ("bell.multi_bell", ("calls", "incl_s")),
    ("bell.expand_in_bell_basis", ("incl_s",)),
    ("pauli.word_matrix", ("calls", "self_s")),
    ("pauli.gen_word_matrix", ("calls", "self_s")),
    ("pauli.basis_group_check", ("incl_s",)),
    ("verify.extend_basis", ("incl_s",)),
    ("teleport.teleport_eq_suite", ("incl_s",)),
    ("teleport.protocol_outcomes", ("incl_s",)),
    ("braid.tl_relation_check", ("self_s",)),
    ("braid.yang_baxter_check", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "out_mb": "MB"}
STAT_FIELDS = ("calls", "incl_s", "self_s", "out_mb")  # order of Tracer.stats values


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts pass interpreters; each one is waited for before the next."""

    def __init__(self, workdir: str, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.env.pop("BELLKIT_SEED", None)

    def child(self, *args: str) -> dict:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(PASS_SCRIPT), *args],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {' '.join(args)} ran past the run limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["imported_at"] - started
        out["proc_s"] = time.monotonic() - started
        return out

    def run_pass(self, workload: str, seed: int, *extra: str) -> dict:
        return self.child("--workload", workload, "--seed", str(seed), "--workdir", self.workdir, *extra)


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until `seconds` are used; return (setups, plain, traced).

    A discarded import-only warm-up comes first: a fresh checkout's first
    interpreter compiles bellkit to bytecode and reads numpy from disk, which
    no later pass pays.  Import-only interpreters for set-up time are spread
    between the passes, so they sample the machine across the whole run.
    """
    deadline = time.monotonic() + seconds
    runner.child("--import-only")
    setups, plain, traced = [], [], []
    least = MIN_TRACED_PASSES if trace else MIN_PASSES
    while True:
        kind = traced if trace and len(traced) < len(plain) else plain
        done = plain + traced
        if len(plain) >= least and (not trace or len(traced) >= least):
            est = statistics.median(p["proc_s"] for p in done)
            if time.monotonic() + est > deadline:
                break
        setups += [runner.child("--import-only")["setup_s"] for _ in range(SETUP_IMPORTS)]
        kind.append(runner.run_pass(workload, seed, *(("--trace",) if kind is traced else ())))
    return setups, plain, traced


def end_to_end(setups, plain, passes) -> dict:
    calls = [c for p in passes for c in p["calls"]]
    return {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in plain]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in plain) / 1024, "MiB"),
        "pass_share": (sum(c["ok"] for c in calls) / len(calls), "share"),
    }


def per_layer(plain, traced) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes, and whether counts repeated."""
    first = traced[0]["stats"]
    counts_repeat = all(
        {k: (v[0], v[3]) for k, v in p["stats"].items()} == {k: (v[0], v[3]) for k, v in first.items()}
        for p in traced
    )

    def med(fn) -> float:
        return statistics.median(fn(p["stats"]) for p in traced)

    def layer_sum(stats, layer, field):
        return sum(v[field] for k, v in stats.items() if k.partition(".")[0] == layer)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (layer_sum(first, layer, 0), "count")
        out[f"{layer}.self_s"] = (med(lambda s: layer_sum(s, layer, 2)), "s")
    empty = [0, 0.0, 0.0, 0]
    for name, fields in KERNELS:
        for field in fields:
            i = STAT_FIELDS.index(field)
            if field == "calls":  # exact counts, the same in every traced pass
                value = first.get(name, empty)[i]
            elif field == "out_mb":
                value = first.get(name, empty)[i] / 1e6
            else:
                value = med(lambda s: s.get(name, empty)[i])
            out[f"{name}.{field}"] = (value, UNITS[field])
    # plain[i] ran just before traced[i], so each pair saw the same machine
    ratio = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    out["trace.wall_ratio"] = (ratio, "ratio")
    return out, counts_repeat


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "ru_maxrss_unit": "KiB (Linux); peak_rss_mb = ru_maxrss / 1024",
    }


def _pass_record(p: dict) -> dict:
    return {"setup_s": p["setup_s"], "wall_s": p["wall_s"], "maxrss_kb": p["maxrss_kb"],
            "call_s": [c["s"] for c in p["calls"]]}


def write_record(path: str, record: dict) -> None:
    """Append `record` to the JSON list in `path`, one record a line."""
    records = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


def bench(args, runner: Runner) -> int:
    seed = args.seed % 2**32
    setups, plain, traced = measure(runner, args.workload, seed, args.seconds, args.trace)
    passes = [*plain, *traced]
    attempted = sum(len(p["calls"]) for p in passes)
    bad = [c for p in passes for c in p["calls"] if not c["ok"]]
    for c in bad:
        print(f"FAILED: bellkit {c['argv']}: exit {c['code']}, {c['cases']} cases, {c['error']}", file=sys.stderr)
    failed = len(bad)
    correct = failed == 0
    if args.trace:
        metrics, counts_repeat = per_layer(plain, traced)
        if not counts_repeat:
            print("traced passes disagree on call or byte counts", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(setups, plain, passes)

    q1, q2, q3 = statistics.quantiles([p["wall_s"] for p in plain], n=4)  # at least two passes
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} measured passes "
          f"{f'and {len(traced)} traced ' if traced else ''}after an import-only warm-up, "
          f"wall_s median {q2:.3f} s, quartiles {q1:.3f}-{q3:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:12.6g} {unit}")

    if args.out:
        write_record(args.out, {
            "schema": "bellkit-bench/1",
            "workload": args.workload, "why": WORKLOADS[args.workload].why,
            "seed": args.seed, "bellkit_seed": seed, "seconds": args.seconds, "trace": int(args.trace),
            "env": environment(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "correct": correct, "attempted": attempted, "failed": failed,
            "calls": [{k: c[k] for k in ("argv", "code", "cases")} for c in passes[0]["calls"]],
            "failed_calls": bad,
            "setup_samples_s": setups + [p["setup_s"] for p in plain],
            "passes": [_pass_record(p) for p in plain],
            "traced_passes": [_pass_record(p) for p in traced],
            "trace_table": {
                name: {"calls": v[0], "incl_s": v[1], "self_s": v[2], "out_mb": v[3] / 1e6}
                for name, v in sorted(traced[-1]["stats"].items()) if v[0]
            } if traced else None,
        })
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def self_test(runner: Runner) -> int:
    """Flip one expectation at the smallest size and see it counted as failed."""
    spans = os.path.join(runner.workdir, "spans.jsonl")

    def fail_share(p):
        return sum(not c["ok"] for c in p["calls"]) / len(p["calls"])

    base = runner.run_pass("self-test", 0)
    flipped = runner.run_pass("self-test", 0, "--flip", "0")
    traced = runner.run_pass("self-test", 0, "--trace", "--spans", spans)
    with open(spans) as fh:
        recorded = [json.loads(line) for line in fh]
    ids = {s["id"] for s in recorded}
    checks = {
        "expected outcomes give fail_share 0": fail_share(base) == 0,
        "a flipped expectation gives fail_share > 0": fail_share(flipped) > 0,
        "tracing keeps the outcomes": fail_share(traced) == 0,
        "the tracer sees every CLI call": traced["stats"]["cli.main"][0] == len(traced["calls"]),
        "calls bound by `from .x import f` are traced":
            traced["stats"]["braid.yang_baxter_check"][0] > 0 and traced["stats"]["linalg.residual"][0] > 0,
        "every span's parent is a recorded span": all(s["parent"] in ids for s in recorded if s["parent"] is not None),
    }
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(checks.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a full JSON record of the run to this file")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "bellkit" / "cli.py").is_file():
        print(f"no bellkit source under {ROOT / 'src'}; run from a bellkit checkout", file=sys.stderr)
        return 1

    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_parent)
    try:
        runner = Runner(workdir, time.monotonic())
        return self_test(runner) if args.self_test else bench(args, runner)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
