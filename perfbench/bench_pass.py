"""One benchmark pass, run by run.py in a fresh interpreter.

    python3 perfbench/bench_pass.py --import-only
    python3 perfbench/bench_pass.py --workload NAME --seed N --workdir DIR
                                    [--trace] [--spans FILE] [--flip I]

`bellkit.cli` is imported first, and the CLOCK_MONOTONIC time at which that
import finished is reported, so the parent can take set-up time as that
minus the time it started this interpreter.  The pass then runs the
workload's calls back to back through `bellkit.cli.main(argv)`, as the
`bellkit` command does, and prints one JSON line: the import time, each
call's exit code, case count, correctness and seconds, the pass wall time
(the sum of the calls), `ru_maxrss` in KiB (Linux units) and, when traced,
the tracer's per-name counts.  `--flip I` inverts call I's expected exit
code; the self-test uses it to see that a wrong outcome registers.
"""

import sys
import time


def main(imported_at: float, argv: list[str]) -> int:
    import argparse
    import contextlib
    import io
    import json
    import os
    import resource
    from pathlib import Path

    import bellkit.cli
    from workloads import SELF_TEST, WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--flip", type=int, default=-1)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(bellkit.cli.__file__).resolve().is_relative_to(src):
        print(f"bellkit was imported from {bellkit.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    if args.import_only:
        print(json.dumps({"imported_at": imported_at}))
        return 0

    workload = SELF_TEST if args.workload == "self-test" else WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_path = os.path.join(args.workdir, "report.json")
    results = []
    for i, call in enumerate(workload.calls):
        expected = 1 - call.exit if i == args.flip else call.exit
        if tracer:
            tracer.request = i
        if os.path.exists(out_path):
            os.remove(out_path)
        argv_i = [*call.argv, "--seed", str(args.seed), "--json", out_path]
        error = None
        start = time.perf_counter()
        try:
            # bellkit prints one summary line per case; keep them off our stdout
            with contextlib.redirect_stdout(io.StringIO()):
                code = bellkit.cli.main(argv_i)
        except SystemExit as exc:  # argparse rejects bad usage with exit 2
            code = exc.code
        except Exception as exc:  # a raising call is a failed call, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cases = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                report = json.load(fh)
            cases = len(report["cases"] if "cases" in report else report["histogram"])
        ok = error is None and code == expected and cases == call.cases
        results.append({"argv": " ".join(call.argv), "code": code, "cases": cases,
                        "ok": ok, "s": seconds, "error": error})

    out = {
        "imported_at": imported_at,
        "wall_s": sum(r["s"] for r in results),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": results,
        "stats": tracer.stats if tracer else None,
    }
    if tracer and args.spans:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "request", "name", "start", "end"), span))) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    import bellkit.cli  # noqa: F401  set-up ends when this import does

    sys.exit(main(time.monotonic(), sys.argv[1:]))
