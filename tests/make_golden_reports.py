"""Write tests/data/golden_reports.json, the reports that test_golden_reports.py pins.

Run from the repository root after adding a call, or when a change is meant
to alter a report:

    PYTHONPATH=src python tests/make_golden_reports.py

Each call runs in-process through ``bellkit.cli.main`` with ``--seed 7``
and a throwaway ``--json`` path; the table records the exit code and the
report.  A stored entry that the fresh run matches by
``test_golden_reports.assert_matches`` (the test's own comparison, residuals
to its ``ATOL``) is kept as stored, so a rerun rewrites only new or changed
calls and is a no-op on an unchanged tree.  The benchmark calls are copied
here, not imported, so that a benchmark change cannot silently change what
this table covers.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

SEED = "7"
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_reports.json")

BENCHMARK_CALLS = [
    # multiqubit
    "verify twist --n 5",
    "verify gram --family multi --n 4",
    "verify completeness --family multi --n 4",
    "verify observables --family multi --n 4",
    "verify concurrence --n 4 --trials 5",
    "verify teleport-eq --variant nqubit11 --n 3",
    "verify teleport-eq --variant nqubit22 --n 3",
    "verify projective-eq --variant nqubit --n 3",
    "verify braid-teleport --n 2",
    "verify basis-group --family multi --n 2",
    "teleport --variant nqubit --n 4 --samples 100000",
    # qudit
    "verify basis-group --family qudit --d 4",
    "verify basis-theorem --d 8 --trials 50",
    "verify teleport-eq --variant qudit11 --d 8",
    "verify teleport-eq --variant qudit22 --d 8",
    "verify observables --family qudit --d 8 --conjugated 2",
    "verify gram --family qudit --d 16",
    "verify completeness --family qudit --d 16",
    "verify projective-eq --variant qudit --d 8",
    "teleport --variant qudit --d 16 --samples 100000",
    # operators
    "verify tl --strands 5 --d 4",
    "verify tl --strands 5 --d 4 --m nonunitary",
    "verify ybe --gate twisted --n 3",
    "verify ybe --gate twisted-plain --n 3",
    "verify ybe --gate bell",
    "verify ybe --gate cnot",
    "verify braid --strands 6",
    "verify braid --strands 6 --gate cnot",
    "verify braid-teleport --n 1",
]

QUDIT = ["basic2", "qudit11", "qudit22", "qudit11p", "qudit22p"]
NQUBIT = ["nqubit11", "nqubit22"]


def _size_flag(variant: str) -> str:
    if "nqubit" in variant:
        return " --n 2"
    return "" if variant == "basic2" else " --d 3"


# form 22 needs a unitary M, and basic2 runs at M = 1, so neither takes --m general
TELEPORT_CALLS = (
    [f"verify teleport-eq --variant {v}{_size_flag(v)} --m {m}" for v in QUDIT + NQUBIT
     for m in ("identity", "unitary", "general") if not (m == "general" and ("22" in v or v == "basic2"))]
    + [f"verify projective-eq --variant {v}{_size_flag(v)}" for v in
       ["basic2", "qudit", "qudit11", "nqubit", "projective_qudit", "projective_qudit11",
        "projective_nqubit"]]
    + ["verify projective-eq --variant nqubit --n 1", "verify projective-eq --variant qudit11 --d 5"]
    + [f"verify linearity-reduction --variant {v}{_size_flag(v)}" for v in QUDIT + NQUBIT]
    + ["verify linearity-reduction --variant nqubit22 --n 1"]
    + ["teleport --variant basic2 --samples 1000", "teleport --variant qudit --d 3 --samples 1000",
       "teleport --variant nqubit --n 2 --samples 1000"]
)

# Readers of the one Bell family (bell.bell_unitaries) that the calls above miss.
FAMILY_CALLS = [
    "verify basis-theorem --family qubit --trials 3",
    "verify basis-theorem --d 3 --trials 5",
    "verify basis-theorem --family multi --n 2 --trials 3",
    "verify trace-constraint --n 1",
    "verify trace-constraint --n 2",
    "verify trace-constraint --n 3",
    "verify gram --family multi --n 5",
    "verify completeness --family multi --n 5",
    "verify basis-group --family multi --n 3",
    "verify basis-group --d 5",
    "verify observables --family multi --n 5",
    "verify observables --family qudit --d 3 --k 2 --conjugated 1",
    "verify teleport-eq --variant nqubit22 --n 4",
]

# Readers of the local-operator kernel (linalg.apply_local) that the calls above miss.
KERNEL_CALLS = [
    "verify ybe --gate twisted --n 1",
    "verify ybe --gate twisted --n 2 --eps=1,-1 --eta=-1,1",
    "verify ybe --gate swap",
    "verify tl --strands 3 --d 3 --m identity",
    "verify braid --strands 3",
    "verify observables --family qudit --d 5 --conjugated 1",
    "verify tl --strands 5 --d 4 --m identity",
    "verify tl --strands 4 --d 3 --alpha 2 --beta 1",
]

# The Bell transform's action formula, a suite that no call above runs.
ACTION_CALLS = ["verify bell-action"]

# Braid teleportation at non-default signs: the benchmark call runs only the
# default ones, so these pin the outcome table's per-pair sign bookkeeping.
BRAID_CALLS = [
    "verify braid-teleport --n 2 --eps-l=1,-1 --eta-l=-1,1 --eps-r=-1,1 --eta-r=1,-1",
    "verify braid-teleport --n 2 --eps-l=-1,-1 --eta-l=-1,-1 --eps-r=-1,1 --eta-r=1,-1",
]

CALLS = BENCHMARK_CALLS + TELEPORT_CALLS + FAMILY_CALLS + KERNEL_CALLS + BRAID_CALLS + ACTION_CALLS


def run(line: str) -> dict:
    # imported here, so that tests/ab_reports.py reads CALLS without bellkit or pytest
    from bellkit.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        argv = line.split() + ["--seed", SEED, "--json", path]
        code = main(argv)
        with open(path) as fh:
            report = json.load(fh)
    return {"argv": argv[:-2], "exit": code, "report": report}


def merge(stored: dict | None, fresh: dict) -> dict:
    """``stored`` if ``fresh`` matches it as the test compares them, else ``fresh``."""
    from test_golden_reports import assert_matches

    if stored is not None:
        try:
            assert_matches(fresh, stored)
            return stored
        except AssertionError:
            pass
    return fresh


if __name__ == "__main__":
    if not __debug__:
        sys.exit("assert_matches is made of asserts; run without -O, or every stored entry is kept")
    stored = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            stored = {tuple(e["argv"]): e for e in json.load(fh)}
    table = []
    for line in CALLS:
        fresh = run(line)
        table.append(merge(stored.get(tuple(fresh["argv"])), fresh))
    written = sum(entry is not stored.get(tuple(entry["argv"])) for entry in table)
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} reports in {OUT}: {written} new or changed", file=sys.stderr)
