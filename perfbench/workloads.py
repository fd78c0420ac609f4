"""Workload definitions: the `bellkit` command lines one benchmark pass runs.

Each call is an argv for `bellkit.cli.main`, as a user would type it after
`bellkit`.  The pass appends `--seed <seed> --json <throwaway path>` to every
call, so every seeded call draws its random inputs from the benchmark's seed.

A call is correct when it returns its expected exit code and its JSON report
holds the expected number of cases (for `bellkit teleport`, the number of
histogram outcomes).  The four falsifiability controls are expected to exit 1;
every other call is expected to exit 0.  The case counts were taken from the
baseline run and do not depend on the seed.

Why these workloads, and which layer metric each is meant to move, is written
beside each workload below and in README.md.  Sizes stop one step below the
minutes-long sizes (twist n=6, nqubit22 n=4, concurrence n=5, multi
basis-group n=3), which run the same code paths.
"""

from __future__ import annotations

from typing import NamedTuple


class Call(NamedTuple):
    argv: tuple[str, ...]
    exit: int
    cases: int


class Workload(NamedTuple):
    why: str
    calls: tuple[Call, ...]


def _call(line: str, cases: int, exit: int = 0) -> Call:
    return Call(tuple(line.split()), exit, cases)


WORKLOADS = {
    # Dense Kronecker assembly, multi_bell, Circuit.to_matrix and word_matrix
    # do the work here, so a structured operator kernel shows on this
    # workload.  Moves: linalg.tensor.*, bell.Circuit.to_matrix.incl_s,
    # bell.multi_bell.*, bell.expand_in_bell_basis.incl_s, pauli.word_matrix.*,
    # linalg.permutation_matrix.*  ->  wall_s, peak_rss_mb.
    "multiqubit": Workload(
        "2n-qubit Bell family at mid sizes: dense Kronecker assembly, multi_bell, "
        "Circuit.to_matrix and word_matrix dominate",
        (
            _call("verify twist --n 5", 2),
            _call("verify gram --family multi --n 4", 1),
            _call("verify completeness --family multi --n 4", 1),
            _call("verify observables --family multi --n 4", 10),
            _call("verify concurrence --n 4 --trials 5", 5),
            _call("verify teleport-eq --variant nqubit11 --n 3", 64),
            _call("verify teleport-eq --variant nqubit22 --n 3", 64),
            _call("verify projective-eq --variant nqubit --n 3", 64),
            _call("verify braid-teleport --n 2", 32),
            _call("verify basis-group --family multi --n 2", 4),
            _call("teleport --variant nqubit --n 4 --samples 100000", 256),
        ),
    ),
    # The O(N^3) nearest-match closure of basis_group_check and the
    # gen_word_matrix / extend_basis paths dominate; bell is about 1%.  The
    # teleport layer runs both as equation checker and as Born-rule sampler.
    # Moves: linalg.residual.*, pauli.basis_group_check.incl_s,
    # pauli.gen_word_matrix.*, verify.extend_basis.incl_s,
    # teleport.*.incl_s  ->  wall_s.
    "qudit": Workload(
        "two-qudit family plus basis-group closure: residual-bound nearest-match "
        "closure, gen_word_matrix and extend_basis dominate",
        (
            _call("verify basis-group --family qudit --d 4", 4),
            _call("verify basis-theorem --d 8 --trials 50", 6),
            _call("verify teleport-eq --variant qudit11 --d 8", 64),
            _call("verify teleport-eq --variant qudit22 --d 8", 64),
            _call("verify observables --family qudit --d 8 --conjugated 2", 140),
            _call("verify gram --family qudit --d 16", 1),
            _call("verify completeness --family qudit --d 16", 1),
            _call("verify projective-eq --variant qudit --d 8", 64),
            _call("teleport --variant qudit --d 16 --samples 100000", 256),
        ),
    ),
    # linalg is used as matrix-matrix BLAS products of 1024^2 operators, not
    # as many small Kronecker/vector builds.  Symbolic-word or state-kernel
    # changes should leave it unmoved; BLAS or contraction changes show here.
    # Moves: braid.tl_relation_check.self_s, braid.yang_baxter_check.self_s
    # -> wall_s, peak_rss_mb.
    "operators": Workload(
        "dense 1024x1024 operator products in the braid layer: Temperley-Lieb, "
        "Yang-Baxter and braid relations",
        (
            _call("verify tl --strands 5 --d 4", 13),
            _call("verify tl --strands 5 --d 4 --m nonunitary", 13, exit=1),
            _call("verify ybe --gate twisted --n 3", 1),
            _call("verify ybe --gate twisted-plain --n 3", 1, exit=1),
            _call("verify ybe --gate bell", 4),
            _call("verify ybe --gate cnot", 1, exit=1),
            _call("verify braid --strands 6", 10),
            _call("verify braid --strands 6 --gate cnot", 10, exit=1),
            _call("verify braid-teleport --n 1", 8),
        ),
    ),
}

# The smallest sizes, for `run.py --self-test`: one must-pass call and one
# control, so that flipping either expectation must register as a failure.
SELF_TEST = Workload(
    "smallest sizes, for the benchmark's own self-test",
    (
        _call("verify ybe --gate bell", 4),
        _call("verify ybe --gate cnot", 1, exit=1),
    ),
)
