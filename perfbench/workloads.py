"""Seeded inputs of the benchmark's workloads.

Each workload's function turns the run's ``--seed`` into the cases of one
round: the instances to solve, and the algorithms each is solved by.  Equal
seeds give equal cases.  ``fairksel`` is imported inside the functions, so
that importing this module (the parent process does, for the workload names)
needs nothing but the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("lp-scale", "exact-scale", "desk")

# Workloads whose solves run the feasibility LP: their instances get an
# untimed `fairksel lp` check (T* and residuals).
LP_WORKLOADS = ("lp-scale", "desk")


@dataclass(frozen=True)
class Case:
    """One instance and the algorithms one round solves it by."""

    name: str                 # unique within the workload; also the file stem
    instance: object          # fairksel.core.Instance
    sets: tuple | None        # laminar set system, saved as "sets" when given
    algs: tuple[str, ...]
    solve_seed: int


def _base(seed: int) -> int:
    # distinct run seeds never share an instance seed
    return seed * 1000


def lp_scale(seed: int) -> list[Case]:
    """Two unit-weight and two weighted rb(3000, 4000, 5, 800) instances.

    The LP threshold search is about 99% of each solve here: ten feasibility
    LPs per unit-weight instance, five per weighted one.
    """
    from fairksel.gen import gen_random_bipartite

    base = _base(seed)
    cases = []
    for i in range(4):
        weighted = i >= 2
        inst = gen_random_bipartite(
            3000, 4000, 5, 800, seed=base + i,
            weight_range=(0.5, 4.0) if weighted else None,
        )
        name = f"rb-{'w' if weighted else 'u'}{i}"
        cases.append(Case(name, inst, None, ("pipage", "lll"), base + i))
    return cases


def _path_cycle_components(n_candidates: int) -> list[tuple[str, int]]:
    # a fixed alternating structure: only the weights depend on the seed, so
    # the number of thresholds scanned stays close from seed to seed
    return [("path", 15), ("cycle", 15)] * (n_candidates // 30)


def exact_scale(seed: int) -> list[Case]:
    """Four `auto` solves that route to the exact solvers, with no LP.

    * degree 2, integer weights 1..9, 1.5k candidates, k = 0.6 m: 19
      thresholds, each a red-blue check whose component knapsack dominates;
    * degree 2, float weights, 450 candidates, k = m / 2: about 900
      thresholds, of which the linear scan tries some 390;
    * degree 2, unit weights, 4.5k candidates (the same instance every seed);
    * laminar, 1000 elements, 1500 sets, integer weights 1..9, k = 300.
    """
    from fairksel.core import instance_from_sets
    from fairksel.gen import gen_path_cycle, gen_random_laminar

    base = _base(seed)
    d2_int = gen_path_cycle(_path_cycle_components(1500), 900,
                            weight_range=(1, 9), seed=base,
                            integer_weights=True)
    d2_float = gen_path_cycle(_path_cycle_components(450), 225,
                              weight_range=(1.0, 9.0), seed=base + 1)
    d2_unit = gen_path_cycle(_path_cycle_components(4500), 2250)
    sets, weights = gen_random_laminar(1000, 1500, weight_range=(1, 9),
                                       seed=base + 2, integer_weights=True)
    laminar = instance_from_sets(1000, sets, 300, weights)
    return [
        Case("d2-int", d2_int, None, ("auto",), base),
        Case("d2-float", d2_float, None, ("auto",), base + 1),
        Case("d2-unit", d2_unit, None, ("auto",), base),
        Case("laminar", laminar, sets, ("auto",), base + 2),
    ]


DESK_SEEDS = 25


def desk(seed: int) -> list[Case]:
    """The `fairksel bench` families (m <= 16) over 25 seeds, each solved by
    `auto`, `pipage` and `lll`: 525 solves a round.

    The instances come from the package's own bench definition, so `desk`
    follows it when the families change.
    """
    from fairksel import cli

    base = _base(seed)
    algs = ("auto", "pipage", "lll")
    cases = []
    for i in range(DESK_SEEDS):
        s = base + i
        for fam in cli.BENCH_FAMILIES:
            inst, sets = cli._bench_instance(fam, s)
            cases.append(Case(f"{fam}-{i:02d}", inst, sets, algs, s))
    return cases


CASES = {"lp-scale": lp_scale, "exact-scale": exact_scale, "desk": desk}

# Wall time of one round on the seed code (2-core x86_64 VM), rounded up.
# A run makes a fixed number of rounds, as many of these as fit in its
# --seconds: a faster or slower program then gets the same number of samples
# for its fastest-of-rounds solve times, and the run lasts about --seconds
# on the seed code.
NOMINAL_ROUND_S = {"lp-scale": 6.5, "exact-scale": 3.2, "desk": 1.5}


def rounds(workload: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` makes: at least two."""
    return max(2, int(seconds / NOMINAL_ROUND_S[workload]))
