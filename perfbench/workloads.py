"""The benchmark's workloads: seeded inputs, the solve call and its check.

Each workload function takes the sparsesum package and a seed and
returns its Cases, one round. Each Case calls one public entry point of
sparsesum with its default engine, and its check tests the output
against an oracle from oracles.py. Sizes
were chosen so that one round takes a few seconds on a 2-core machine;
README.md gives the reasons and reference figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# Reduced knapsack targets are kept in this range: above 2^59 the
# sumsets take the big-int paths, and targets near 2^63 can make the
# solver raise OverflowError.
KNAPSACK_T_BITS = (59, 62)


@dataclass
class Case:
    label: str
    solve: Callable[[], object]
    check: Callable[[object], "str | None"]


def _rng(workload: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _subset_sum_cases(ss, workload, seed, count, n, planted, eps):
    cases = []
    for i in range(count):
        rng = _rng(workload, seed, i)
        t = 2**30 + rng.randrange(2**26)
        items, _ = oracles.planted_subset_sum(rng, n, t, planted)
        inst = ss.SubsetSumInstance(items=items, target=t)
        solver_seed = rng.randrange(2**31)

        def solve(inst=inst, solver_seed=solver_seed):
            res = ss.approximate_subset_sum(inst, eps, seed=solver_seed)
            return res.value, res.witness

        def check(out, items=items, t=t):
            return oracles.check_subset_sum(items, t, eps, *out)

        cases.append(Case(f"subsetsum n={n} t={t} seed={solver_seed}", solve, check))
    return cases


def subsetsum_saturated(ss, seed: int) -> list[Case]:
    return _subset_sum_cases(ss, "subsetsum-saturated", seed, count=1, n=48, planted=8,
                             eps=Fraction(1, 256))


def subsetsum_sparse(ss, seed: int) -> list[Case]:
    return _subset_sum_cases(ss, "subsetsum-sparse", seed, count=2, n=12, planted=4,
                             eps=Fraction(1, 4096))


def partition_saturated(ss, seed: int) -> list[Case]:
    eps = Fraction(1, 2048)
    items, _ = oracles.planted_partition(_rng("partition-saturated", seed), 1000, 2**30)
    inst = ss.PartitionInstance(items=items)

    def solve():
        res = ss.approximate_partition(inst, eps)
        return res.value, res.witness

    def check(out):
        return oracles.check_partition(items, eps, *out)

    return [Case(f"partition n={len(items)}", solve, check)]


def _knapsack_instance(rng: random.Random, n: int, budget: int):
    """Weights in [1, budget] and values scaled so that the reduced
    target of both goals (OPT and OPT+1) lies in KNAPSACK_T_BITS and the
    instance takes the reduction, not the DP shortcut (n >= log2 M)."""
    lo, hi = KNAPSACK_T_BITS
    bits = 46
    while True:
        weights = [rng.randint(1, budget) for _ in range(n)]
        values = [rng.randint(1, 2**bits) for _ in range(n)]
        opt = oracles.knapsack_opt(weights, values, budget)
        ts = [oracles.reduced_target(weights, values, budget, g) for g in (opt, opt + 1)]
        if max(ts) >= 2**hi:
            bits -= 1
        elif min(ts) <= 2**lo:
            bits += 1
        elif oracles.clog2(opt + 1) <= n:
            return weights, values, opt


def knapsack_gap(ss, seed: int) -> list[Case]:
    budget = 16
    weights, values, opt = _knapsack_instance(_rng("knapsack-gap", seed), 50, budget)
    cases = []
    for goal in (opt, opt + 1):
        inst = ss.KnapsackInstance(weights=weights, values=values, budget=budget, goal=goal)

        def solve(inst=inst):
            return ss.solve_knapsack_via_gap(inst)

        def check(answer, goal=goal):
            if answer != (opt >= goal):
                return f"decision {answer} for goal {goal}, DP optimum {opt}"
            return None

        cases.append(Case(f"knapsack n=50 W={budget} goal={goal} opt={opt}", solve, check))
    return cases


WORKLOADS = {
    "subsetsum-saturated": subsetsum_saturated,
    "subsetsum-sparse": subsetsum_sparse,
    "partition-saturated": partition_saturated,
    "knapsack-gap": knapsack_gap,
}


def warm_up(ss) -> None:
    """One small solve: the README quick-start instance."""
    inst = ss.SubsetSumInstance(items=(134, 997, 61, 598, 78), target=1200)
    ss.approximate_subset_sum(inst, Fraction(1, 16), seed=7)
