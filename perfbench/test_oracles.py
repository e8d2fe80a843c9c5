"""Tests of the benchmark's own oracles and of its tracer.

    python3 -m pytest perfbench

The oracle tests need no sparsesum; the tracer test imports it from
./src and runs one small solve of each kind.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402


def knapsack_opt_bruteforce(weights, values, budget: int) -> int:
    """Enumerate every subset: the reference for knapsack_opt."""
    n = len(weights)
    best = 0
    for r in range(n + 1):
        for idx in combinations(range(n), r):
            if sum(weights[i] for i in idx) <= budget:
                best = max(best, sum(values[i] for i in idx))
    return best


def subset_sums(items) -> set[int]:
    return {sum(c) for r in range(len(items) + 1) for c in combinations(items, r)}


@pytest.mark.parametrize("seed", range(20))
def test_planted_subset_sum_reaches_t(seed):
    rng = random.Random(seed)
    t = rng.randint(50, 5000)
    items, planted = oracles.planted_subset_sum(rng, 10, t, 4)
    assert len(items) == 10 and all(1 <= x <= t for x in items)
    assert sum(planted) == t
    assert oracles.check_witness(items, planted, t) is None
    assert max(s for s in subset_sums(items) if s <= t) == t


@pytest.mark.parametrize("seed", range(20))
def test_planted_partition_splits_evenly(seed):
    rng = random.Random(seed)
    items, half = oracles.planted_partition(rng, 11, 300)
    assert len(items) == 11 and min(items) >= 1
    assert 2 * sum(half) == sum(items)
    assert oracles.check_witness(items, half, sum(half)) is None
    assert sum(items) // 2 in subset_sums(items)


@pytest.mark.parametrize("seed", range(40))
def test_knapsack_dp_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    weights = [rng.randint(1, 12) for _ in range(n)]
    values = [rng.randint(1, 2**rng.randint(1, 50)) for _ in range(n)]
    budget = rng.randint(1, 30)
    assert oracles.knapsack_opt(weights, values, budget) == knapsack_opt_bruteforce(
        weights, values, budget
    )


def test_checks_reject_bad_outputs():
    items = [3, 5, 5, 9]
    assert oracles.check_witness(items, [5, 5], 10) is None
    assert "not in the instance" in oracles.check_witness(items, [5, 5, 5], 15)
    assert "sums to" in oracles.check_witness(items, [3, 5], 9)
    eps = Fraction(1, 4)
    assert oracles.check_subset_sum(items, 13, eps, 13, [3, 5, 5]) is None
    assert "exceeds" in oracles.check_subset_sum(items, 12, eps, 13, [3, 5, 5])
    assert "below" in oracles.check_subset_sum(items, 20, eps, 14, [5, 9])
    # sigma = 22, OPT = 11; (1 - 1/4) * 11 = 8.25
    assert oracles.check_partition(items, eps, 9, [9]) is None
    assert "below" in oracles.check_partition(items, eps, 8, [3, 5])
    assert "exceeds" in oracles.check_partition(items, eps, 14, [5, 9])


@pytest.mark.parametrize("seed", range(5))
def test_knapsack_workload_sizing(seed):
    weights, values, opt = workloads._knapsack_instance(random.Random(seed), 50, 16)
    assert opt == oracles.knapsack_opt(weights, values, 16)
    lo, hi = workloads.KNAPSACK_T_BITS
    for goal in (opt, opt + 1):
        assert 2**lo < oracles.reduced_target(weights, values, 16, goal) < 2**hi
    assert oracles.clog2(opt + 1) <= 50


def test_reduced_target_matches_the_reduction():
    sys.path.insert(0, str(HERE.parent / "src"))
    sparsesum = pytest.importorskip("sparsesum")
    weights, values, opt = workloads._knapsack_instance(random.Random(0), 50, 16)
    inst = sparsesum.KnapsackInstance(weights=weights, values=values, budget=16, goal=opt)
    _, t, _ = sparsesum.knapsack_to_gap_instance(inst)
    assert t == oracles.reduced_target(weights, values, 16, opt)


def test_tracer_counts_and_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    sparsesum = pytest.importorskip("sparsesum")
    from tracer import METRICS, Tracer

    hardness = sys.modules["sparsesum.hardness"]
    before = dict(vars(sys.modules["sparsesum.approxset"]))
    defaults = hardness.solve_knapsack_via_gap.__defaults__
    sub = sparsesum.SubsetSumInstance(items=(134, 997, 61, 598, 78), target=1200)
    part = sparsesum.PartitionInstance(items=tuple(range(1, 40)))
    knap = sparsesum.KnapsackInstance(weights=(1, 2, 3), values=(5, 4, 3), budget=3, goal=8)
    plain = sparsesum.approximate_subset_sum(sub, Fraction(1, 16), seed=7)

    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.solve("solve", sparsesum.approximate_subset_sum, sub,
                              Fraction(1, 16), seed=7)
        tracer.solve("solve", sparsesum.approximate_partition, part, Fraction(1, 64))
        tracer.solve("solve", sparsesum.solve_knapsack_via_gap, knap)
    finally:
        tracer.uninstall()

    assert (traced.value, traced.witness) == (plain.value, plain.witness)
    assert vars(sys.modules["sparsesum.approxset"]) == before
    assert hardness.solve_knapsack_via_gap.__defaults__ == defaults
    metrics = tracer.metrics(3)
    assert set(metrics) == set(METRICS)
    assert metrics["minconv.calls"] > 0 and metrics["approxset.capped_sumset.calls"] > 0
    assert metrics["partition.bottom_half.calls"] > 0
    assert metrics["hardness.gap_subset_sum.s"] > 0
    assert metrics["subsetsum.recursive_splitting.depth_max"] >= 1
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in roots] == ["solve"] * 3
    assert all(s[3] <= s[4] for s in tracer.spans)
