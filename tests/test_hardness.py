"""Exact knapsack solvers and the knapsack -> gap-subset-sum reduction,
checked exhaustively against brute force on small instances."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sparsesum.core import KnapsackInstance
from sparsesum.hardness import (
    bellman_knapsack,
    gap_subset_sum,
    knapsack_preprocess,
    knapsack_to_gap_instance,
    solve_knapsack_via_gap,
)
from sparsesum.testkit import gen_instance, subset_sums_bitset


def brute_knapsack_opt(inst: KnapsackInstance) -> int:
    best = 0
    idx = range(inst.n)
    for r in range(inst.n + 1):
        for combo in combinations(idx, r):
            w = sum(inst.weights[i] for i in combo)
            v = sum(inst.values[i] for i in combo)
            if w <= inst.budget and v > best:
                best = v
    return best


def bruteforce_gap_classification(xs, t, eps: Fraction):
    """(opt, is_yes, is_no) for the constructed gap instance."""
    reach = subset_sums_bitset(xs, t)
    opt = reach.bit_length() - 1
    return opt, opt == t, Fraction(opt) < (1 - eps) * t


def test_bellman_examples():
    inst = KnapsackInstance(weights=(2, 3), values=(3, 4), budget=4, goal=5)
    assert bellman_knapsack(inst) == (4, False)
    empty = KnapsackInstance(weights=(), values=(), budget=3, goal=1)
    assert bellman_knapsack(empty) == (0, False)
    one = KnapsackInstance(weights=(1,), values=(1,), budget=1, goal=1)
    assert bellman_knapsack(one) == (1, True)
    # a zero-weight item is always taken
    free = KnapsackInstance(weights=(0, 2, 3), values=(5, 4, 7), budget=3, goal=12)
    assert bellman_knapsack(free) == (12, True)
    huge = KnapsackInstance(weights=(1, 1), values=(2**62, 1), budget=2, goal=1)
    with pytest.raises(OverflowError, match="risks int64 overflow"):
        bellman_knapsack(huge)


def test_bellman_vs_bruteforce_randomized():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(0, 9))
        inst = gen_instance("knapsack", n, 25, density=float(rng.uniform(0.2, 0.9)), seed=trial)
        assert bellman_knapsack(inst)[0] == brute_knapsack_opt(inst), f"trial {trial}"


def test_preprocess_examples_and_oracle():
    # five items of weight 3, budget 6: keep the top 2 by value
    inst = KnapsackInstance(
        weights=(3, 3, 3, 3, 3), values=(5, 9, 1, 7, 3), budget=6, goal=1
    )
    red = knapsack_preprocess(inst)
    assert sorted(red.values) == [7, 9]
    assert bellman_knapsack(red)[0] == bellman_knapsack(inst)[0]

    rng = np.random.default_rng(6)
    for trial in range(200):
        n = int(rng.integers(0, 13))
        inst = gen_instance("knapsack", n, 30, density=0.5, seed=trial + 1000)
        red = knapsack_preprocess(inst)
        assert red.n <= inst.n
        assert bellman_knapsack(red)[0] == bellman_knapsack(inst)[0], f"trial {trial}"


def test_reduction_solvable_example():
    inst = KnapsackInstance(weights=(2,), values=(3,), budget=2, goal=3)
    xs, t, eps = knapsack_to_gap_instance(inst)
    assert eps == Fraction(1, 4)
    assert all(x > 0 for x in xs) and t > 0
    opt, is_yes, is_no = bruteforce_gap_classification(xs, t, eps)
    assert is_yes and opt == t


def test_reduction_unsolvable_example():
    inst = KnapsackInstance(weights=(2,), values=(1,), budget=2, goal=5)
    xs, t, eps = knapsack_to_gap_instance(inst)
    opt, is_yes, is_no = bruteforce_gap_classification(xs, t, eps)
    assert not is_yes and is_no


def test_reduction_eps_formula():
    for W in (1, 2, 7, 30):
        inst = KnapsackInstance(weights=(1,), values=(1,), budget=W, goal=1)
        _, _, eps = knapsack_to_gap_instance(inst)
        assert eps == Fraction(1, 2 * W)


def test_reduction_overshoot_regression():
    # every solution overshoots the goal by far more than the goal itself;
    # value padding must still let the total land exactly on V
    inst = KnapsackInstance(
        weights=(1,) * 8, values=(100,) * 8, budget=1, goal=1
    )
    xs, t, eps = knapsack_to_gap_instance(inst)
    opt, is_yes, is_no = bruteforce_gap_classification(xs, t, eps)
    assert is_yes, "solvable instance must map to OPT = t"


def test_reduction_soundness_completeness_sweep():
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(300):
        n = int(rng.integers(1, 7))
        inst = gen_instance(
            "knapsack", n, 20, density=float(rng.uniform(0.2, 0.9)), seed=trial + 5
        )
        xs, t, eps = knapsack_to_gap_instance(inst)
        if len(xs) > 18:
            continue
        checked += 1
        solvable = bellman_knapsack(inst)[1]
        opt, is_yes, is_no = bruteforce_gap_classification(xs, t, eps)
        if solvable:
            assert is_yes, f"trial {trial}: solvable but OPT != t"
        else:
            assert is_no, f"trial {trial}: unsolvable but OPT >= (1-eps)t"
    assert checked >= 100


def test_gap_subset_sum_examples():
    assert gap_subset_sum([5, 5], 10, 0.1) is True
    assert gap_subset_sum([3], 10, 0.5) is False


def test_solve_via_gap_small_branch_uses_bellman():
    # n < log2(M): decided exactly
    inst = KnapsackInstance(weights=(3,), values=(900,), budget=3, goal=800)
    assert solve_knapsack_via_gap(inst) is True
    inst2 = KnapsackInstance(weights=(5,), values=(900,), budget=3, goal=800)
    assert solve_knapsack_via_gap(inst2) is False


def test_solve_via_gap_wide_reduction_uses_bellman():
    # the reduced target has 65 bits, more than a SubsetSum instance holds
    inst = KnapsackInstance(
        weights=tuple(range(1, 61)), values=(2**50,) + (1,) * 59, budget=64, goal=2**50
    )
    assert knapsack_to_gap_instance(inst)[1].bit_length() == 65

    def no_gap_solver(X, t, e):
        raise AssertionError("the gap solver must not see a 65-bit target")

    assert solve_knapsack_via_gap(inst, no_gap_solver) is True
    assert solve_knapsack_via_gap(inst) is bellman_knapsack(inst)[1] is True


def test_solve_via_gap_folds_zero_weight_items():
    # the zero-weight item of value 5 is always taken, so the goals 12 and
    # 17 become 7 and 12 over the other five items, decided by the gap route
    weights, values = (0, 1, 2, 3, 1, 2), (5, 4, 7, 1, 2, 3)
    for goal, want in ((12, True), (17, False)):
        inst = KnapsackInstance(weights=weights, values=values, budget=3, goal=goal)
        assert bellman_knapsack(inst) == (16, want)
        calls = []

        def spy(X, t, e):
            calls.append(t)
            return gap_subset_sum(X, t, e)

        assert solve_knapsack_via_gap(inst, spy) is want and calls
    # zero-weight items that reach the goal on their own decide it
    inst = KnapsackInstance(weights=(0, 0, 1), values=(6, -3, 4), budget=1, goal=6)
    assert solve_knapsack_via_gap(inst, gap_solver=None) is True
    # the reduction itself still refuses zero weights with a typed error
    with pytest.raises(ValueError, match="positive weights"):
        knapsack_to_gap_instance(KnapsackInstance(weights=(0, 1), values=(5, 4), budget=3, goal=6))


def test_solve_via_gap_agreement_sweep():
    rng = np.random.default_rng(88)
    disagreements = 0
    runs = 60
    for trial in range(runs):
        n = int(rng.integers(1, 7))
        inst = gen_instance(
            "knapsack", n, 15, density=float(rng.uniform(0.3, 0.8)), seed=trial + 31
        )
        want = bellman_knapsack(inst)[1]
        got = solve_knapsack_via_gap(
            inst, lambda X, t, e: gap_subset_sum(X, t, e, seed=trial)
        )
        if got != want:
            disagreements += 1
    assert disagreements <= 1, f"{disagreements}/{runs} disagreements"
