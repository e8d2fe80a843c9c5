"""Exact knapsack solvers and the reduction from Knapsack to the
subset-sum gap problem.

The reduction embeds weights and values into single numbers: with
M' = 4nM (M the largest absolute input, n the padded item count),
item i becomes x_i = w_i*M' - v_i, the target is t = W*M' - V, and the
gap width is eps = 1/(2W). A feasible knapsack solution that hits W and
V exactly sums to t on the nose; if no solution exists, every subset
either overshoots t or falls below (1-eps)*t, so a gap-subset-sum
answer decides the knapsack question.

Padding makes the "hits W and V exactly" part possible: items of
weight 2^i and value 0 (i up to log2 W) can top the weight up to
exactly W, and items of weight 0 and value -2^i can shave the value
down to exactly V. The value paddings run up to log2 M rather than
log2 V: a minimal solution can overshoot V by anything below M, and
powers up to M are needed to represent that overshoot (running only to
log2 V breaks completeness whenever item values dwarf V). Negative
values exist only in this intermediate instance; the produced
subset-sum numbers are all positive.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import InvariantError, KnapsackInstance, SubsetSumInstance
from .subsetsum import approximate_subset_sum, clog2

_REDUCTION_BUDGET = 2**126


def bellman_knapsack(inst: KnapsackInstance) -> tuple[int, bool]:
    """Exact optimum by the classic weight-indexed DP in O(n*W), plus
    the decision against the value goal V."""
    W = inst.budget
    total_pos = sum(v for v in inst.values if v > 0)
    if total_pos > 2**62:
        raise OverflowError(f"total positive value {total_pos} risks int64 overflow")
    dp = np.zeros(W + 1, dtype=np.int64)
    for w, v in zip(inst.weights, inst.values):
        if w > W or v <= 0:
            # zero/negative values never help a maximum; items heavier
            # than the budget never fit
            continue
        if w == 0:
            dp += v
            continue
        np.maximum(dp[w:], dp[:-w] + v, out=dp[w:])
    opt = int(dp[W])
    return opt, opt >= inst.goal


def knapsack_preprocess(inst: KnapsackInstance) -> KnapsackInstance:
    """Keep only the floor(W/w) most profitable items of each weight
    class w; no solution uses more of a class, so the optimum is
    unchanged and at most ~W log W items remain."""
    by_weight: dict[int, list[int]] = {}
    for w, v in zip(inst.weights, inst.values):
        if w < 1:
            raise ValueError("preprocessing requires positive weights")
        by_weight.setdefault(w, []).append(v)
    weights, values = [], []
    for w in sorted(by_weight):
        for v in sorted(by_weight[w], reverse=True)[: inst.budget // w]:
            weights.append(w)
            values.append(v)
    return KnapsackInstance(
        weights=tuple(weights),
        values=tuple(values),
        budget=inst.budget,
        goal=inst.goal,
    )


def knapsack_to_gap_instance(inst: KnapsackInstance) -> tuple[list[int], int, Fraction]:
    """Build the gap-subset-sum instance (X, t, eps) deciding inst.

    Completeness: knapsack solvable => some subset of X sums to exactly
    t (OPT = t). Soundness: unsolvable => every subset sum is > t or
    < (1-eps)*t, i.e. OPT < (1-eps)*t.
    """
    M = inst.max_number
    weights = list(inst.weights)
    values = list(inst.values)
    for w in weights:
        if w < 1:
            raise ValueError("reduction input requires positive weights")
    W, V = inst.budget, inst.goal

    # weight fillers 2^i (value 0) and value shavers -2^i (weight 0)
    for i in range(clog2(W + 1)):
        weights.append(2**i)
        values.append(0)
    for i in range(clog2(M + 1)):
        weights.append(0)
        values.append(-(2**i))

    n = len(weights)
    if n < clog2(max(2, M)):
        raise ValueError("reduction requires n >= log2(M) after padding")
    mprime = 4 * n * M
    t = W * mprime - V
    if t >= _REDUCTION_BUDGET:
        raise OverflowError(f"t = {t} exceeds the 128-bit reduction budget")
    xs = [w * mprime - v for w, v in zip(weights, values)]
    if t <= 0 or min(xs) <= 0:
        raise InvariantError("the reduction produced a non-positive number")
    return xs, t, Fraction(1, 2 * W)


def gap_subset_sum(X, t: int, epsilon, seed: int = 0, confidence: int = 4) -> bool:
    """Gap decision: True means OPT = t, False means OPT < (1-eps)*t.

    Runs the approximation scheme and answers True iff the achieved
    value reaches (1-eps)*t. The answer is only meaningful under the
    promise OPT = t or OPT < (1-eps)*t; between the two thresholds
    either answer may come back.
    """
    eps = Fraction(epsilon)
    inst = SubsetSumInstance(items=tuple(int(x) for x in X), target=int(t))
    result = approximate_subset_sum(inst, eps, seed=seed, confidence=confidence)
    return Fraction(result.value) >= (1 - eps) * t


def solve_knapsack_via_gap(inst: KnapsackInstance, gap_solver=gap_subset_sum) -> bool:
    """Decide a knapsack instance through the gap reduction; small
    instances (n below log2 M) go straight to the exact DP, where the
    DP is cheap anyway."""
    M = inst.max_number
    if inst.n < clog2(max(2, M)):
        return bellman_knapsack(inst)[1]
    xs, t, eps = knapsack_to_gap_instance(inst)
    return bool(gap_solver(xs, t, eps))
