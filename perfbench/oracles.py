"""Correctness oracles that do not depend on the sparsesum package.

Every instance the benchmark solves is built so that its optimum is
known without running the solver under test:

  - SubsetSum: a planted subset sums to the target t exactly, so OPT = t.
  - Partition: the items split into two halves of equal sum, so
    OPT = sigma/2.
  - Knapsack: OPT comes from the weight-indexed DP below, written here
    and not taken from sparsesum.hardness.

The checks then test each reported solution against the guarantees the
project README states, using exact rational arithmetic.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction


def clog2(x: int) -> int:
    """Ceiling of log2 for a positive integer; clog2(1) = 0."""
    return (int(x) - 1).bit_length()


def random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total` (needs total >= parts)."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def planted_subset_sum(
    rng: random.Random, n: int, t: int, planted: int
) -> tuple[list[int], list[int]]:
    """n items in [1, t] and target t, where `planted` of the items sum to
    t exactly; returns (items, planted_items). The rest are uniform in
    [1, t]."""
    chosen = random_composition(rng, t, planted)
    items = chosen + [rng.randint(1, t) for _ in range(n - planted)]
    rng.shuffle(items)
    return items, chosen


def planted_partition(rng: random.Random, n: int, max_item: int) -> tuple[list[int], list[int]]:
    """n items with a perfect split; returns (items, one_half). The first
    half is uniform in [1, max_item]; the second is a random composition
    of the same sum into the remaining n - n//2 items."""
    half = [rng.randint(1, max_item) for _ in range(n // 2)]
    other = random_composition(rng, sum(half), n - n // 2)
    items = half + other
    rng.shuffle(items)
    return items, half


def knapsack_opt(weights, values, budget: int) -> int:
    """Best total value of a sub-multiset with total weight <= budget
    (0/1 knapsack, weight-indexed DP over Python integers)."""
    best = [0] * (budget + 1)
    for w, v in zip(weights, values):
        if w > budget or v <= 0:
            continue
        for c in range(budget, w - 1, -1):
            cand = best[c - w] + v
            if cand > best[c]:
                best[c] = cand
    return best[budget]


def reduced_target(weights, values, budget: int, goal: int) -> int:
    """Target t of the Knapsack-to-gap-SubsetSum reduction as the
    docstring of sparsesum.hardness states it: pad with clog2(W+1) weight fillers and clog2(M+1) value
    shavers, M' = 4*n_padded*M, t = W*M' - V. Used only to size the
    knapsack-gap workload so that t falls in a chosen bit range."""
    m = max([budget, goal] + [abs(w) for w in weights] + [abs(v) for v in values])
    n_padded = len(weights) + clog2(budget + 1) + clog2(m + 1)
    return budget * 4 * n_padded * m - goal


def check_witness(items, witness, value) -> str | None:
    """None when the witness is a sub-multiset of items summing to value,
    otherwise a description of the fault."""
    missing = Counter(witness) - Counter(items)
    if missing:
        return f"witness uses items not in the instance: {sorted(missing)[:3]}"
    if sum(witness) != value:
        return f"witness sums to {sum(witness)}, reported value is {value}"
    return None


def check_subset_sum(items, t: int, eps: Fraction, value: int, witness) -> str | None:
    """Planted OPT = t, so the README guarantee reads
    (1 - eps) * t <= value <= t."""
    fault = check_witness(items, witness, value)
    if fault:
        return fault
    if value > t:
        return f"value {value} exceeds the target {t}"
    if value < (1 - eps) * t:
        return f"value {value} below (1-eps)*OPT = {float((1 - eps) * t):.6g}"
    return None


def check_partition(items, eps: Fraction, value: int, witness) -> str | None:
    """Planted OPT = sigma/2, so the README guarantee reads
    (1 - eps) * OPT <= value <= OPT."""
    fault = check_witness(items, witness, value)
    if fault:
        return fault
    opt = sum(items) // 2
    if value > opt:
        return f"value {value} exceeds OPT {opt}"
    if value < (1 - eps) * opt:
        return f"value {value} below (1-eps)*OPT = {float((1 - eps) * opt):.6g}"
    return None
