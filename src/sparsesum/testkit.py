"""Brute-force oracles, instance generators, and guarantee verifiers.

Everything here is deliberately naive and independent of the solver
code paths it is used to check. The property suites call these oracles
on thousands of small random instances and report the seeds of any
failures, so a red run is directly reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from collections import Counter
from fractions import Fraction

import numpy as np

from .core import (
    INFINITY,
    KnapsackInstance,
    PartitionInstance,
    SubsetSumInstance,
)
from .minconv import UNDEFINED, as_extseq

NAIVE_SUMSET_GUARD = 10**7


def naive_sumset(A, B, cap: int | float = INFINITY) -> list[int]:
    """Exact capped sumset (A+B) restricted to [0, cap], by enumerating
    all |A|*|B| pairs. Guarded to 10^7 pairs."""
    A, B = list(A), list(B)
    if len(A) * len(B) > NAIVE_SUMSET_GUARD:
        raise ValueError(f"naive sumset guarded to {NAIVE_SUMSET_GUARD} pairs")
    out = {a + b for a in A for b in B}
    return sorted(s for s in out if s <= cap)


def minconv_oracle(A, B, use_max: bool = False) -> list:
    """Double-loop tropical convolution oracle over (int | UNDEFINED).

    Kept as plain Python over an outer-sum matrix so it shares no code
    with the engines it checks.
    """
    ea, eb = as_extseq(A).entries, as_extseq(B).entries
    na, nb = len(ea), len(eb)
    out = []
    for k in range(na + nb - 1):
        best = UNDEFINED
        for i in range(max(0, k - nb + 1), min(na - 1, k) + 1):
            a, b = ea[i], eb[k - i]
            if a is UNDEFINED or b is UNDEFINED:
                continue
            s = a + b
            if best is UNDEFINED or (s > best if use_max else s < best):
                best = s
        out.append(best)
    return out


def minconv_oracle_fast(A, B, use_max: bool = False) -> list:
    """Vectorized variant of the double-loop oracle: row i of the
    outer-sum matrix A[i] + B[:] is laid out at offset i, so each output
    index k is a straight column reduction over all (i, j) pairs with
    i + j = k. Same logic as minconv_oracle, acceptable speed for the
    10k-case acceptance sweep."""
    av, ad = as_extseq(A).to_arrays()
    bv, bd = as_extseq(B).to_arrays()
    na, nb = av.size, bv.size
    nc = na + nb - 1
    fill = -np.inf if use_max else np.inf
    rows = np.full((na, nc), fill)
    sums = np.add.outer(av.astype(np.float64), bv.astype(np.float64))
    sums[~np.logical_and.outer(ad, bd)] = fill
    for i in range(na):
        rows[i, i : i + nb] = sums[i]
    col = rows.max(axis=0) if use_max else rows.min(axis=0)
    return [UNDEFINED if np.isinf(v) else int(v) for v in col]


def unfold_oracle(elems, n_intervals: int, delta: int) -> list:
    """Unfold a sorted set into 2*n_intervals entries: the minimum and
    the maximum of each closed interval [i*delta/2, (i+1)*delta/2] at
    positions 2i and 2i+1, UNDEFINED where the interval is empty.

    Each interval's smallest and largest integer are found by exact
    Python-int thresholds and bisect, interval by interval, so it
    shares no code with the sumset routines it checks."""
    elems = [int(e) for e in elems]
    entries: list = [UNDEFINED] * (2 * n_intervals)
    for i in range(n_intervals):
        lo = bisect_left(elems, (i * delta + 1) // 2)
        hi = bisect_right(elems, ((i + 1) * delta) // 2) - 1
        if lo <= hi:
            entries[2 * i] = elems[lo]
            entries[2 * i + 1] = elems[hi]
    return entries


def subset_sums_bitset(items, cap: int) -> int:
    """Reachability bitset of all subset sums <= cap, as a Python int
    with bit s set iff s is attainable."""
    cap = int(cap)
    mask = (1 << (cap + 1)) - 1
    reach = 1
    for x in items:
        x = int(x)
        if x <= cap:
            reach |= (reach << x) & mask
    return reach


def bruteforce_opt(items, cap: int) -> int:
    """Exact OPT = max subset sum <= cap, via the bitset oracle."""
    return subset_sums_bitset(items, cap).bit_length() - 1


# ---------------------------------------------------------------------------
# Instance generation


def gen_instance(
    kind: str,
    n: int,
    max_item: int,
    density: float = 0.5,
    seed: int = 0,
    style: str = "uniform",
):
    """Reproducible random instances.

    kind: "subsetsum" | "partition" | "knapsack".
    density: target (resp. budget/goal) as a fraction of the total sum.
    style:
      uniform    items uniform in [1, max_item]
      clustered  items near t/2^j boundaries, stressing the large/small
                 layer split of the subset-sum scheme
      two-scale  a few huge items plus many tiny ones, stressing the
                 singleton-part path of the partition scheme
    """
    if kind not in ("subsetsum", "partition", "knapsack"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 0 or max_item < 1 or density <= 0:
        raise ValueError("parameters must be positive")
    rng = np.random.default_rng(seed)

    if kind == "knapsack":
        weights = rng.integers(1, max_item + 1, size=n)
        values = rng.integers(1, max_item + 1, size=n)
        budget = max(1, round(density * int(weights.sum()))) if n else 1
        goal = max(1, round(density * int(values.sum()))) if n else 1
        return KnapsackInstance(
            weights=tuple(int(w) for w in weights),
            values=tuple(int(v) for v in values),
            budget=budget,
            goal=goal,
        )

    if style == "uniform":
        items = [int(x) for x in rng.integers(1, max_item + 1, size=n)]
    elif style == "clustered":
        # items hugging t/2^j thresholds (t estimated up front)
        t_est = max(4, round(density * n * (max_item + 1) / 2))
        levels = rng.integers(1, max(2, t_est.bit_length() - 1), size=n)
        jitter = rng.uniform(0.9, 1.1, size=n)
        items = [
            max(1, min(max_item, round(t_est / (1 << int(j)) * w)))
            for j, w in zip(levels, jitter)
        ]
    elif style == "two-scale":
        small_cap = max(1, max_item // 64)
        big = rng.integers(max(1, max_item // 2), max_item + 1, size=n)
        small = rng.integers(1, small_cap + 1, size=n)
        take_big = rng.random(n) < 0.25
        items = [int(b) if tb else int(s) for b, s, tb in zip(big, small, take_big)]
    else:
        raise ValueError(f"unknown style {style!r}")

    if kind == "partition":
        return PartitionInstance(items=tuple(items))
    sigma = sum(items)
    target = max(1, round(density * sigma)) if items else 1
    return SubsetSumInstance(items=tuple(items), target=target)


# ---------------------------------------------------------------------------
# Guarantee verification


@dataclass
class Clause:
    name: str
    passed: bool
    margin: float

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        return f"{self.name}: {mark} (margin {self.margin:g})"


@dataclass
class GuaranteeReport:
    passed: bool
    clauses: list

    def __str__(self):
        head = "PASS" if self.passed else "FAIL"
        return head + "\n  " + "\n  ".join(str(c) for c in self.clauses)


def verify_guarantee(inst, result, epsilon, oracle_opt: int) -> GuaranteeReport:
    """Check an ApproxResult against the brute-force optimum.

    Clauses: feasibility (value <= t), witness consistency (sums to the
    reported value, is a sub-multiset of the items), and the guarantee
    value >= min(OPT, (1-epsilon)*t). Margins are slack amounts; the
    guarantee boundary is inclusive.
    """
    if isinstance(inst, SubsetSumInstance):
        t = inst.target
    elif isinstance(inst, PartitionInstance):
        t = inst.sigma // 2
    else:
        raise TypeError("verify_guarantee expects a subsetsum or partition instance")
    eps = Fraction(epsilon)

    clauses = [Clause("value <= t", result.value <= t, float(t - result.value))]

    wsum = sum(result.witness)
    clauses.append(Clause("witness sums to value", wsum == result.value, float(result.value - wsum)))

    extra = Counter(result.witness) - Counter(inst.items)
    clauses.append(Clause("witness is a sub-multiset", not extra, -float(sum(extra.values()))))

    if isinstance(inst, PartitionInstance):
        # deterministic partition contract: (1-eps)*OPT <= value <= OPT
        threshold = (1 - eps) * oracle_opt
        ok = result.value >= threshold and result.value <= oracle_opt
        margin = float(min(Fraction(result.value) - threshold, oracle_opt - result.value))
        clauses.append(Clause("(1-eps)*OPT <= value <= OPT", ok, margin))
    else:
        threshold = min(Fraction(oracle_opt), (1 - eps) * t)
        ok = Fraction(result.value) >= threshold
        clauses.append(
            Clause("value >= min(OPT, (1-eps)*t)", ok, float(Fraction(result.value) - threshold))
        )

    return GuaranteeReport(passed=all(c.passed for c in clauses), clauses=clauses)
