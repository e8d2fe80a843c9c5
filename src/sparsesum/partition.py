"""Deterministic approximation scheme for Partition.

Partition is SubsetSum with target sigma/2 (sigma = total sum). The
scheme splits the items into at most L parts whose sums are balanced
(or singletons), computes a delta-sparse approximation of each part's
subset sums bottom-up with approximate sumsets ("bottom half"), rounds
everything down by R = delta/L, and combines the L rounded sets with
*exact* sumsets in a balanced tree ("top half"): numpy real FFTs padded
to 5-smooth lengths, whose total length SUMSET_BUDGET caps before any
transform runs. Rounding an L-fold sum loses at most L*R <= delta
additively, so the largest combined sum below sigma/2 is within 2*delta
of the optimum; the complement trick (swap Y for X \\ Y when Y
overshoots sigma/2) turns that into a two-sided guarantee without
randomness.

The additive budget is delta = max(1, floor(eps*sigma/8)). An
eps*sigma/4 budget would only give (1-2*eps)*OPT against the provable
OPT >= sigma/4 bound; halving it makes the delivered guarantee
(1-eps)*OPT <= sum(Y') <= OPT unconditional.

Both halves are balanced trees of recorded sumsets (approxset.SumNode),
built by the one function _balanced: a bottom-half leaf holds its item,
a top-half leaf the index of its part. reconstruct_partition descends
the top tree, takes at each leaf the first element of the part's set
that rounds to the leaf's value, and descends that part's bottom tree.

Everything here is deterministic: identical inputs give identical
outputs byte for byte.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .approxset import SumNode, descend, sparsify, unbounded_sumset
from .core import (INFINITY, InvariantError, PartitionInstance, SparseSet, _as_int64_array,
                   _check_int, _check_ints, _epsilon, _finish)
from .minconv import min_conv

SUMSET_BUDGET = 2**26  # max top-half sumset length: ~40 bytes per slot at its FFT
_NAIVE_PAIRS = 4096  # below this, exact pairwise beats the FFT


# ---------------------------------------------------------------------------
# Step 1: balanced greedy split


def greedy_partition_split(X, L: int) -> list[list[int]]:
    """Split X into at most L parts, each either a singleton or of sum
    at most 4*sigma/L.

    Items above 2*sigma/L become singletons; the rest are packed in
    input order, closing a part once its sum reaches 2*sigma/L (so a
    closed part's sum stays below 4*sigma/L, and at most L/2 parts of
    either kind arise, plus one trailing partial part).
    """
    X = _check_ints(X, "item")
    sigma = sum(X)
    L = int(L)
    if not (1 <= L <= max(1, sigma)):
        raise ValueError(f"need 1 <= L <= sigma, got L={L}, sigma={sigma}")
    parts = [[x] for x in X if L * x > 2 * sigma]
    cur: list[int] = []
    cur_sum = 0
    for x in X:
        if L * x > 2 * sigma:
            continue
        cur.append(x)
        cur_sum += x
        if L * cur_sum >= 2 * sigma:
            parts.append(cur)
            cur = []
            cur_sum = 0
    if cur:
        parts.append(cur)
    return parts


# ---------------------------------------------------------------------------
# Step 2: bottom half (sparse approximation of each part's subset sums)


def _balanced(level: list, combine) -> SumNode:
    """Balanced binary tree over the nodes in level: adjacent pairs are
    joined into SumNode(combine(left.result, right.result), left, right),
    level by level, an odd last node moving up unchanged."""
    while len(level) > 1:
        nxt = [
            SumNode(combine(a.result, b.result), a, b)
            for a, b in zip(level[0::2], level[1::2])
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def bottom_half(X_i, delta: int, engine=None) -> tuple[SparseSet, SumNode]:
    """Delta-sparse uncapped approximation of all subset sums of X_i,
    built as a balanced binary tree of approximate sumsets over the
    singleton sets {0, x}, whose leaves hold their item x. Deterministic;
    the output is a subset of S(X_i) and every subset sum has bracketing
    elements within delta."""
    engine = engine or min_conv
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    items = _check_ints(X_i, "item")
    if not items:
        empty = SparseSet(np.array([0], dtype=np.int64), delta=delta, cap=INFINITY)
        return empty, SumNode(empty)

    def combine(a: SparseSet, b: SparseSet) -> SparseSet:
        raw = unbounded_sumset(a, b, max(a.max(), b.max(), delta), delta, engine=engine)
        return sparsify(raw.elems, INFINITY, delta)

    leaves = [
        SumNode(
            SparseSet(np.unique(np.array([0, x], dtype=np.int64)), delta=delta, cap=INFINITY),
            leaf=x,
        )
        for x in items
    ]
    root = _balanced(leaves, combine)
    return root.result, root


# ---------------------------------------------------------------------------
# Step 3: weak rounding and the exact top-half sumset tree


def weak_round(Z, R: int) -> np.ndarray:
    """Elementwise floor-divide by R, deduplicated and sorted. An L-fold
    sum of rounded values, scaled back by R, sits within [s - L*R, s] of
    the original sum s."""
    R = _check_int(R, "R", low=1)
    arr = _as_int64_array(Z if isinstance(Z, np.ndarray) else list(Z))
    return np.unique(arr // R)


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: the lengths at which numpy's real
    FFT is fastest. Each odd part q gets the fewest doublings that reach n."""
    bits = n.bit_length()
    odd = (3**i * 5**j for i in range(bits) for j in range(bits))
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays by real FFTs,
    padded to a 5-smooth length."""
    n = a.size + b.size - 1
    m = _fast_len(n)
    fa = np.fft.rfft(a, m)
    fa *= np.fft.rfft(b, m)
    return np.fft.irfft(fa, m)[:n]


def _sumset_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sumset of two sorted non-negative integer arrays."""
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    if a.size * b.size <= _NAIVE_PAIRS:
        return np.unique(np.add.outer(a, b))
    top = int(a[-1]) + int(b[-1])
    ia = np.zeros(int(a[-1]) + 1)
    ia[a] = 1.0
    ib = np.zeros(int(b[-1]) + 1)
    ib[b] = 1.0
    conv = fftconvolve(ia, ib)
    # counts are integers; a residue near 0.5 would mean the transform
    # lost exactness, which the length budget is sized to prevent
    resid = np.abs(conv - np.round(conv)).max()
    if resid > 0.25:
        raise ArithmeticError(f"FFT sumset lost integrality (residue {resid:.3g})")
    out = np.flatnonzero(conv > 0.5).astype(np.int64)
    if out.size and int(out[-1]) > top:
        raise InvariantError(f"FFT sumset element {int(out[-1])} exceeds {top}")
    return out


def _exact_pair(a: SparseSet, b: SparseSet) -> SparseSet:
    return SparseSet(_sumset_pair(a.elems, b.elems), delta=0, cap=INFINITY)


def _sum_tree(sets: list[np.ndarray]) -> Optional[SumNode]:
    """Balanced tree of exact pairwise sumsets over the sorted arrays in
    sets; leaves hold their index into sets. Sets equal to {0} (identity
    elements) are skipped, and an empty set empties the sumset; None when
    nothing is left. The total length is checked against SUMSET_BUDGET
    before any sumset is built; no node can be longer."""
    leaves = [
        SumNode(SparseSet(z, delta=0, cap=INFINITY), leaf=i)
        for i, z in enumerate(sets)
        if not (z.size == 1 and z[0] == 0)
    ]
    if not leaves:
        return None
    length = sum(leaf.result.max() for leaf in leaves) + 1
    if length > SUMSET_BUDGET:
        raise MemoryError(
            f"exact sumset length {length} exceeds SUMSET_BUDGET = {SUMSET_BUDGET}"
        )
    return _balanced(leaves, _exact_pair)


def exact_sumset_tree(zsets) -> np.ndarray:
    """Exact sumset Z_1 + ... + Z_L of non-negative integer sets,
    computed pairwise in a balanced tree (FFT-backed above a small
    cutoff). Sets equal to {0} are identity elements and are skipped, an
    empty set gives the empty sumset; a negative or non-integer element
    raises ValidationError (a ValueError)."""
    tree = _sum_tree([np.unique(np.asarray(list(z))) for z in zsets])
    return np.array([0], dtype=np.int64) if tree is None else tree.result.elems


# ---------------------------------------------------------------------------
# The full scheme


@dataclass
class PartitionTrace:
    delta: int
    L: int
    R: int
    bottoms: list  # bottom-half tree (SumNode) per part; its result is the part's set
    tree: Optional[SumNode]  # top half over the rounded part sets
    final: np.ndarray  # S = R * (rounded sumset), sorted
    s_best: int  # largest s in S with s <= sigma//2


def _pick_L(eps: Fraction, sigma: int) -> int:
    # smallest integer L with L*L >= 1/eps, clamped to [1, min(1/eps, sigma)]
    inv = 1 / eps
    L = math.isqrt(inv.numerator // inv.denominator)
    while Fraction(L * L) < inv:
        L += 1
    hi = min(inv.numerator // inv.denominator, sigma)
    return max(1, min(L, max(1, hi)))


def approximate_partition(
    inst: PartitionInstance,
    epsilon,
    L: Optional[int] = None,
    engine=None,
    return_trace: bool = False,
):
    """Deterministic Partition scheme: returns Y' with
    (1-eps)*OPT <= sum(Y') <= OPT, where OPT is the largest subset sum
    not exceeding floor(sigma/2).

    L defaults to ceil(eps^-1/2), balancing the bottom-half convolution
    work against the top-half FFT length; any 1 <= L <= 1/eps gives the
    same guarantee.
    """
    eps = _epsilon(epsilon)
    L = None if L is None else _check_int(L, "L", low=1)
    start = time.perf_counter()
    engine = engine or min_conv
    items = list(inst.items)
    sigma = inst.sigma

    if not items:
        return _finish((), eps, 0, "exact-fallback", start, None, return_trace)

    big = max(items)
    if 2 * big > sigma:
        # the largest item cannot be in any feasible subset, so taking
        # everything else is exactly optimal
        rest = list(items)
        rest.remove(big)
        return _finish(rest, eps, 0, "exact-fallback", start, None, return_trace)

    half = sigma // 2
    dfrac = eps * sigma / 8
    delta = max(1, dfrac.numerator // dfrac.denominator)
    L_val = _pick_L(eps, sigma) if L is None else L
    if L_val > sigma:
        raise ValueError(f"L must be in [1, sigma], got {L_val}")
    R = max(1, delta // L_val)

    parts = greedy_partition_split(items, L_val)
    bottoms = [bottom_half(part, delta, engine=engine)[1] for part in parts]
    tree = _sum_tree([weak_round(b.result.elems, R) for b in bottoms])
    final = np.array([0], dtype=np.int64) if tree is None else R * tree.result.elems

    idx = int(np.searchsorted(final, half, side="right")) - 1
    s_best = int(final[idx])
    trace = PartitionTrace(
        delta=delta,
        L=L_val,
        R=R,
        bottoms=bottoms,
        tree=tree,
        final=final,
        s_best=s_best,
    )

    chosen = reconstruct_partition(trace, s_best)
    if sum(chosen) > half:
        # the complement: drop each witness item's first occurrence
        drop = Counter(chosen)
        chosen = []
        for x in items:
            if drop[x]:
                drop[x] -= 1
            else:
                chosen.append(x)
    return _finish(chosen, eps, delta, "approx", start, trace, return_trace)


# ---------------------------------------------------------------------------
# Step 4: retracing


def _bottom_leaf(node: SumNode, target: int) -> list:
    if target == 0:
        return []
    if target == node.leaf:
        return [node.leaf]
    raise ValueError(f"value {target} not producible at a bottom leaf")


def reconstruct_partition(trace: PartitionTrace, s: int) -> list:
    """Recover items summing close to s: exactly if R == 1, otherwise
    within [s, s + L*R]. s must be an element of the final set S."""
    s = int(s)
    idx = int(np.searchsorted(trace.final, s))
    if idx >= trace.final.size or int(trace.final[idx]) != s:
        raise ValueError(f"{s} is not in the final sumset")
    if trace.tree is None:
        return []
    if s % trace.R:
        raise InvariantError(f"{s} in the final sumset is not a multiple of R={trace.R}")
    R = trace.R

    def top_leaf(node: SumNode, rounded_val: int) -> list:
        # the first element of the part's set that rounds to rounded_val
        z_elems = trace.bottoms[node.leaf].result.elems
        i = int(np.searchsorted(z_elems, rounded_val * R, side="left"))
        if i < z_elems.size and int(z_elems[i]) // R == rounded_val:
            return descend(trace.bottoms[node.leaf], int(z_elems[i]), _bottom_leaf)
        raise ValueError(f"no element of part {node.leaf} rounds to {rounded_val}")

    return descend(trace.tree, s // R, top_leaf)
