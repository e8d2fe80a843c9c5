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

Everything here is deterministic: identical inputs give identical
outputs byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .approxset import first_split, sparsify, unbounded_sumset
from .core import INFINITY, ApproxResult, InvariantError, PartitionInstance, SparseSet
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
    X = [int(x) for x in X]
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


@dataclass
class BottomNode:
    result: SparseSet
    left: Optional["BottomNode"] = None
    right: Optional["BottomNode"] = None
    item: Optional[int] = None  # set on leaves: result = {0, item}


def bottom_half(X_i, delta: int, engine=None) -> tuple[SparseSet, BottomNode]:
    """Delta-sparse uncapped approximation of all subset sums of X_i,
    built as a balanced binary tree of approximate sumsets over the
    singleton sets {0, x}. Deterministic; the output is a subset of
    S(X_i) and every subset sum has bracketing elements within delta."""
    engine = engine or min_conv
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    items = [int(x) for x in X_i]
    if not items:
        empty = SparseSet(np.array([0], dtype=np.int64), delta=delta, cap=INFINITY)
        return empty, BottomNode(result=empty)
    level = [
        BottomNode(
            result=SparseSet(
                np.unique(np.array([0, x], dtype=np.int64)), delta=delta, cap=INFINITY
            ),
            item=x,
        )
        for x in items
    ]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            t_eff = max(a.result.max(), b.result.max(), delta)
            raw = unbounded_sumset(a.result, b.result, t_eff, delta, engine=engine)
            merged = sparsify(raw.elems, INFINITY, delta)
            nxt.append(BottomNode(result=merged, left=a, right=b))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0].result, level[0]


# ---------------------------------------------------------------------------
# Step 3: weak rounding and the exact top-half sumset tree


def weak_round(Z, R: int) -> np.ndarray:
    """Elementwise floor-divide by R, deduplicated and sorted. An L-fold
    sum of rounded values, scaled back by R, sits within [s - L*R, s] of
    the original sum s."""
    R = int(R)
    if R < 1:
        raise ValueError("R must be >= 1")
    arr = np.asarray(list(Z) if not isinstance(Z, np.ndarray) else Z, dtype=np.int64)
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


@dataclass
class SumTreeNode:
    values: np.ndarray
    left: Optional["SumTreeNode"] = None
    right: Optional["SumTreeNode"] = None
    part_index: Optional[int] = None  # set on leaves: index into the input sets


def _sum_tree(sets: list[np.ndarray]) -> Optional[SumTreeNode]:
    """Balanced tree of exact pairwise sumsets over the sorted arrays in
    sets; leaves keep their index into sets. Sets equal to {0} (identity
    elements) and empty sets are skipped; None when nothing is left. The
    total length is checked against SUMSET_BUDGET before any sumset is
    built; no node can be longer."""
    leaves = [
        SumTreeNode(values=z, part_index=i)
        for i, z in enumerate(sets)
        if z.size and not (z.size == 1 and z[0] == 0)
    ]
    if not leaves:
        return None
    length = sum(int(leaf.values[-1]) for leaf in leaves) + 1
    if length > SUMSET_BUDGET:
        raise MemoryError(
            f"exact sumset length {length} exceeds SUMSET_BUDGET = {SUMSET_BUDGET}"
        )
    level = leaves
    while len(level) > 1:
        nxt = [
            SumTreeNode(values=_sumset_pair(a.values, b.values), left=a, right=b)
            for a, b in zip(level[0::2], level[1::2])
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def exact_sumset_tree(zsets) -> np.ndarray:
    """Exact sumset Z_1 + ... + Z_L of non-negative integer sets,
    computed pairwise in a balanced tree (FFT-backed above a small
    cutoff). Sets equal to {0} are identity elements and are skipped."""
    arrays = [np.unique(np.asarray(list(z), dtype=np.int64)) for z in zsets]
    if any(arr.size and arr[0] < 0 for arr in arrays):
        raise ValueError("sumset elements must be non-negative")
    tree = _sum_tree(arrays)
    return np.array([0], dtype=np.int64) if tree is None else tree.values


# ---------------------------------------------------------------------------
# The full scheme


@dataclass
class PartitionTrace:
    sigma: int
    delta: int
    L: int
    R: int
    parts: list
    bottoms: list  # BottomNode per part
    zsets: list  # SparseSet per part
    rounded: list  # np.ndarray per part
    tree: Optional[SumTreeNode]
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
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    engine = engine or min_conv
    items = list(inst.items)
    sigma = inst.sigma
    start = time.perf_counter()

    if not items:
        result = ApproxResult(
            value=0, witness=(), epsilon=float(eps), delta=0, mode="exact-fallback"
        )
        return (result, None) if return_trace else result

    big = max(items)
    if 2 * big > sigma:
        # the largest item cannot be in any feasible subset, so taking
        # everything else is exactly optimal
        rest = list(items)
        rest.remove(big)
        elapsed = (time.perf_counter() - start) * 1e3
        result = ApproxResult(
            value=sigma - big,
            witness=tuple(rest),
            epsilon=float(eps),
            delta=0,
            mode="exact-fallback",
            elapsed_ms=elapsed,
        )
        return (result, None) if return_trace else result

    half = sigma // 2
    dfrac = eps * sigma / 8
    delta = max(1, dfrac.numerator // dfrac.denominator)
    L_val = _pick_L(eps, sigma) if L is None else int(L)
    if not (1 <= L_val <= sigma):
        raise ValueError(f"L must be in [1, sigma], got {L_val}")
    R = max(1, delta // L_val)

    parts = greedy_partition_split(items, L_val)
    bottoms: list[BottomNode] = []
    zsets: list[SparseSet] = []
    for part in parts:
        z, node = bottom_half(part, delta, engine=engine)
        bottoms.append(node)
        zsets.append(z)

    rounded = [weak_round(z.elems, R) for z in zsets]
    tree = _sum_tree(rounded)
    final = np.array([0], dtype=np.int64) if tree is None else R * tree.values

    idx = int(np.searchsorted(final, half, side="right")) - 1
    s_best = int(final[idx])
    trace = PartitionTrace(
        sigma=sigma,
        delta=delta,
        L=L_val,
        R=R,
        parts=parts,
        bottoms=bottoms,
        zsets=zsets,
        rounded=rounded,
        tree=tree,
        final=final,
        s_best=s_best,
    )

    witness = reconstruct_partition(trace, s_best)
    if sum(witness) <= half:
        chosen = witness
    else:
        remaining = list(items)
        for w in witness:
            remaining.remove(w)
        chosen = remaining
    elapsed = (time.perf_counter() - start) * 1e3
    result = ApproxResult(
        value=sum(chosen),
        witness=tuple(chosen),
        epsilon=float(eps),
        delta=delta,
        mode="approx",
        elapsed_ms=elapsed,
    )
    return (result, trace) if return_trace else result


# ---------------------------------------------------------------------------
# Step 4: retracing


def _descend_bottom(node: BottomNode, target: int) -> list:
    if node.left is None:
        if target == 0:
            return []
        if node.item is not None and target == node.item:
            return [node.item]
        raise ValueError(f"value {target} not producible at a bottom leaf")
    a = first_split(target, node.left.result.elems, node.right.result.elems)
    if a is None:
        raise ValueError(f"value {target} not decomposable in the bottom tree")
    return _descend_bottom(node.left, a) + _descend_bottom(node.right, target - a)


def _descend_sum_tree(trace: PartitionTrace, node: SumTreeNode, rounded_val: int) -> list:
    if node.part_index is not None:
        pi = node.part_index
        z_elems = trace.zsets[pi].elems
        lo = int(np.searchsorted(z_elems, rounded_val * trace.R, side="left"))
        for z in z_elems[lo:]:
            z = int(z)
            if z // trace.R != rounded_val:
                break
            return _descend_bottom(trace.bottoms[pi], z)
        raise ValueError(f"no element of part {pi} rounds to {rounded_val}")
    a = first_split(rounded_val, node.left.values, node.right.values)
    if a is None:
        raise ValueError(f"rounded value {rounded_val} not decomposable in the sum tree")
    return _descend_sum_tree(trace, node.left, a) + _descend_sum_tree(
        trace, node.right, rounded_val - a
    )


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
    return _descend_sum_tree(trace, trace.tree, s // trace.R)
