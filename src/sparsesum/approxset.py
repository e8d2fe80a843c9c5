"""The (t, delta)-approximation algebra over subset-sum sets.

A set A (t,delta)-approximates B when A is a subset of B, B lives in
[0, t], and every b in B is bracketed by elements of A ∪ {t+1} at
distance at most delta:

    apx_lower(b) = max{a in A ∪ {t+1} : a <= b}
    apx_upper(b) = min{a in A ∪ {t+1} : a >= b}
    apx_upper(b) - apx_lower(b) <= delta

The t+1 relaxation at the top end is what keeps approximation cheaper
than exact solving: a set is allowed to "give up" near t. delta-sparse
means at most two elements in any window [x, x+delta]; sparsification
keeps a subset of that size that still approximates the input.

Approximate sumsets connect this algebra to tropical convolution: a
delta-sparse set unfolds into a sequence of per-interval minima and
maxima (intervals of width delta/2), one (min,+) and one (max,+)
convolution produce entries that bracket every pairwise sum within
delta, and the defined entries form the approximate sumset. Capping and
re-sparsifying gives the capped variant used by the solvers.

With the default engine the sequences are never laid out: each set has
at most two defined entries per element, read straight off its sorted
elements, so a sumset costs O(|A|*|B|) pairs instead of a grid of
8*ceil(t/delta) entries per operand. The dense engine, any other
callable engine, and t above the int64 kernel range still unfold the
full grid (the scaling benchmark measures the dense engine's grid cost).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from ._kernels import VAL_LIMIT, sparsify_sweep
from .core import INFINITY, SparseSet
from .minconv import ConvEngine, ExtSeq, UNDEFINED, max_conv, min_conv


def _elems_array(A) -> np.ndarray:
    if isinstance(A, SparseSet):
        return A.elems
    return np.unique(np.asarray(list(A), dtype=np.int64))


def _fits_fast(*values) -> bool:
    return all(v is not INFINITY and abs(int(v)) <= VAL_LIMIT for v in values)


def zero_set(delta: int, cap: int | float) -> SparseSet:
    return SparseSet(np.array([0], dtype=np.int64), delta=delta, cap=cap)


def apx_bounds(b: int, A, t: int | float) -> tuple:
    """Lower and upper approximations of b in A ∪ {t+1}.

    Returns (lower, upper); lower is -inf when nothing in A ∪ {t+1} is
    <= b. With t = INFINITY there is no t+1 element, so upper can be
    +inf.
    """
    elems = _elems_array(A)
    b = int(b)
    lo: int | float = -math.inf
    hi: int | float = math.inf
    i = int(np.searchsorted(elems, b, side="right")) - 1
    if i >= 0:
        lo = int(elems[i])
    j = int(np.searchsorted(elems, b, side="left"))
    if j < elems.size:
        hi = int(elems[j])
    if t is not INFINITY:
        top = int(t) + 1
        if top <= b:
            lo = max(lo, top)
        if top >= b:
            hi = min(hi, top)
    return lo, hi


def is_approximation(A, B, t: int | float, delta: int) -> bool:
    """Checker for "A (t,delta)-approximates B"."""
    a = _elems_array(A)
    b = _elems_array(B)
    if b.size == 0:
        return a.size == 0
    if b[0] < 0:
        return False
    if t is not INFINITY and int(b[-1]) > int(t):
        return False
    # A subseteq B
    if a.size:
        pos = np.searchsorted(b, a)
        if pos[-1] >= b.size or not (b[np.minimum(pos, b.size - 1)] == a).all():
            return False
    # bracket every b within delta
    low_idx = np.searchsorted(a, b, side="right") - 1
    has_low = low_idx >= 0
    if not has_low.all():
        return False
    low = a[np.maximum(low_idx, 0)]
    up_idx = np.searchsorted(a, b, side="left")
    has_up = up_idx < a.size
    up = np.where(has_up, a[np.minimum(up_idx, a.size - 1)], 0)
    delta = int(delta)
    if t is INFINITY:
        if not has_up.all():
            return False
        return bool((up - low <= delta).all())
    # where no element of A is >= b the upper approximation is t+1;
    # compare t - low <= delta - 1 to avoid materializing t+1
    ok_up = up - low <= delta
    ok_top = (np.int64(int(t)) - low) <= delta - 1
    return bool(np.where(has_up, ok_up, ok_top).all())


def sparsify(B, t: int | float, delta: int) -> SparseSet:
    """Sparsification sweep: returns a delta-sparse subset of B that
    (t,delta)-approximates B, in one left-to-right pass (keep the new
    element; if the last three kept fit in a delta-window, drop the
    middle one)."""
    elems = _elems_array(B)
    if elems.size and elems[0] < 0:
        raise ValueError("sparsify expects non-negative elements")
    if t is not INFINITY and elems.size and int(elems[-1]) > int(t):
        raise ValueError(f"element {int(elems[-1])} exceeds the universe bound {t}")
    delta = int(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if elems.size and int(elems[-1]) <= VAL_LIMIT:
        kept = sparsify_sweep(elems, delta)
    else:
        out: list[int] = []
        for v in (int(x) for x in elems):
            out.append(v)
            if len(out) >= 3 and out[-1] - out[-3] <= delta:
                del out[-2]
        kept = np.asarray(out, dtype=np.int64) if out else np.empty(0, np.int64)
    return SparseSet(kept, delta=delta, cap=t)


def shift_down(A: SparseSet, t_new: int) -> SparseSet:
    """Restrict to [0, t_new] and lower the cap; approximation of the
    correspondingly restricted base set is preserved."""
    t_new = int(t_new)
    if A.cap is not INFINITY and t_new > A.cap:
        raise ValueError(f"shift_down target {t_new} above current cap {A.cap}")
    cut = int(np.searchsorted(A.elems, t_new, side="right"))
    return SparseSet(A.elems[:cut], delta=A.delta, cap=t_new)


def merge_union(A1: SparseSet, A2: SparseSet, t: int | float, delta: int) -> SparseSet:
    """Sorted union, then sparsify: approximates B1 ∪ B2 whenever the
    inputs approximate B1 and B2."""
    merged = np.union1d(A1.elems, A2.elems)
    return sparsify(merged, t, delta)


def _unfold(elems: np.ndarray, n_intervals: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Unfold a sparse set into 2*n_intervals per-interval (min, max)
    entries over the closed intervals [i*delta/2, (i+1)*delta/2].

    A boundary element (2a == i*delta) belongs to both adjacent
    intervals; realized with exact integer threshold comparisons, so an
    odd delta introduces no rounding drift.
    """
    i_arr = np.arange(n_intervals, dtype=np.int64)
    lo_thr = (i_arr * delta + 1) // 2  # smallest integer in I_i
    hi_thr = ((i_arr + 1) * delta) // 2  # largest integer in I_i
    lo_idx = np.searchsorted(elems, lo_thr, side="left")
    hi_idx = np.searchsorted(elems, hi_thr, side="right") - 1
    defined = lo_idx <= hi_idx
    values = np.zeros(2 * n_intervals, dtype=np.int64)
    mask = np.zeros(2 * n_intervals, dtype=np.bool_)
    safe_lo = np.minimum(lo_idx, max(elems.size - 1, 0))
    safe_hi = np.maximum(hi_idx, 0)
    if elems.size:
        values[0::2] = np.where(defined, elems[safe_lo], 0)
        values[1::2] = np.where(defined, elems[safe_hi], 0)
    mask[0::2] = defined
    mask[1::2] = defined
    return values, mask


def _unfold_py(elems: list[int], n_intervals: int, delta: int) -> list:
    entries: list = [UNDEFINED] * (2 * n_intervals)
    for i in range(n_intervals):
        lo_thr = (i * delta + 1) // 2
        hi_thr = ((i + 1) * delta) // 2
        lo = bisect_left(elems, lo_thr)
        hi = bisect_right(elems, hi_thr) - 1
        if lo <= hi:
            entries[2 * i] = elems[lo]
            entries[2 * i + 1] = elems[hi]
    return entries


def first_split(target: int, left: np.ndarray, right: np.ndarray) -> int | None:
    """Smallest a in `left` with target - a in `right` (both sorted
    int64 arrays), found with one vectorized lookup; None if there is
    no such a."""
    cand = left[: int(np.searchsorted(left, target, side="right"))]
    if cand.size == 0 or right.size == 0:
        return None
    rest = target - cand
    j = np.minimum(np.searchsorted(right, rest), right.size - 1)
    hits = np.flatnonzero(right[j] == rest)
    return int(cand[hits[0]]) if hits.size else None


def _interval_entries(elems: np.ndarray, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """The defined entries of _unfold(elems, ., delta) as (positions,
    values), without the grid: element a lies in interval
    i = floor(2a/delta), and also in i-1 when 2a == i*delta; interval i
    puts its minimum at position 2i and its maximum at 2i+1."""
    idx = (2 * elems) // delta
    edge = ((2 * elems) % delta == 0) & (idx > 0)
    ids = np.concatenate([idx, idx[edge] - 1])
    vals = np.concatenate([elems, elems[edge]])
    order = np.lexsort((vals, ids))
    ids, vals = ids[order], vals[order]
    change = ids[1:] != ids[:-1]
    first = np.concatenate([[True], change])
    last = np.concatenate([change, [True]])
    pos = np.concatenate([2 * ids[first], 2 * ids[last] + 1])
    return pos, np.concatenate([vals[first], vals[last]])


def _pairs_sumset(e1: np.ndarray, e2: np.ndarray, t: int, delta: int) -> np.ndarray:
    """Elements of the default engine's unfold + (min,+)/(max,+) sumset,
    computed over the defined pairs only: the minimum and the maximum of
    the pair sums at each output position."""
    if e1.size == 0 or e2.size == 0:
        return np.empty(0, dtype=np.int64)
    p1, v1 = _interval_entries(e1, delta)
    p2, v2 = _interval_entries(e2, delta)
    pos = np.add.outer(p1, p2).ravel()
    val = np.add.outer(v1, v2).ravel()
    nc = 16 * ((t + delta - 1) // delta) - 1  # the grid path's output length
    if pos.size >= nc:
        lo = np.full(nc, np.iinfo(np.int64).max)
        hi = np.full(nc, -1, dtype=np.int64)
        np.minimum.at(lo, pos, val)
        np.maximum.at(hi, pos, val)
        defined = hi >= 0
        lo, hi = lo[defined], hi[defined]
    else:
        order = np.argsort(pos)
        pos, val = pos[order], val[order]
        starts = np.flatnonzero(np.concatenate([[True], pos[1:] != pos[:-1]]))
        lo = np.minimum.reduceat(val, starts)
        hi = np.maximum.reduceat(val, starts)
    return np.unique(np.concatenate([lo, hi]))


def _check_sumset_args(A1: SparseSet, A2: SparseSet, t: int, delta: int) -> None:
    if delta < 1:
        raise ValueError("delta must be >= 1 (exact DP handles delta = 0)")
    if t < delta:
        raise ValueError(f"need t >= delta, got t={t}, delta={delta}")
    for A in (A1, A2):
        if A.max() > t:
            raise ValueError(f"input element {A.max()} exceeds t={t}")


def unbounded_sumset(
    A1: SparseSet, A2: SparseSet, t: int, delta: int, engine=None
) -> SparseSet:
    """Approximate sumset with no cap: a subset of A1+A2 in which every
    pairwise sum a1+a2 has bracketing elements within delta.

    Requires t >= delta >= 1 and delta-sparse inputs within [0, t]. The
    result is in general only sparse after sparsification (callers that
    need sparsity sparsify; see capped_sumset).
    """
    engine = engine or min_conv
    t, delta = int(t), int(delta)
    _check_sumset_args(A1, A2, t, delta)
    n_intervals = 4 * ((t + delta - 1) // delta)

    fast = _fits_fast(t, delta) and isinstance(engine, ConvEngine)
    if fast and not engine.dense:
        elems = _pairs_sumset(A1.elems, A2.elems, t, delta)
    elif fast:
        x1v, x1d = _unfold(A1.elems, n_intervals, delta)
        x2v, x2d = _unfold(A2.elems, n_intervals, delta)
        lo_v, lo_d = engine.conv_masked(x1v, x1d, x2v, x2d)
        hi_neg, hi_d = engine.conv_masked(-x1v, x1d, -x2v, x2d)
        collected = np.concatenate([lo_v[lo_d], -hi_neg[hi_d]])
        elems = np.unique(collected)
    else:
        X1 = ExtSeq(_unfold_py(A1.to_list(), n_intervals, delta))
        X2 = ExtSeq(_unfold_py(A2.to_list(), n_intervals, delta))
        lo = engine(X1, X2)
        hi = max_conv(X1, X2, engine)
        vals = {e for e in lo.entries if e is not UNDEFINED}
        vals |= {e for e in hi.entries if e is not UNDEFINED}
        elems = np.asarray(sorted(vals), dtype=np.int64) if vals else np.empty(0, np.int64)
    return SparseSet(elems, delta=delta, cap=INFINITY)


def capped_sumset(
    A1: SparseSet, A2: SparseSet, t: int, delta: int, engine=None
) -> SparseSet:
    """Sparse (t,delta)-approximation of the capped sumset: unbounded
    sumset, shift down to [0, t], sparsify. If A_i (t,delta)-approximates
    B_i, the output sparsely (t,delta)-approximates (B1+B2) ∩ [0,t].

    A {0} operand makes the sumset the other operand, re-sparsified; the
    engine is not called then."""
    t, delta = int(t), int(delta)
    _check_sumset_args(A1, A2, t, delta)
    for A, other in ((A1, A2), (A2, A1)):
        if len(A) == 1 and A.max() == 0:
            return sparsify(other.elems, t, delta)
    unbounded = unbounded_sumset(A1, A2, t, delta, engine=engine)
    capped = shift_down(unbounded, t)
    return sparsify(capped.elems, t, delta)
