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
8*ceil(t/delta) entries per operand, for every t below 2^63. The dense
engine and any other callable engine get the full grid, scattered from
the same per-element entries (the scaling benchmark measures the dense
engine's grid cost); above the int64 kernel range the engine, not the
unfold, switches to exact Python ints.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import sparsify_sweep
from .core import INFINITY, INT63_MAX, SparseSet
from .minconv import ConvEngine, ExtSeq, max_conv, min_conv


def _elems_array(A) -> np.ndarray:
    if isinstance(A, SparseSet):
        return A.elems
    if (
        isinstance(A, np.ndarray)
        and A.dtype == np.int64
        and A.ndim == 1
        and (A[1:] > A[:-1]).all()
    ):
        return A
    return np.unique(np.asarray(list(A), dtype=np.int64))


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
    return SparseSet(sparsify_sweep(elems, delta), delta=delta, cap=t)


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
    """The defined entries of a sparse set's unfold as (positions,
    values), without the grid. The unfold holds a minimum and a maximum
    per closed interval [i*delta/2, (i+1)*delta/2]: element a lies in
    interval i = floor(2a/delta), and also in i-1 when 2a == i*delta;
    interval i puts its minimum at position 2i and its maximum at 2i+1.
    With a = q*delta + r, i = 2q + [2r >= delta] and 2a == i*delta iff
    r == 0 or 2r == delta; neither test forms 2a or 2r, which can
    overflow int64. elems must be non-empty."""
    q, r = np.divmod(elems, delta)
    idx = 2 * q + (r >= delta - r)
    edge = ((r == 0) | (r == delta - r)) & (idx > 0)
    ids = np.concatenate([idx, idx[edge] - 1])
    vals = np.concatenate([elems, elems[edge]])
    order = np.lexsort((vals, ids))
    ids, vals = ids[order], vals[order]
    change = ids[1:] != ids[:-1]
    first = np.concatenate([[True], change])
    last = np.concatenate([change, [True]])
    pos = np.concatenate([2 * ids[first], 2 * ids[last] + 1])
    return pos, np.concatenate([vals[first], vals[last]])


def _grid(elems: np.ndarray, n_intervals: int, delta: int) -> ExtSeq:
    """The unfold of a sparse set as a sequence of 2*n_intervals
    entries: the per-interval minima at even and the maxima at odd
    positions, undefined where an interval holds no element."""
    values = np.zeros(2 * n_intervals, dtype=np.int64)
    defined = np.zeros(2 * n_intervals, dtype=np.bool_)
    if elems.size:
        pos, vals = _interval_entries(elems, delta)
        values[pos] = vals
        defined[pos] = True
    return ExtSeq.from_arrays(values, defined)


# Grid cells ceil(t/delta) up to which every position 2i+1 of an
# operand (i <= 2t/delta) and every sum of two positions fits in int64.
_MAX_CELLS = 2**59
_UNDEFINED_LO = np.iinfo(np.uint64).max


def _pairs_sumset(e1: np.ndarray, e2: np.ndarray, t: int, delta: int) -> np.ndarray:
    """Elements of the default engine's unfold + (min,+)/(max,+) sumset,
    computed over the defined pairs only: the minimum and the maximum of
    the pair sums at each output position. The sums are uint64: elements
    of sets in [0, t] with t < 2^63 add up to less than 2^64 - 1."""
    if e1.size == 0 or e2.size == 0:
        return np.empty(0, dtype=np.uint64)
    n_cells = (t + delta - 1) // delta
    if n_cells > _MAX_CELLS:
        raise OverflowError(
            f"t/delta = {t}/{delta} is too large: the sumset positions must fit in int64"
        )
    p1, v1 = _interval_entries(e1, delta)
    p2, v2 = _interval_entries(e2, delta)
    pos = np.add.outer(p1, p2).ravel()
    val = np.add.outer(v1.astype(np.uint64), v2.astype(np.uint64)).ravel()
    nc = 16 * n_cells - 1  # the grid path's output length
    if pos.size >= nc:
        lo = np.full(nc, _UNDEFINED_LO, dtype=np.uint64)
        hi = np.zeros(nc, dtype=np.uint64)
        np.minimum.at(lo, pos, val)
        np.maximum.at(hi, pos, val)
        defined = lo != _UNDEFINED_LO
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
    need sparsity sparsify; see capped_sumset). With the default engine,
    sums above 2^63 - 1 are left out: they exceed every target a
    SparseSet can cap at.
    """
    engine = engine or min_conv
    t, delta = int(t), int(delta)
    _check_sumset_args(A1, A2, t, delta)
    if isinstance(engine, ConvEngine) and not engine.dense:
        sums = _pairs_sumset(A1.elems, A2.elems, t, delta)
        elems = sums[: int(np.searchsorted(sums, INT63_MAX, side="right"))].astype(np.int64)
    else:
        n_intervals = 4 * ((t + delta - 1) // delta)
        X1 = _grid(A1.elems, n_intervals, delta)
        X2 = _grid(A2.elems, n_intervals, delta)
        lo_v, lo_d = engine(X1, X2).to_arrays()
        hi_v, hi_d = max_conv(X1, X2, engine).to_arrays()
        elems = np.unique(np.concatenate([lo_v[lo_d], hi_v[hi_d]]))
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
