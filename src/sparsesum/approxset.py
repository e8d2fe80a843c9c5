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
4*ceil(t/delta) + 2 entries per operand, for every t below 2^63. The dense
engine and any other callable engine get the full grid, scattered from
the same per-element entries (the scaling benchmark measures the dense
engine's grid cost); above the int64 kernel range the engine, not the
unfold, switches to exact Python ints.

capped_sumsets runs many capped sumsets at once, as the color-coding
fold needs one per round at every step. With the default engine the
operand pairs are the segments of one pairs sumset keyed by (segment,
position), and one jump-chain sparsification (_kernels.sparsify_chain)
replaces a sweep per pair; _BATCH_PAIRS bounds the pairs one batch
materializes. The result is element for element that of one
capped_sumset per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ._kernels import sparsify_chain, sparsify_sweep
from .core import INFINITY, INT63_MAX, SparseSet, _as_int64_array
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
    return np.unique(_as_int64_array(list(A)))


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
    middle one). The sweep keeps the first and the last element, so the
    returned SparseSet rejects a negative element, an element above t and
    a negative delta with ValidationError (a ValueError)."""
    delta = int(delta)
    return SparseSet._trusted(sparsify_sweep(_elems_array(B), delta), delta, t)


def shift_down(A: SparseSet, t_new: int) -> SparseSet:
    """Restrict to [0, t_new] and lower the cap; approximation of the
    correspondingly restricted base set is preserved."""
    t_new = int(t_new)
    if A.cap is not INFINITY and t_new > A.cap:
        raise ValueError(f"shift_down target {t_new} above current cap {A.cap}")
    cut = int(np.searchsorted(A.elems, t_new, side="right"))
    return SparseSet._trusted(A.elems[:cut], A.delta, t_new)


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


@dataclass
class SumNode:
    """A node of a recorded-sumset tree: an inner node's result is
    contained in its children's results' sumset; a node without
    children carries whatever its tree's `leaf` payload is."""

    result: SparseSet
    left: Any = None
    right: Any = None
    leaf: Any = None


def descend(node, target: int, at_leaf: Callable[[Any, int], list]) -> list:
    """Certify target down a recorded-sumset tree: at an inner node,
    split it as a + (target - a) with a the smallest element of the left
    result that admits a split; at a node without children (a SumNode
    leaf or any other trace object) return at_leaf(node, target).
    Witnesses are concatenated left to right."""
    if getattr(node, "left", None) is None:
        return at_leaf(node, target)
    a = first_split(target, node.left.result.elems, node.right.result.elems)
    if a is None:
        raise ValueError(f"value {target} is not decomposable; trace corrupted")
    return descend(node.left, a, at_leaf) + descend(node.right, target - a, at_leaf)


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Mask of the indices where a run of equal rows of the columns
    starts: 0 and every index at which some column changes."""
    new = np.zeros(cols[0].size, dtype=np.bool_)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def _interval_entries(elems: np.ndarray, delta: int, base=0) -> tuple[np.ndarray, np.ndarray]:
    """The defined entries of a sparse set's unfold as (keys, values),
    without the grid, with key = base + position; base (a number, or
    one per element) offsets the sets of a segmented call, and elems
    must be sorted within each set. The unfold holds a minimum and a
    maximum per closed interval [i*delta/2, (i+1)*delta/2]: element a
    lies in interval i = floor(2a/delta), and also in i-1 when
    2a == i*delta; interval i puts its minimum at position 2i and its
    maximum at 2i+1. With a = q*delta + r, i = 2q + [2r >= delta] and
    2a == i*delta iff r == 0 or 2r == delta; neither test forms 2a or
    2r, which can overflow int64. Such an edge element is emitted as the
    maximum of i-1 right before the minimum of i, which keeps the
    entries sorted by key without a sort. elems must be non-empty."""
    q, r = np.divmod(elems, delta)
    low = base + 4 * q + 2 * (r >= delta - r)  # the key of the element's interval minimum
    edge = ((r == 0) | (r == delta - r)) & (low > base)
    if edge.any():
        copies = edge + 1
        low = np.repeat(low, copies)
        low[np.cumsum(copies)[edge] - 2] -= 2
        elems = np.repeat(elems, copies)
    # the first element of an interval gives its minimum, the last its maximum
    first = _run_starts(low)
    ends = first + np.append(first[1:], True).astype(np.int64)
    keys = np.repeat(low, ends)
    keys[1::2] += 1
    return keys, np.repeat(elems, ends)


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


def _distinct(seg: np.ndarray, val: np.ndarray, n_seg: int, width: int):
    """The distinct pairs (seg, val), sorted, as (segments, values), for
    0 <= seg < n_seg and 0 <= val < width: one np.unique of
    seg*width + val while that key fits in int64, a lexsort otherwise."""
    if n_seg * width <= INT63_MAX + 1:
        return np.divmod(np.unique(seg * width + val), width)
    order = np.lexsort((val, seg))
    seg, val = seg[order], val[order]
    new = _run_starts(seg, val)
    return seg[new], val[new]


def _pairs_sumset(
    e1: np.ndarray, e2: np.ndarray, t: int, delta: int, cap: int = INT63_MAX,
    s1: np.ndarray | None = None, s2: np.ndarray | None = None, n_seg: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The default engine's unfold + (min,+)/(max,+) sumset of the sets
    e1 and e2 of every segment, computed over each segment's defined
    pairs only: the minimum and the maximum of the pair sums at each
    (segment, output position). s1 and s2 are the non-decreasing segment
    ids (below n_seg) of the elements, None for one segment. Returns
    (segments, elements) of the sums up to cap, sorted by segment and
    then by element. The sums are uint64 until the cut: elements of sets
    in [0, t] with t < 2^63 add up to less than 2^64 - 1. A pair's
    segment and position form one int64 key, so n_seg may be at most
    2^63 / (16*ceil(t/delta) - 1)."""
    if e1.size == 0 or e2.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    n_cells = (t + delta - 1) // delta
    if n_cells > _MAX_CELLS:
        raise OverflowError(
            f"t/delta = {t}/{delta} is too large: the sumset positions must fit in int64"
        )
    width = 16 * n_cells - 1  # exceeds every pair position; also the scatter/sort cutoff
    if n_seg * width > INT63_MAX + 1:
        raise ValueError(f"{n_seg} segments of {width} positions overflow an int64 key")
    k1, v1 = _interval_entries(e1, delta, 0 if s1 is None else s1 * width)
    k2, v2 = _interval_entries(e2, delta, 0 if s2 is None else s2 * width)
    v1, v2 = v1.astype(np.uint64), v2.astype(np.uint64)
    if n_seg == 1:
        key = np.add.outer(k1, k2).ravel()
        val = np.add.outer(v1, v2).ravel()
    else:
        # entry i of e1 pairs with the c2[g1[i]] entries of e2 in its
        # segment g1[i]; their keys add e1's segment offset once
        g1 = k1 // width
        c2 = np.bincount(k2 // width, minlength=n_seg)
        reps = c2[g1]
        j = np.arange(int(reps.sum()))
        j -= np.repeat(np.cumsum(reps) - reps - (np.cumsum(c2) - c2)[g1], reps)
        key = np.repeat(k1, reps)
        key += (k2 % width)[j]
        val = np.repeat(v1, reps)
        val += v2[j]
        del j
    # temporaries are dropped as soon as they are used: they are the
    # call's memory, some tens of bytes per pair
    if key.size >= n_seg * width:
        lo = np.full(int(key.max()) + 1, _UNDEFINED_LO, dtype=np.uint64)
        hi = np.zeros(lo.size, dtype=np.uint64)
        np.minimum.at(lo, key, val)
        np.maximum.at(hi, key, val)
        cells = np.flatnonzero(lo != _UNDEFINED_LO)
        lo, hi = lo[cells], hi[cells]
    else:
        order = np.argsort(key)
        key = key[order]
        val = val[order]
        del order
        starts = np.flatnonzero(_run_starts(key))
        cells = key[starts]
        lo = np.minimum.reduceat(val, starts)
        hi = np.maximum.reduceat(val, starts)
    del key, val
    val = np.concatenate([lo, hi])
    del lo, hi
    keep = val <= np.uint64(cap)
    val = val[keep].view(np.int64)
    if n_seg == 1:
        val = np.unique(val)
        return np.zeros(val.size, dtype=np.int64), val
    return _distinct((np.concatenate([cells, cells]) // width)[keep], val, n_seg, cap + 1)


def _is_pairs_engine(engine) -> bool:
    return isinstance(engine, ConvEngine) and not engine.dense


def _is_zero(A: SparseSet) -> bool:
    return len(A) == 1 and A.max() == 0


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
    if _is_pairs_engine(engine):
        _, elems = _pairs_sumset(A1.elems, A2.elems, t, delta)
        return SparseSet._trusted(elems, delta, INFINITY)
    # every element is at most t, so its interval is at most 2*ceil(t/delta)
    n_intervals = 2 * ((t + delta - 1) // delta) + 1
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
        if _is_zero(A):
            return sparsify(other.elems, t, delta)
    unbounded = unbounded_sumset(A1, A2, t, delta, engine=engine)
    capped = shift_down(unbounded, t)
    return sparsify(capped.elems, t, delta)


# The most (segment, position) pairs one batched call of capped_sumsets
# materializes, counted as 4*|A1|*|A2| per operand pair (an element
# gives at most two unfold entries). The call's temporaries take some
# tens of bytes per pair; an operand pair above the budget runs alone.
_BATCH_PAIRS = 2**14


def capped_sumsets(A1s: list, A2s: list, t: int, delta: int, engine=None) -> list[SparseSet]:
    """[capped_sumset(A1, A2, t, delta, engine) for A1, A2 in zip(A1s, A2s)],
    element for element. With the default engine, the operand pairs
    without a {0} operand are the segments of batched pairs sumsets, in
    batches of at most _BATCH_PAIRS pairs (and few enough segments that
    a pair's segment and position fit one int64 key); each batch is cut
    at t and sparsified by one sparsify_chain. Any other engine, and a
    {0} operand, get one capped_sumset call per operand pair."""
    engine = engine or min_conv
    t, delta = int(t), int(delta)
    most = (INT63_MAX + 1) // max(1, 16 * ((t + delta - 1) // delta) - 1)
    out: list = [None] * len(A1s)
    chunk, pairs = [], 0
    for r, (A1, A2) in enumerate(zip(A1s, A2s)):
        _check_sumset_args(A1, A2, t, delta)
        if not _is_pairs_engine(engine) or _is_zero(A1) or _is_zero(A2):
            out[r] = capped_sumset(A1, A2, t, delta, engine=engine)
            continue
        cost = 4 * len(A1) * len(A2)
        if chunk and (pairs + cost > _BATCH_PAIRS or len(chunk) >= most):
            _capped_sumset_batch(chunk, A1s, A2s, t, delta, out)
            chunk, pairs = [], 0
        chunk.append(r)
        pairs += cost
    if chunk:
        _capped_sumset_batch(chunk, A1s, A2s, t, delta, out)
    return out


def _capped_sumset_batch(chunk: list, A1s: list, A2s: list, t: int, delta: int, out: list) -> None:
    """out[r] = the default engine's capped_sumset(A1s[r], A2s[r]) for
    every r in chunk, as one segmented pairs sumset and one chain."""
    e1 = [A1s[r].elems for r in chunk]
    e2 = [A2s[r].elems for r in chunk]
    ids = np.arange(len(chunk))
    seg, sums = _pairs_sumset(
        np.concatenate(e1), np.concatenate(e2), t, delta, t,
        np.repeat(ids, [e.size for e in e1]), np.repeat(ids, [e.size for e in e2]), len(chunk),
    )
    keep = sparsify_chain(sums, seg, delta)
    seg, sums = seg[keep], sums[keep]
    bounds = np.searchsorted(seg, np.arange(len(chunk) + 1))
    for r, a, b in zip(chunk, bounds[:-1], bounds[1:]):
        out[r] = SparseSet._trusted(sums[a:b], delta, t)
