"""Randomized approximation scheme for SubsetSum.

Structure: items at least t/k are "large" and handled by color coding
(randomly scatter them into k^2 classes, fold the classes together with
capped approximate sumsets, repeat for enough rounds that every sparse
target sum gets split across classes in some round). Items below t/k
are halved at random and solved recursively against a slightly enlarged
target, and the pieces are recombined with capped sumsets. Once all
items are at most delta, plain greedy prefix sums approximate the whole
subset-sum set deterministically.

Soundness is deterministic: every element of the output is a genuine
subset sum. Completeness (every subset sum is bracketed within delta)
holds with high probability, boosted by the confidence constant.

Randomness: every decision draws from a Philox counter-based generator
keyed by (seed, node path, round), so a run is bit-reproducible and
same-level recursive calls could execute in parallel without changing
the result.

The solver records every intermediate sparse set in a trace, a tree of
recorded sumsets: a split node is SumNode(result, large layer,
SumNode(a_small, half 1, half 2)), and its leaves are the greedy prefix
sums and the color-coding rounds. Witness reconstruction is one
approxset.descend of that tree, down to greedy prefixes and, through
each round's fold steps, color-class elements.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .approxset import SumNode, capped_sumset, descend, first_split, sparsify, zero_set
from .core import InvariantError, SparseSet, SubsetSumInstance, _check_int, _check_ints, _epsilon, _finish
from .minconv import min_conv


def clog2(x: int) -> int:
    """Base-2 ceiling logarithm of a positive integer; clog2(1) = 0."""
    if x < 1:
        raise ValueError(f"clog2 needs x >= 1, got {x}")
    return (int(x) - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class SchemeParams:
    """Parameters frozen at the top-level call from (n, t, delta).

    confidence is the tunable constant governing the failure
    probability; k = max(8, confidence * clog2(ceil(n*t/delta))^3) is
    the color-coding layer parameter; eta = 1/(2*clog2(ceil(t/delta)))
    controls how much the target grows per recursion level.
    """

    confidence: int
    k: int
    eta: Fraction
    seed: int

    @classmethod
    def for_instance(
        cls, n: int, t: int, delta: int, confidence: int = 4, seed: int = 0
    ) -> "SchemeParams":
        if confidence < 1:
            raise ValueError("confidence must be >= 1")
        ratio_nt = max(1, ceil_div(max(1, n) * t, delta))
        k = max(8, confidence * clog2(ratio_nt) ** 3)
        depth = max(1, clog2(max(1, ceil_div(t, delta))))
        return cls(
            confidence=confidence,
            k=k,
            eta=Fraction(1, 2 * depth),
            seed=int(seed) % 2**63,
        )

    @property
    def depth_limit(self) -> int:
        # eta = 1/(2L) with L the depth bound clog2(ceil(t/delta))
        return self.eta.denominator // 2


def _rng_for(params: SchemeParams, path: tuple) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=params.seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Trace structure


@dataclass
class GreedyTrace:
    kind = "greedy"
    items: list  # items consumed by the prefix walk, in order
    prefix_sums: list  # 0, x1, x1+x2, ... bounded by t
    result: SparseSet


@dataclass
class FoldStep:
    zset: SparseSet  # sparsify(the color class's items ∪ {0})
    acc: SparseSet  # accumulated capped sumset after this class


@dataclass
class RoundTrace:
    steps: list
    final: SparseSet


@dataclass
class ColorCodingTrace:
    kind = "colorcoding"
    rounds: list
    result: SparseSet


# A split node is SumNode(result, large layer, SumNode(a_small, half 1, half 2)).
TraceNode = Union[GreedyTrace, SumNode]


@dataclass
class SolveTrace:
    """Recorded intermediate sets of one run, enabling reconstruction."""

    root: TraceNode
    t: int
    delta: int
    params: SchemeParams

    @property
    def result(self) -> SparseSet:
        return self.root.result


# ---------------------------------------------------------------------------
# The three layers


def greedy_small(X, t: int, delta: int) -> tuple[SparseSet, GreedyTrace]:
    """All-items-small case (max(X) <= delta): prefix sums in input
    order, stopping once the next item would exceed t, then sparsify.
    Deterministically (t,delta)-approximates S(X;t)."""
    X = _check_ints(X, "item")
    t, delta = int(t), int(delta)
    bad = [x for x in X if x > delta]
    if bad:
        raise ValueError(f"greedy requires max(X) <= delta, got {bad[0]} > {delta}")
    sums = [0]
    s = 0
    consumed = []
    for x in X:
        if s + x > t:
            break
        s += x
        sums.append(s)
        consumed.append(x)
    result = sparsify(np.asarray(sums, dtype=np.int64), t, delta)
    return result, GreedyTrace(items=consumed, prefix_sums=sums, result=result)


def color_coding(
    X, t: int, delta: int, k: int, params: SchemeParams, path: tuple = (), engine=None
) -> tuple[SparseSet, ColorCodingTrace]:
    """Large-items case (X ⊆ [t/k, t]): per round, scatter X into k^2
    classes uniformly and fold the sparsified classes together with
    capped sumsets; return the sparsified union over all rounds.

    The output is always a subset of S(X;t); with high probability it
    (t,delta)-approximates S(X;t). Classes that received no items are
    skipped: folding with {0} is the identity (elementwise), so the
    result is bit-identical to folding all k^2 classes.
    """
    engine = engine or min_conv
    X = _check_ints(X, "item")
    t, delta, k = int(t), int(delta), int(k)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    for x in X:
        if k * x < t or x > t:
            raise ValueError(
                f"item {x} outside the large layer [t/k, t] for t={t}, k={k}"
            )
    if not X:
        z = zero_set(delta, t)
        return z, ColorCodingTrace(rounds=[], result=z)

    n_rounds = max(1, params.confidence * clog2(max(1, ceil_div(len(X) * t, delta))))
    zero = zero_set(delta, t)
    rounds: list[RoundTrace] = []
    for r in range(n_rounds):
        rng = _rng_for(params, path + (1, r))
        class_ids = rng.integers(0, k * k, size=len(X)).tolist()
        groups: dict[int, list] = {}
        for x, cid in zip(X, class_ids):
            groups.setdefault(cid, []).append(x)
        acc = zero
        steps: list[FoldStep] = []
        for cid in sorted(groups):
            z = sparsify(np.asarray(sorted({0, *groups[cid]}), dtype=np.int64), t, delta)
            acc = capped_sumset(acc, z, t, delta, engine=engine)
            steps.append(FoldStep(zset=z, acc=acc))
        rounds.append(RoundTrace(steps=steps, final=acc))

    union = np.unique(np.concatenate([rt.final.elems for rt in rounds]))
    result = sparsify(union, t, delta)
    return result, ColorCodingTrace(rounds=rounds, result=result)


def recursive_splitting(
    X,
    t: int,
    delta: int,
    params: SchemeParams,
    path: tuple = (),
    engine=None,
    _depth: int = 0,
) -> tuple[SparseSet, TraceNode]:
    """Full scheme: greedy base case, color coding on the large layer,
    random halving + recursion on the small layer, capped-sumset
    recombination. Requires t >= 8*delta at the top-level call."""
    engine = engine or min_conv
    X = _check_ints(X, "item")
    t, delta = int(t), int(delta)
    if _depth == 0:
        if delta < 1:
            raise ValueError("delta must be >= 1")
        if t < 8 * delta:
            raise ValueError(
                f"top-level call requires t >= 8*delta (t={t}, delta={delta})"
            )
        over = [x for x in X if x > t]
        if over:
            raise ValueError(f"item {over[0]} exceeds t={t}; drop items above t first")
    if _depth > params.depth_limit:
        raise InvariantError(
            f"recursion depth {_depth} exceeded the bound {params.depth_limit}"
        )

    if max(X, default=0) <= delta:
        return greedy_small(X, t, delta)

    k = params.k
    items_large = [x for x in X if k * x >= t]
    items_small = [x for x in X if k * x < t]
    rng = _rng_for(params, path + (0,))
    halves = rng.integers(0, 2, size=len(items_small)).tolist()
    half1 = [x for x, h in zip(items_small, halves) if h == 0]
    half2 = [x for x, h in zip(items_small, halves) if h == 1]

    L = params.depth_limit
    t_next = ceil_div(t * (2 * L + 1), 4 * L) + delta

    a_large, cc_trace = color_coding(items_large, t, delta, k, params, path + (1,), engine)
    a1, tr1 = recursive_splitting(half1, t_next, delta, params, path + (2,), engine, _depth + 1)
    a2, tr2 = recursive_splitting(half2, t_next, delta, params, path + (3,), engine, _depth + 1)
    a_small = capped_sumset(a1, a2, t, delta, engine=engine)
    result = capped_sumset(a_large, a_small, t, delta, engine=engine)
    return result, SumNode(result, cc_trace, SumNode(a_small, tr1, tr2))


# ---------------------------------------------------------------------------
# Exact fallback (reachability bitset DP)

_EXACT_BITS_BUDGET = 2**33


def exact_subset_sum(items, t: int) -> tuple[int, list]:
    """Exact optimum and witness by reachability DP over [0, t].

    Used when delta would round to zero (eps*t < 1), where approximation
    degenerates to the exact problem anyway.
    """
    t = int(t)
    items = [x for x in _check_ints(items, "item") if x <= t]
    if (t + 1) * (len(items) + 1) > _EXACT_BITS_BUDGET:
        raise MemoryError(
            f"exact fallback needs {(t + 1) * (len(items) + 1)} DP bits; "
            "instance too large for the exact regime"
        )
    mask = (1 << (t + 1)) - 1
    prefixes = [1]
    reach = 1
    for x in items:
        reach |= (reach << x) & mask
        prefixes.append(reach)
    value = reach.bit_length() - 1
    cur = value
    witness = []
    for i in range(len(items), 0, -1):
        if (prefixes[i - 1] >> cur) & 1:
            continue
        witness.append(items[i - 1])
        cur -= items[i - 1]
    if cur != 0:
        raise InvariantError(f"exact DP witness misses {value} by {cur}")
    return value, witness[::-1]


# ---------------------------------------------------------------------------
# Top-level scheme and reconstruction


def approximate_subset_sum(
    inst: SubsetSumInstance,
    epsilon,
    seed: int = 0,
    confidence: int = 4,
    engine=None,
    return_trace: bool = False,
):
    """Approximate SubsetSum: returns a result whose witness Y ⊆ X has
    sum(Y) <= t and, with high probability, sum(Y) >= min(OPT, (1-eps)t).

    delta = floor(min(eps*t, t/8)); when that rounds to zero the solver
    falls back to exact DP (mode="exact-fallback").
    """
    eps = _epsilon(epsilon)
    seed, confidence = _check_int(seed, "seed"), _check_int(confidence, "confidence", low=1)
    t = inst.target
    start = time.perf_counter()
    usable = [x for x in inst.items if x <= t]

    dmin = min(eps * t, Fraction(t, 8))
    delta = dmin.numerator // dmin.denominator
    if delta < 1:
        witness = exact_subset_sum(usable, t)[1]
        return _finish(witness, eps, 0, "exact-fallback", start, None, return_trace)

    params = SchemeParams.for_instance(
        n=len(usable), t=t, delta=delta, confidence=confidence, seed=seed
    )
    aset, root = recursive_splitting(usable, t, delta, params, (), engine)
    trace = SolveTrace(root=root, t=t, delta=delta, params=params)
    witness = reconstruct(trace, aset.max())
    return _finish(witness, eps, delta, "approx", start, trace, return_trace)


def _reconstruct_greedy(node: GreedyTrace, target: int) -> list:
    sums = node.prefix_sums
    i = bisect_left(sums, target)
    if i >= len(sums) or sums[i] != target:
        raise ValueError(f"{target} is not a recorded prefix sum")
    return list(node.items[:i])


_ZERO = np.zeros(1, dtype=np.int64)


def _reconstruct_colorcoding(node: ColorCodingTrace, target: int) -> list:
    if not node.rounds:
        if target == 0:
            return []
        raise ValueError(f"{target} not reachable from an empty layer")
    rt = next((rt for rt in node.rounds if target in rt.final), None)
    if rt is None:
        raise ValueError(f"{target} not found in any color-coding round")
    out = []
    cur = target
    # the first class folds into {0}
    prevs = [_ZERO] + [s.acc.elems for s in rt.steps[:-1]]
    for step, prev in zip(reversed(rt.steps), reversed(prevs)):
        z_pick = first_split(cur, step.zset.elems, prev)
        if z_pick is None:
            raise ValueError(f"value {cur} is not decomposable; trace corrupted")
        if z_pick > 0:
            out.append(z_pick)
        cur -= z_pick
    return out


def _reconstruct_leaf(node, target: int) -> list:
    if isinstance(node, GreedyTrace):
        return _reconstruct_greedy(node, target)
    return _reconstruct_colorcoding(node, target)


def reconstruct(trace, target: int) -> list:
    """Recover a sub-multiset of the items summing exactly to target,
    which must be an element of the trace's root set."""
    target = int(target)
    root = trace.root if isinstance(trace, SolveTrace) else trace
    if target not in root.result:
        raise ValueError(f"target {target} not in the solved set")
    witness = descend(root, target, _reconstruct_leaf)
    if sum(witness) != target:
        raise InvariantError(f"witness sums to {sum(witness)}, not {target}")
    return witness
