"""The approximation algebra: checker, sparsification, shifting, union,
and the convolution-backed sumsets, all against naive oracles."""

import math

import numpy as np
import pytest

from sparsesum.approxset import (
    SumNode,
    _grid,
    _interval_entries,
    apx_bounds,
    capped_sumset,
    descend,
    is_approximation,
    merge_union,
    shift_down,
    sparsify,
    unbounded_sumset,
)
from sparsesum.core import INFINITY, SparseSet, is_delta_sparse
from sparsesum.minconv import min_conv, min_conv_dense
from sparsesum.testkit import naive_sumset, unfold_oracle


def sset(elems, delta, cap):
    return SparseSet(np.asarray(sorted(elems), dtype=np.int64), delta=delta, cap=cap)


def random_subset(rng, t, max_size=40, include_zero=True):
    size = int(rng.integers(0 if not include_zero else 1, max_size))
    vals = set(int(x) for x in rng.integers(0, t + 1, size=size))
    if include_zero:
        vals.add(0)
    return sorted(vals)


def test_apx_bounds_examples():
    assert apx_bounds(7, sset({0, 5}, 1, 10), 10) == (5, 11)
    # b = t+1 gives (t+1, t+1) no matter what A is
    for elems in ({0}, {0, 3, 9}, set()):
        a = sset(elems, 1, 10)
        assert apx_bounds(11, a, 10) == (11, 11)
    assert apx_bounds(0, sset({0}, 1, 5), 5) == (0, 0)
    # no lower approximation below min(A)
    lo, hi = apx_bounds(1, sset({2}, 1, 5), 5)
    assert lo == -math.inf and hi == 2


def test_is_approximation_examples():
    assert is_approximation([0, 2, 5], [0, 2, 3, 5], 5, 3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        b = random_subset(rng, 50)
        assert is_approximation(b, b, 50, 0)  # A = B works for any delta
    assert not is_approximation([0], [0, 9], 10, 3)  # gap 0 -> 11 is 11
    assert not is_approximation([0, 4], [0, 3], 10, 5)  # not a subset
    assert not is_approximation([0, 3], [0, 3, 12], 10, 5)  # B above t


def test_sparsify_examples():
    assert sparsify([0, 1, 2, 3, 10], 10, 2).to_list() == [0, 2, 3, 10]
    assert sparsify([0], 7, 3).to_list() == [0]
    assert sparsify([0, 1, 2], 10, 5).to_list() == [0, 2]


def test_sparsify_rejects_bad_input():
    # the sweep keeps the first and the last element, so the returned
    # set's own validation rejects the first three; a list input is
    # checked for an integer dtype before the sweep
    for elems, t, delta in (
        ([-1, 0, 1, 2, 3], 10, 2),  # negative element
        ([0, 1, 2, 3, 11], 10, 2),  # element above t
        ([0, 1, 2, 3], 10, -1),  # negative delta
        ([0, 1.5, 2.7], 10, 2),  # non-integer elements
    ):
        with pytest.raises(ValueError):
            sparsify(elems, t, delta)


def test_sparsify_properties_randomized():
    rng = np.random.default_rng(42)
    for trial in range(500):
        t = int(rng.integers(1, 400))
        delta = int(rng.integers(0, t + 1))
        b = random_subset(rng, t)
        a = sparsify(b, t, delta)
        assert a.is_delta_sparse(), f"trial {trial}"
        assert set(a.to_list()) <= set(b), f"trial {trial}"
        assert is_approximation(a, b, t, delta), f"trial {trial}"
        # size bound: at most 2*ceil(t/delta) + 2 elements
        if delta >= 1:
            assert len(a) <= 2 * ((t + delta - 1) // delta) + 2, f"trial {trial}"


def test_shift_down_examples():
    a = sset({0, 4, 9}, 2, 12)
    assert shift_down(a, 5).to_list() == [0, 4]
    assert shift_down(a, 5).cap == 5
    assert shift_down(sset({0}, 1, 3), 0).to_list() == [0]
    with pytest.raises(ValueError):
        shift_down(sset({0}, 1, 3), 7)


def test_shift_down_preserves_approximation():
    rng = np.random.default_rng(7)
    for trial in range(300):
        t = int(rng.integers(2, 300))
        delta = int(rng.integers(1, t + 1))
        b = random_subset(rng, t)
        a = sparsify(b, t, delta)
        t_new = int(rng.integers(0, t + 1))
        shifted = shift_down(a, t_new)
        b_cut = [x for x in b if x <= t_new]
        assert is_approximation(shifted, b_cut, t_new, delta), f"trial {trial}"


def test_merge_union_examples():
    u = merge_union(sset({0, 3}, 1, 10), sset({0, 5}, 1, 10), 10, 1)
    assert u.to_list() == [0, 3, 5]
    a = sparsify([0, 4, 9], 10, 2)
    assert merge_union(a, a, 10, 2) == a  # idempotent on sparse input
    assert merge_union(sset({0}, 1, 9), sset(set(), 1, 9), 9, 1).to_list() == [0]


def test_union_property_raw():
    # the raw (unsparsified) union approximates the union of the bases
    rng = np.random.default_rng(17)
    for trial in range(300):
        t = int(rng.integers(2, 300))
        delta = int(rng.integers(1, t + 1))
        b1, b2 = random_subset(rng, t), random_subset(rng, t)
        a1, a2 = sparsify(b1, t, delta), sparsify(b2, t, delta)
        union = sorted(set(a1.to_list()) | set(a2.to_list()))
        assert is_approximation(union, sorted(set(b1) | set(b2)), t, delta), f"trial {trial}"


def test_unbounded_sumset_trivial_and_example():
    z = sset({0}, 3, 12)
    assert unbounded_sumset(z, z, 12, 3).to_list() == [0]
    a1, a2 = sset({0, 5}, 12, 12), sset({0, 7}, 12, 12)
    out = unbounded_sumset(a1, a2, 12, 12)
    full = naive_sumset([0, 5], [0, 7])
    assert set(out.to_list()) <= set(full)
    assert is_approximation(out, full, INFINITY, 12)
    assert out.cap is INFINITY
    with pytest.raises(ValueError, match="delta must be >= 1"):
        unbounded_sumset(a1, a2, 12, 0)
    with pytest.raises(ValueError, match="need t >= delta"):
        unbounded_sumset(z, z, 2, 3)
    with pytest.raises(ValueError, match="input element 7 exceeds t=6"):
        unbounded_sumset(a1, a2, 6, 3)


def test_unbounded_sumset_randomized_oracle():
    rng = np.random.default_rng(5)
    for trial in range(400):
        t = int(rng.integers(2, 200))
        delta = int(rng.integers(1, t + 1))
        a1 = sparsify(random_subset(rng, t), t, delta)
        a2 = sparsify(random_subset(rng, t), t, delta)
        out = unbounded_sumset(a1, a2, t, delta)
        full = naive_sumset(a1.to_list(), a2.to_list())
        assert set(out.to_list()) <= set(full), f"trial {trial}"
        if full:
            assert is_approximation(out, full, INFINITY, delta), f"trial {trial}"


def test_capped_sumset_examples_and_oracle():
    a1, a2 = sset({0, 5}, 3, 10), sset({0, 7}, 3, 10)
    out = capped_sumset(a1, a2, 10, 3)
    assert set(out.to_list()) <= {0, 5, 7}
    assert is_approximation(out, [0, 5, 7], 10, 3)
    z = sset({0}, 1, 5)
    assert capped_sumset(z, z, 5, 1).to_list() == [0]
    with pytest.raises(ValueError, match="delta must be >= 1"):
        capped_sumset(a1, a2, 10, 0)
    with pytest.raises(ValueError, match="need t >= delta"):
        capped_sumset(z, z, 2, 3)
    with pytest.raises(ValueError, match="input element 7 exceeds t=6"):
        capped_sumset(a1, a2, 6, 3)

    rng = np.random.default_rng(99)
    for trial in range(400):
        t = int(rng.integers(2, 120))
        delta = int(rng.integers(1, t + 1))
        b1, b2 = random_subset(rng, t), random_subset(rng, t)
        a1, a2 = sparsify(b1, t, delta), sparsify(b2, t, delta)
        out = capped_sumset(a1, a2, t, delta)
        base = naive_sumset(b1, b2, t)
        assert out.is_delta_sparse(), f"trial {trial}"
        assert set(out.to_list()) <= set(naive_sumset(a1.to_list(), a2.to_list(), t))
        assert is_approximation(out, base, t, delta), f"trial {trial}"


def test_grid_matches_unfold_oracle():
    # The dense and callable engines share _interval_entries with the
    # default engine; the oracle recomputes every interval from scratch.
    rng = np.random.default_rng(5)
    for trial in range(2000):
        if trial % 4 == 3:
            t = int(rng.integers(2**59, 2**63 - 1, endpoint=True))
            delta = t // int(rng.integers(1, 12))
        else:
            t = int(rng.integers(1, 300))
            delta = int(rng.integers(1, t + 1))
        if trial % 2:
            delta -= 1 - delta % 2  # odd delta
        n_intervals = 2 * ((t + delta - 1) // delta) + 1  # the dense engine's grid
        size = int(rng.integers(0, 30))
        elems = {int(x) for x in rng.integers(0, t, size=size, endpoint=True)}
        # boundary elements 2a = i*delta sit in two intervals
        elems |= {i * delta // 2 for i in range(2 * t // delta + 1)
                  if i * delta % 2 == 0 and rng.random() < 0.3}
        if trial % 10 == 0:
            elems = set()
        elems = np.asarray(sorted(elems), dtype=np.int64)
        got = _grid(elems, n_intervals, delta)
        assert got == unfold_oracle(elems.tolist(), n_intervals, delta), f"trial {trial}"


def test_capped_sumset_dense_engine_agrees():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = int(rng.integers(2, 80))
        delta = int(rng.integers(1, t + 1))
        a1 = sparsify(random_subset(rng, t), t, delta)
        a2 = sparsify(random_subset(rng, t), t, delta)
        assert capped_sumset(a1, a2, t, delta) == capped_sumset(
            a1, a2, t, delta, engine=min_conv_dense
        )

    # The default engine's unbounded sumset skips the grid; the dense
    # engine and a plain callable (the ExtSeq path) both unfold it.
    def plain(A, B):
        return min_conv(A, B)

    def grid_free_pairs(a1, a2, delta):
        return _interval_entries(a1.elems, delta)[0].size * _interval_entries(
            a2.elems, delta
        )[0].size

    sides = set()
    for trial in range(300):
        delta = int(rng.integers(1, 12)) | 1 if trial % 2 else int(rng.integers(1, 12))
        if trial % 10 == 9:
            t = 2**59 - trial % 20 // 10  # at and just below the int64 kernel limit
            delta = t // int(rng.integers(1, 12))
        else:
            t = int(rng.integers(delta, 40 * delta + 1))
        sets = []
        for _ in range(2):
            if rng.random() < 0.15:
                sets.append(sset({0}, delta, t))
                continue
            elems = set(random_subset(rng, t, max_size=int(rng.integers(2, 60))))
            # boundary elements 2a = i*delta sit in two intervals
            elems |= {i * delta // 2 for i in range(0, 2 * t // delta + 1, 2)
                      if rng.random() < 0.3}
            sets.append(sparsify(sorted(elems), t, delta))
        a1, a2 = sets
        nc = 16 * ((t + delta - 1) // delta) - 1
        sides.add(grid_free_pairs(a1, a2, delta) >= nc)
        got = unbounded_sumset(a1, a2, t, delta)
        assert got == unbounded_sumset(a1, a2, t, delta, engine=min_conv_dense), f"trial {trial}"
        assert got == unbounded_sumset(a1, a2, t, delta, engine=plain), f"trial {trial}"
    assert sides == {False, True}


def test_wide_targets_agree_with_big_int_path():
    # Above 2^59 the default engine stays grid-free and adds in uint64;
    # a plain callable unfolds the grid and convolves it on exact Python
    # ints.
    def plain(A, B):
        return min_conv(A, B)

    rng = np.random.default_rng(4)
    edges = [2**59 + 1, 2**62 - 1, 2**62, 2**63 - 1]
    sides, outcomes = set(), set()
    for trial in range(240):
        t = edges[trial % 4] if trial < 80 else int(rng.integers(2**59 + 1, 2**63 - 1))
        delta = t // int(rng.integers(1, 12))
        if trial % 2:
            delta -= 1 - delta % 2  # odd delta
        sets = []
        for _ in range(2):
            if rng.random() < 0.15:
                sets.append(sset({0}, delta, t))
                continue
            size = int(rng.integers(1, 40))
            elems = {0} | {int(x) for x in rng.integers(0, t, size=size, endpoint=True)}
            # boundary elements 2a = i*delta sit in two intervals
            elems |= {i * delta // 2 for i in range(2 * t // delta + 1)
                      if i * delta % 2 == 0 and rng.random() < 0.3}
            sets.append(sparsify(sorted(elems), t, delta))
        a1, a2 = sets
        nc = 16 * ((t + delta - 1) // delta) - 1
        sides.add(
            _interval_entries(a1.elems, delta)[0].size * _interval_entries(a2.elems, delta)[0].size
            >= nc
        )
        got = capped_sumset(a1, a2, t, delta)
        try:
            want = unbounded_sumset(a1, a2, t, delta, engine=plain)
        except OverflowError:
            # an uncapped sum above 2^63 - 1, which the reference cannot hold
            outcomes.add("overflow")
            base = naive_sumset(a1.to_list(), a2.to_list(), t)
            assert set(got.to_list()) <= set(base), f"trial {trial}"
            assert is_approximation(got, base, t, delta), f"trial {trial}"
            continue
        outcomes.add("exact")
        assert unbounded_sumset(a1, a2, t, delta) == want, f"trial {trial}"
        assert got == capped_sumset(a1, a2, t, delta, engine=plain), f"trial {trial}"
    assert sides == {False, True}
    assert outcomes == {"exact", "overflow"}
    # the default engine's positions, up to 2*(2t/delta)+1, must fit in int64
    a = sset({0, 3}, 3, 2**62)
    with pytest.raises(OverflowError):
        unbounded_sumset(a, a, 2**62, 3)


def test_transitivity_randomized():
    rng = np.random.default_rng(21)
    for trial in range(400):
        t = int(rng.integers(2, 300))
        delta = int(rng.integers(1, t + 1))
        d1 = int(rng.integers(1, delta + 1))
        c = random_subset(rng, t)
        b = sparsify(c, t, d1).to_list()
        a = sparsify(b, t, delta).to_list()
        assert is_approximation(b, c, t, delta)
        assert is_approximation(a, b, t, delta)
        assert is_approximation(a, c, t, delta), f"trial {trial}"


def test_sandwich_randomized():
    rng = np.random.default_rng(22)
    for trial in range(400):
        t = int(rng.integers(2, 300))
        delta = int(rng.integers(1, t + 1))
        c = random_subset(rng, t)
        a = sparsify(c, t, delta).to_list()
        extra = [x for x in c if rng.random() < 0.4]
        b = sorted(set(a) | set(extra))
        assert is_approximation(a, c, t, delta)
        assert is_approximation(b, c, t, delta), f"trial {trial}"


def test_sumset_property_randomized():
    rng = np.random.default_rng(23)
    for trial in range(300):
        t = int(rng.integers(2, 150))
        delta = int(rng.integers(1, t + 1))
        b1, b2 = random_subset(rng, t, 25), random_subset(rng, t, 25)
        a1, a2 = sparsify(b1, t, delta), sparsify(b2, t, delta)
        lhs = naive_sumset(a1.to_list(), a2.to_list(), t)
        rhs = naive_sumset(b1, b2, t)
        assert is_approximation(lhs, rhs, t, delta), f"trial {trial}"


def test_wide_values_python_path():
    # beyond the int64 kernel range a plain callable engine takes the
    # exact big-int path
    base = 2**60
    t = base * 2
    delta = base // 2
    a1 = sset({0, base}, delta, t)
    a2 = sset({0, base + 17}, delta, t)
    out = unbounded_sumset(a1, a2, t, delta, engine=lambda A, B: min_conv(A, B))
    full = naive_sumset(a1.to_list(), a2.to_list())
    assert set(out.to_list()) <= set(full)
    assert is_approximation(out, full, INFINITY, delta)


def test_descend_takes_smallest_left_split_and_rejects_corrupt_nodes():
    def leaf(x):
        return SumNode(sset({0, x}, 0, INFINITY), leaf=x)

    def at_leaf(node, target):
        if target == 0:
            return []
        if target == node.leaf:
            return [node.leaf]
        raise ValueError(f"{target} not at leaf {node.leaf}")

    # at the root 5 = 2 + 3 = 5 + 0: the rule takes the smaller left element, 2
    left = SumNode(sset({0, 2, 5}, 0, INFINITY), leaf(2), leaf(5))
    root = SumNode(sset({0, 2, 3, 5, 8}, 0, INFINITY), left, leaf(3))
    assert descend(root, 5, at_leaf) == [2, 3]
    assert descend(root, 8, at_leaf) == [5, 3]
    assert descend(root, 0, at_leaf) == []
    # 4 is in the root's set, but no element of {0, 2, 5} plus one of {0, 3} makes 4
    corrupt = SumNode(sset({0, 4}, 0, INFINITY), left, leaf(3))
    with pytest.raises(ValueError):
        descend(corrupt, 4, at_leaf)
