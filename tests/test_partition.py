"""The deterministic Partition scheme and its pieces, against exact
brute-force oracles."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sparsesum
from sparsesum.approxset import is_approximation
from sparsesum.core import INFINITY, PartitionInstance, ValidationError, subset_sums_bruteforce
from sparsesum.partition import (
    _NAIVE_PAIRS,
    _fast_len,
    approximate_partition,
    bottom_half,
    exact_sumset_tree,
    greedy_partition_split,
    reconstruct_partition,
    weak_round,
)
from sparsesum.testkit import bruteforce_opt, gen_instance, naive_sumset


def test_greedy_split_examples():
    assert greedy_partition_split([10, 10, 10, 10], 4) == [[10, 10], [10, 10]]
    assert greedy_partition_split([5], 1) == [[5]]
    # an item above 2*sigma/L becomes a singleton
    parts = greedy_partition_split([90, 1, 1, 1, 1, 1, 1], 4)
    assert [90] in parts


def test_greedy_split_properties():
    rng = np.random.default_rng(4)
    for trial in range(300):
        n = int(rng.integers(1, 20))
        items = [int(x) for x in rng.integers(1, 500, size=n)]
        sigma = sum(items)
        L = int(rng.integers(1, min(sigma, 25) + 1))
        parts = greedy_partition_split(items, L)
        assert len(parts) <= L, f"trial {trial}: {len(parts)} parts > L={L}"
        assert sorted(x for p in parts for x in p) == sorted(items)
        for p in parts:
            assert len(p) == 1 or L * sum(p) <= 4 * sigma, f"trial {trial}"


def test_bottom_half_examples():
    res, node = bottom_half([5], 3)
    assert res.to_list() == [0, 5]
    res, node = bottom_half([3, 4], 1)
    assert res.to_list() == [0, 3, 4, 7]  # all gaps exceed delta = 1, so exact


def test_bottom_half_randomized_oracle():
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(0, 11))
        items = [int(x) for x in rng.integers(1, 200, size=n)]
        total = max(1, sum(items))
        delta = int(rng.integers(1, max(2, total // 4 + 1)))
        res, _ = bottom_half(items, delta)
        sums = subset_sums_bruteforce(items, INFINITY)
        assert set(res.to_list()) <= set(sums), f"trial {trial}"
        assert res.is_delta_sparse(), f"trial {trial}"
        assert is_approximation(res, sums, INFINITY, delta), f"trial {trial}"


def test_exact_sumset_tree_examples():
    assert exact_sumset_tree([[0, 1], [0, 2]]).tolist() == [0, 1, 2, 3]
    assert exact_sumset_tree([[0, 7, 9]]).tolist() == [0, 7, 9]
    assert exact_sumset_tree([]).tolist() == [0]
    # an empty operand empties the sumset
    assert exact_sumset_tree([[0, 3], []]).tolist() == []
    assert exact_sumset_tree([[]]).tolist() == []
    with pytest.raises(ValueError):
        exact_sumset_tree([[-1, 2]])
    with pytest.raises(ValueError):
        exact_sumset_tree([[0, 2.5]])


def test_exact_sumset_tree_matches_iterated_naive():
    rng = np.random.default_rng(15)
    for trial in range(60):
        nsets = int(rng.integers(1, 6))
        zsets = []
        for _ in range(nsets):
            size = int(rng.integers(1, 10))
            zsets.append(sorted({0} | {int(x) for x in rng.integers(0, 65, size=size)}))
        expected = [0]
        for z in zsets:
            expected = naive_sumset(expected, z)
        assert exact_sumset_tree(zsets).tolist() == expected, f"trial {trial}"


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_exact_sumset_tree_fft_path():
    # pairs on both sides of the naive cutoff, tops up to ~2^16, and
    # output lengths that are prime (padded), 5-smooth (not padded) or one
    # above a 5-smooth number (padded the most)
    length_kinds = (_is_prime, _is_5_smooth, lambda n: _is_5_smooth(n - 1))
    rng = np.random.default_rng(16)
    fft_pairs = 0
    for trial in range(30):
        top_a, top_b = (int(x) for x in rng.integers(1, 2**16, size=2))
        while not length_kinds[trial % 3](top_a + top_b + 1):
            top_b += 1
        size_a, size_b = (int(x) for x in rng.integers(2, [60, 300][trial // 3 % 2], size=2))
        a = sorted({0, top_a} | {int(x) for x in rng.integers(1, top_a + 1, size=size_a)})
        b = sorted({0, top_b} | {int(x) for x in rng.integers(1, top_b + 1, size=size_b)})
        fft_pairs += len(a) * len(b) > _NAIVE_PAIRS
        assert exact_sumset_tree([a, b]).tolist() == naive_sumset(a, b), f"trial {trial}"
    assert 10 <= fft_pairs <= 20


def test_fast_len_is_smallest_5_smooth():
    for n in range(1, 5001):
        m = n
        while not _is_5_smooth(m):
            m += 1
        assert _fast_len(n) == m, f"n={n}"


def test_import_needs_numpy_only():
    # a fresh interpreter: importing sparsesum after numpy loads no other
    # third-party package
    src = str(Path(sparsesum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy\n"
        "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "import sparsesum\n"
        "print(sorted(tops() - before - set(sys.stdlib_module_names) - {'sparsesum'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_weak_round():
    assert weak_round([0, 5, 9], 4).tolist() == [0, 1, 2]
    assert weak_round([0, 5, 9], 1).tolist() == [0, 5, 9]
    with pytest.raises(ValueError):
        weak_round([1], 0)


def test_weak_round_additive_loss_property():
    rng = np.random.default_rng(20)
    for trial in range(200):
        L = int(rng.integers(1, 6))
        R = int(rng.integers(1, 20))
        zsets = [
            sorted({int(x) for x in rng.integers(0, 300, size=rng.integers(1, 6))})
            for _ in range(L)
        ]
        # every L-fold sum loses at most L*R after rounding, never gains
        for _ in range(20):
            picks = [z[rng.integers(0, len(z))] for z in zsets]
            s = sum(picks)
            s_rounded = R * sum(p // R for p in picks)
            assert s >= s_rounded >= s - L * R, f"trial {trial}"


def test_partition_trivial_symmetric():
    res = approximate_partition(PartitionInstance(items=(1, 1)), 0.5)
    assert res.value == 1
    assert sum(res.witness) == 1


def test_partition_fixed_example():
    inst = PartitionInstance(items=(3, 1, 1, 2, 2, 1))
    res = approximate_partition(inst, 0.25)
    assert res.value == 5  # OPT for sigma = 10; deterministic regression
    assert sum(res.witness) == 5


def test_partition_big_item_linear_case():
    inst = PartitionInstance(items=(100, 1, 1))
    res = approximate_partition(inst, 0.25)
    assert res.mode == "exact-fallback"
    assert res.value == 2
    assert sorted(res.witness) == [1, 1]
    # single item: nothing fits below sigma/2
    res = approximate_partition(PartitionInstance(items=(7,)), 0.5)
    assert res.value == 0 and res.witness == ()


def test_partition_empty():
    res = approximate_partition(PartitionInstance(items=()), 0.5)
    assert res.value == 0


def test_partition_complement_drops_first_occurrences():
    # a retraced witness above sigma/2 is replaced by its complement:
    # the items in input order, less each witness item's first occurrence
    complements = 0
    for seed in range(40):
        inst = gen_instance("partition", 12, 30, seed=seed)
        res, trace = approximate_partition(inst, 0.25, return_trace=True)
        if trace is None:
            continue
        w = reconstruct_partition(trace, trace.s_best)
        if sum(w) <= inst.sigma // 2:
            assert res.witness == tuple(w)
            continue
        complements += 1
        rest = list(inst.items)
        for x in w:
            rest.remove(x)
        assert res.witness == tuple(rest), f"seed {seed}"
    assert complements


@pytest.mark.parametrize(
    "items", [(), (100, 1, 1), (3, 1, 1, 2, 2, 1)], ids=["empty", "largest-item", "approx"]
)
@pytest.mark.parametrize(
    "name,value",
    [("epsilon", 0), ("epsilon", 1), ("epsilon", 1.5), ("L", 2.5), ("L", "3"), ("L", "x"),
     ("L", 0), ("L", -3)],
)
def test_bad_parameters_raise_before_every_exit(items, name, value):
    with pytest.raises(ValidationError):
        approximate_partition(PartitionInstance(items=items), **{"epsilon": 0.25, name: value})


def test_partition_determinism():
    inst = gen_instance("partition", 12, 10_000, seed=3)
    a = approximate_partition(inst, 0.0625)
    b = approximate_partition(inst, 0.0625)
    assert a.value == b.value and a.witness == b.witness


def test_partition_guarantee_deterministic_sweep():
    rng = np.random.default_rng(44)
    for trial in range(150):
        n = int(rng.integers(1, 13))
        style = ["uniform", "two-scale"][trial % 2]
        inst = gen_instance("partition", n, 2000, seed=trial, style=style)
        eps = [0.25, 0.0625, 0.015625][trial % 3]
        res, trace = approximate_partition(inst, eps, return_trace=True)
        half = inst.sigma // 2
        opt = bruteforce_opt(inst.items, half)
        # two-sided deterministic guarantee, and witness discipline
        assert res.value <= opt, f"trial {trial}: {res.value} > OPT {opt}"
        assert (1 - eps) * opt <= res.value, f"trial {trial}: {res.value} < (1-eps)OPT"
        assert sum(res.witness) == res.value
        assert not (Counter(res.witness) - Counter(inst.items))
        # intermediate invariant: best rounded sum within 2*delta of OPT
        if trace is not None:
            assert trace.s_best >= opt - 2 * trace.delta, f"trial {trial}"
            assert trace.s_best <= half


def test_partition_L_override():
    inst = gen_instance("partition", 10, 500, seed=9)
    half = inst.sigma // 2
    opt = bruteforce_opt(inst.items, half)
    for L in (1, 2, 5, np.int64(9)):
        res = approximate_partition(inst, 0.125, L=L)
        assert (1 - 0.125) * opt <= res.value <= opt, f"L={L}"
    with pytest.raises(ValueError, match=r"L must be in \[1, sigma\]"):
        approximate_partition(inst, 0.125, L=inst.sigma + 1)


def test_reconstruct_partition_all_values():
    rng = np.random.default_rng(50)
    for trial in range(40):
        n = int(rng.integers(2, 11))
        inst = gen_instance("partition", n, 400, seed=trial)
        res, trace = approximate_partition(inst, 0.25, return_trace=True)
        if trace is None:
            continue
        reach_cap = inst.sigma
        sums = set(subset_sums_bruteforce(inst.items, reach_cap))
        for s in trace.final.tolist():
            w = reconstruct_partition(trace, s)
            assert s <= sum(w) <= s + trace.L * trace.R, f"trial {trial} s={s}"
            assert sum(w) in sums
            assert not (Counter(w) - Counter(inst.items))
        with pytest.raises(ValueError):
            reconstruct_partition(trace, int(trace.final[-1]) + trace.R * 7 + 1)
