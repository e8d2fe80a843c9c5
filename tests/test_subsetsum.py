"""The randomized SubsetSum scheme: layer routines, the full recursion,
witness reconstruction, and exactness of the fallback path."""

import numpy as np
import pytest
from collections import Counter
from fractions import Fraction

from sparsesum.approxset import is_approximation
from sparsesum.core import InvariantError, SubsetSumInstance, subset_sums_bruteforce
from sparsesum.subsetsum import (
    SchemeParams,
    SolveTrace,
    approximate_subset_sum,
    ceil_div,
    clog2,
    color_coding,
    exact_subset_sum,
    greedy_small,
    reconstruct,
    recursive_splitting,
)
from sparsesum.testkit import bruteforce_opt, gen_instance, subset_sums_bitset, verify_guarantee


def params_for(n, t, delta, seed=0, confidence=4):
    return SchemeParams.for_instance(n=n, t=t, delta=delta, confidence=confidence, seed=seed)


def test_clog2():
    assert [clog2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        clog2(0)


def test_scheme_params_frozen_forms():
    p = params_for(n=10, t=1000, delta=50)
    assert p.k == max(8, 4 * clog2(ceil_div(10 * 1000, 50)) ** 3)
    assert p.eta.numerator == 1
    assert p.eta.denominator == 2 * clog2(ceil_div(1000, 50))
    assert p.depth_limit == clog2(20)


def test_greedy_examples():
    res, tr = greedy_small([2, 3, 5], 7, 5)
    assert tr.prefix_sums == [0, 2, 5]  # 5 + 5 would exceed 7
    assert res.to_list() == [0, 5]  # sweep drops 2 (5 - 0 <= 5)
    assert is_approximation(res, subset_sums_bruteforce([2, 3, 5], 7), 7, 5)

    res, tr = greedy_small([], 9, 2)
    assert res.to_list() == [0]

    res, tr = greedy_small([1, 1, 1], 2, 1)
    assert tr.prefix_sums == [0, 1, 2]
    assert res.to_list() == [0, 1, 2]
    assert is_approximation(res, subset_sums_bruteforce([1, 1, 1], 2), 2, 1)

    with pytest.raises(ValueError):
        greedy_small([3], 9, 2)


def test_greedy_always_approximates():
    rng = np.random.default_rng(1)
    for trial in range(300):
        t = int(rng.integers(1, 200))
        delta = int(rng.integers(1, t + 1))
        n = int(rng.integers(0, 12))
        items = [int(x) for x in rng.integers(1, delta + 1, size=n)]
        res, _ = greedy_small(items, t, delta)
        assert res.is_delta_sparse()
        assert is_approximation(res, subset_sums_bruteforce(items, t), t, delta), (
            f"trial {trial}"
        )


def test_color_coding_empty_and_exact_pair():
    p = params_for(2, 13, 1)
    res, tr = color_coding([], 13, 1, 8, p)
    assert res.to_list() == [0]

    res, tr = color_coding([6, 7], 13, 1, 8, p, path=())
    # delta = 1 forces exactness here: the only approximating set is S itself
    assert res.to_list() == [0, 6, 7, 13]


def test_color_coding_rejects_out_of_layer_items():
    p = params_for(3, 100, 5)
    with pytest.raises(ValueError):
        color_coding([2], 100, 5, 8, p)  # 8*2 < 100


def test_color_coding_randomized_completeness():
    rng = np.random.default_rng(7)
    t, delta, k = 1000, 50, 8
    fails = 0
    for trial in range(200):
        items = [int(x) for x in rng.integers(ceil_div(t, k), t + 1, size=10)]
        p = params_for(10, t, delta, seed=trial)
        res, _ = color_coding(items, t, delta, k, p)
        sums = subset_sums_bruteforce(items, t)
        assert set(res.to_list()) <= set(sums), f"soundness broke at {trial}"
        if not is_approximation(res, sums, t, delta):
            fails += 1
    assert fails <= 2, f"{fails}/200 rounds missed the approximation bound"


def test_recursive_splitting_base_case_matches_greedy():
    p = params_for(4, 80, 10, seed=3)
    items = [4, 9, 2, 7]
    a, tr = recursive_splitting(items, 80, 10, p)
    g, gtr = greedy_small(items, 80, 10)
    assert a == g and tr.kind == "greedy"


def test_recursive_splitting_single_large_item():
    t = 800
    delta = t // 8
    p = params_for(1, t, delta, seed=11)
    a, tr = recursive_splitting([t], t, delta, p)
    assert 0 in a and t in a


def test_recursive_splitting_randomized():
    rng = np.random.default_rng(13)
    fails = 0
    for trial in range(200):
        t = 1000
        delta = 100
        items = [int(x) for x in rng.integers(1, t + 1, size=8)]
        p = params_for(len(items), t, delta, seed=trial)
        a, tr = recursive_splitting(items, t, delta, p)
        sums = subset_sums_bruteforce(items, t)
        assert set(a.to_list()) <= set(sums), f"soundness broke at {trial}"
        assert a.is_delta_sparse()
        if not is_approximation(a, sums, t, delta):
            fails += 1
    assert fails <= 2, f"{fails}/200 runs missed the approximation bound"


def test_approximate_subset_sum_example():
    inst = SubsetSumInstance(items=(2, 3, 5), target=10)
    for seed in range(10):
        res = approximate_subset_sum(inst, 0.5, seed=seed)
        assert res.value == 10  # delta = 1 here, and 2+3+5 = 10 is reachable
        assert sum(res.witness) == 10
        assert res.mode == "approx"


def test_items_above_target_are_unusable():
    inst = SubsetSumInstance(items=(6,), target=5)
    res = approximate_subset_sum(inst, 0.1)
    assert res.value == 0 and res.witness == ()


def test_exact_fallback_small_eps_times_t():
    inst = SubsetSumInstance(items=(3, 5, 7), target=11)
    res = approximate_subset_sum(inst, 0.01)  # eps*t < 1
    assert res.mode == "exact-fallback"
    assert res.value == 10  # 3 + 7
    assert sum(res.witness) == 10


def test_exact_subset_sum_oracle_agreement():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(0, 12))
        items = [int(x) for x in rng.integers(1, 60, size=n)]
        t = int(rng.integers(1, 150))
        value, witness = exact_subset_sum(items, t)
        assert value == bruteforce_opt(items, t)
        assert sum(witness) == value
        assert not (Counter(witness) - Counter(items))


def test_guarantee_randomized_sweep():
    rng = np.random.default_rng(31)
    fails = 0
    runs = 150
    for trial in range(runs):
        n = int(rng.integers(1, 12))
        inst = gen_instance("subsetsum", n, 400, density=float(rng.uniform(0.2, 0.9)), seed=trial)
        eps = [0.25, 0.0625][trial % 2]
        res = approximate_subset_sum(inst, eps, seed=trial)
        opt = bruteforce_opt(inst.items, inst.target)
        report = verify_guarantee(inst, res, eps, opt)
        # feasibility and witness clauses must never fail
        assert report.clauses[0].passed and report.clauses[1].passed and report.clauses[2].passed
        if not report.passed:
            fails += 1
    assert fails <= max(1, runs // 100), f"{fails}/{runs} guarantee misses"


def test_reproducibility_same_seed_same_result():
    inst = gen_instance("subsetsum", 10, 500, seed=5)
    a = approximate_subset_sum(inst, 0.1, seed=42)
    b = approximate_subset_sum(inst, 0.1, seed=42)
    assert a.value == b.value and a.witness == b.witness
    c = approximate_subset_sum(inst, 0.1, seed=43)
    assert isinstance(c.value, int)  # different seed may differ; just runs


def test_reconstruction_every_root_value():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(1, 11))
        items = [int(x) for x in rng.integers(1, 300, size=n)]
        t = int(rng.integers(8, 1500))
        eps = 0.25
        inst = SubsetSumInstance(items=tuple(items), target=t)
        res, trace = approximate_subset_sum(inst, eps, seed=trial, return_trace=True)
        if trace is None:
            continue
        reach = subset_sums_bitset(items, t)
        for v in trace.result:
            w = reconstruct(trace, v)
            assert sum(w) == v, f"trial {trial} value {v}"
            assert not (Counter(w) - Counter(items)), f"trial {trial} value {v}"
            assert (reach >> v) & 1, f"trial {trial}: {v} is not a real subset sum"


def test_reconstruct_rejects_unknown_target():
    inst = SubsetSumInstance(items=(10, 20), target=100)
    res, trace = approximate_subset_sum(inst, 0.2, seed=0, return_trace=True)
    with pytest.raises(ValueError):
        reconstruct(trace, 97)


class RecordingEngine:
    """Wraps an engine, capturing every (A, B, result) call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __call__(self, A, B):
        out = self.inner(A, B)
        self.calls.append((A, B, out))
        return out


def _lift(seq, c):
    from sparsesum.minconv import ExtSeq, UNDEFINED

    return ExtSeq([e if e is UNDEFINED else e + c for e in seq.entries])


def test_per_level_batched_convolutions_bitwise_identical():
    # replaying the solver's engine calls through the packing lemma in
    # groups must reproduce every convolution output exactly
    from sparsesum.minconv import UNDEFINED, batch_min_conv, min_conv

    rng = np.random.default_rng(61)
    items = [int(x) for x in rng.integers(1, 1000, size=10)]
    t, delta = 1000, 50
    p = params_for(len(items), t, delta, seed=4)
    rec = RecordingEngine(min_conv)
    recursive_splitting([x for x in items if x <= t], t, delta, p, engine=rec)
    assert rec.calls

    groups = {}
    for A, B, out in rec.calls:
        groups.setdefault(len(A), []).append((A, B, out))
    for length, calls in groups.items():
        # max-side calls arrive negated; lift the whole group to [0, M]
        low = 0
        for A, B, _ in calls:
            for seq in (A, B):
                defined = [e for e in seq.entries if e is not UNDEFINED]
                if defined:
                    low = min(low, min(defined))
        shift = -low
        lifted = [(_lift(A, shift), _lift(B, shift)) for A, B, _ in calls]
        batched = batch_min_conv(lifted)
        for (A, B, expect), got in zip(calls, batched):
            unlifted = [
                e if e is UNDEFINED else e - 2 * shift for e in got.entries
            ]
            assert tuple(unlifted) == expect.entries, f"group len={length}"


def test_depth_limit_assertion_holds():
    # deep recursion: small items force many levels
    rng = np.random.default_rng(5)
    items = [int(x) for x in rng.integers(1, 30, size=30)]
    t = 4096
    delta = 4
    p = params_for(len(items), t, delta, seed=9)
    a, _ = recursive_splitting(items, t, delta, p)  # must not trip the assert
    assert 0 in a


def test_depth_limit_violation_raises():
    # eta = 1/2 allows one level below the root, but an item above delta
    # that stays small against t_next needs a second one
    p = SchemeParams(confidence=1, k=8, eta=Fraction(1, 2), seed=0)
    assert p.depth_limit == 1
    with pytest.raises(InvariantError, match="recursion depth 2"):
        recursive_splitting([50, 60], 1000, 10, p)
