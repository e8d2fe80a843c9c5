"""Domain types, instance parsing, and the brute-force subset-sum oracle."""

import numpy as np
import pytest

from sparsesum.core import (
    INFINITY,
    ApproxResult,
    KnapsackInstance,
    ParseError,
    PartitionInstance,
    SparseSet,
    SubsetSumInstance,
    ValidationError,
    dump_instance,
    is_delta_sparse,
    load_instance,
    subset_sums_bruteforce,
    write_instance,
)
from sparsesum.hardness import gap_subset_sum
from sparsesum.partition import bottom_half, greedy_partition_split, weak_round
from sparsesum.subsetsum import (
    SchemeParams,
    color_coding,
    exact_subset_sum,
    greedy_small,
    recursive_splitting,
)
from sparsesum.testkit import naive_sumset


def test_parse_subsetsum_basic(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text("3 10 \n 2 3 5\n")
    inst = load_instance(p, "subsetsum")
    assert inst.items == (2, 3, 5)
    assert inst.target == 10
    assert inst.n == 3


def test_parse_rejects_zero_item(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text("2 5\n0 3\n")
    with pytest.raises(ValidationError):
        load_instance(p, "subsetsum")


def test_parse_duplicates_kept_as_multiset(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text("2 7 \n 4 4\n")
    inst = load_instance(p, "subsetsum")
    assert inst.items == (4, 4)
    assert inst.target == 7


def test_parse_comments_and_knapsack(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("# a knapsack\n2 4 5\n2 3\n3 4  # item two\n")
    inst = load_instance(p, "knapsack")
    assert inst.weights == (2, 3)
    assert inst.values == (3, 4)
    assert inst.budget == 4 and inst.goal == 5
    assert inst.max_number == 5


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 5\n3 x\n")
    with pytest.raises(ParseError) as exc:
        load_instance(p, "subsetsum")
    assert exc.value.line == 2

    p2 = tmp_path / "short.txt"
    p2.write_text("3 5\n1 2\n")
    with pytest.raises(ParseError):
        load_instance(p2, "subsetsum")

    p3 = tmp_path / "long.txt"
    p3.write_text("1 5\n1 2\n")
    with pytest.raises(ParseError):
        load_instance(p3, "subsetsum")


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(7)
    for seed in range(20):
        items = tuple(int(x) for x in rng.integers(1, 1000, size=rng.integers(0, 12)))
        for kind, inst in [
            ("subsetsum", SubsetSumInstance(items=items or (3,), target=int(rng.integers(1, 5000)))),
            ("partition", PartitionInstance(items=items or (3,))),
        ]:
            p = tmp_path / f"{kind}_{seed}.txt"
            write_instance(inst, p)
            assert load_instance(p, kind) == inst
    k = KnapsackInstance(weights=(2, 3, 3), values=(5, -1, 4), budget=6, goal=5)
    p = tmp_path / "k.txt"
    write_instance(k, p)
    assert load_instance(p, "knapsack") == k


def test_validation_63_bit_bound():
    with pytest.raises(ValidationError):
        SubsetSumInstance(items=(2**63,), target=5)
    with pytest.raises(ValidationError):
        SubsetSumInstance(items=(1,), target=2**63)
    # the boundary itself is fine
    SubsetSumInstance(items=(2**63 - 1,), target=2**63 - 1)


def test_subsetsum_instance_rejects_non_integers():
    with pytest.raises(ValidationError):
        SubsetSumInstance(items=(1.7, 2), target=4)
    with pytest.raises(ValidationError):
        SubsetSumInstance(items=(1, 2), target=3.9)
    with pytest.raises(ValidationError):
        SubsetSumInstance(items=("3",), target=4)
    inst = SubsetSumInstance(items=(np.int64(1), np.int32(2)), target=np.uint8(3))
    assert inst.items == (1, 2) and inst.target == 3
    assert all(type(x) is int for x in (*inst.items, inst.target))
    # the SubsetSum layers and the gap decision reject what they used to truncate
    p = SchemeParams.for_instance(2, 100, 10)
    for call in (
        lambda: greedy_small([1.5, 2.5], 10, 3),
        lambda: exact_subset_sum([1.5, 2.5], 3),
        lambda: color_coding([50.7, 60.2], 100, 10, p.k, p),
        lambda: recursive_splitting([50.7, 3.2], 100, 10, p),
        lambda: gap_subset_sum([1.9, 2.9], 4, 0.5),
    ):
        with pytest.raises(ValidationError):
            call()
    assert greedy_small(np.array([1, 2]), 10, 3)[1].prefix_sums == [0, 1, 3]


def test_partition_instance_rejects_non_integers():
    with pytest.raises(ValidationError):
        PartitionInstance(items=(2.5, 2.5))
    with pytest.raises(ValidationError):
        PartitionInstance(items=(2, 2.0))
    assert PartitionInstance(items=np.array([2, 3])).items == (2, 3)
    # the Partition steps reject what they used to truncate
    for call in (
        lambda: greedy_partition_split([1.5, 2.5, 3.9], 2),
        lambda: bottom_half([1.5, 2.7], 1),
        lambda: weak_round([1.5, 2.7, 9.9], 1),
        lambda: weak_round(np.array([1.5, 2.7]), 1),
        lambda: weak_round([1, 2], 1.5),
    ):
        with pytest.raises(ValidationError):
            call()
    assert weak_round(np.array([3, 9], dtype=np.uint8), 2).tolist() == [1, 4]


def test_knapsack_instance_rejects_non_integers():
    good = dict(weights=(1, 2), values=(3, 4), budget=3, goal=5)
    KnapsackInstance(**good)
    for key, bad in (("weights", (1.5, 2)), ("values", (3, 4.2)), ("budget", 3.0), ("goal", 4.5)):
        with pytest.raises(ValidationError):
            KnapsackInstance(**{**good, key: bad})


def test_bruteforce_examples():
    assert subset_sums_bruteforce([2, 3, 5], 7) == [0, 2, 3, 5, 7]
    assert subset_sums_bruteforce([], 5) == [0]
    assert subset_sums_bruteforce([4, 4], 8) == [0, 4, 8]


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        subset_sums_bruteforce([1] * 31, 10)


def test_bruteforce_cap_is_intersection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        items = [int(x) for x in rng.integers(1, 40, size=rng.integers(0, 10))]
        t = int(rng.integers(1, 120))
        full = subset_sums_bruteforce(items, INFINITY)
        assert subset_sums_bruteforce(items, t) == [s for s in full if s <= t]


def test_split_sumset_observation():
    # any subset sum of Z splits uniquely across a partition Z = Z1 ∪ Z2
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(0, 17))
        items = [int(x) for x in rng.integers(1, 50, size=n)]
        t = int(rng.integers(1, 200))
        mask = rng.integers(0, 2, size=n).astype(bool)
        z1 = [x for x, m in zip(items, mask) if m]
        z2 = [x for x, m in zip(items, mask) if not m]
        s1 = subset_sums_bruteforce(z1, t)
        s2 = subset_sums_bruteforce(z2, t)
        assert naive_sumset(s1, s2, t) == subset_sums_bruteforce(items, t)


def test_sparseset_invariants():
    s = SparseSet(np.array([0, 4, 9]), delta=3, cap=10)
    assert len(s) == 3 and s.max() == 9
    assert 4 in s and 5 not in s
    assert s.is_delta_sparse()
    with pytest.raises(ValidationError):
        SparseSet(np.array([3, 3]), delta=1, cap=10)
    with pytest.raises(ValidationError):
        SparseSet(np.array([0, 11]), delta=1, cap=10)
    with pytest.raises(ValidationError):
        SparseSet(np.array([-1, 2]), delta=1, cap=10)
    # infinity cap allows any magnitude
    SparseSet(np.array([0, 10**12]), delta=1, cap=INFINITY)
    assert not is_delta_sparse([0, 1, 2], 2)
    assert is_delta_sparse([0, 1, 2], 1)


def test_sparseset_rejects_non_integer_dtype():
    with pytest.raises(ValidationError):
        SparseSet([1.5, 2.7], delta=1, cap=10)
    with pytest.raises(ValidationError):
        SparseSet(np.array([1.0, 2.0]), delta=1, cap=10)
    with pytest.raises(ValidationError):
        SparseSet(np.array([True]), delta=1, cap=10)
    assert SparseSet(np.array([1, 2], dtype=np.uint32), delta=1, cap=10).elems.dtype == np.int64
    assert len(SparseSet([], delta=1, cap=10)) == 0
    with pytest.raises(ValidationError):
        is_delta_sparse([0.5, 1.5, 2.5], 1)
    elems = np.array([0, 1, 5])
    assert is_delta_sparse(elems, 1) and elems.flags.writeable  # the caller's array stays writable


def test_approx_result_checks_witness_sum():
    r = ApproxResult(value=7, witness=(3, 4), epsilon=0.5, delta=1, mode="approx")
    assert r.to_json_dict()["value"] == 7
    with pytest.raises(ValidationError):
        ApproxResult(value=8, witness=(3, 4), epsilon=0.5, delta=1, mode="approx")
    with pytest.raises(ValidationError):
        ApproxResult(value=0, witness=(), epsilon=0.5, delta=1, mode="nope")
