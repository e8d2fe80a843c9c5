"""Tropical convolution engines vs the double-loop oracle, sentinel
wrapping, and the multi-instance packing construction."""

import numpy as np
import pytest

from sparsesum._kernels import VAL_LIMIT
from sparsesum.minconv import (
    UNDEFINED,
    ExtSeq,
    batch_min_conv,
    max_conv,
    min_conv,
    min_conv_dense,
    sentinel_unwrap,
    sentinel_wrap,
)
from sparsesum.testkit import minconv_oracle

B = UNDEFINED  # shorthand in expectations


def seq(*entries):
    return ExtSeq(entries)


def random_extseq(rng, max_len=16, max_val=1000, undef_p=0.3, allow_negative=True):
    n = int(rng.integers(1, max_len + 1))
    lo = -max_val if allow_negative else 0
    vals = rng.integers(lo, max_val + 1, size=n)
    undef = rng.random(n) < undef_p
    return ExtSeq([B if u else int(v) for v, u in zip(vals, undef)])


def test_min_conv_examples():
    assert min_conv(seq(0), seq(0)) == (0,)
    assert min_conv(seq(1, 3), seq(2, 5)) == (3, 5, 8)
    assert min_conv(seq(1, B), seq(B, 4)) == (B, 5, B)


def test_max_conv_examples():
    assert max_conv(seq(0), seq(0)) == (0,)
    assert max_conv(seq(1, 3), seq(2, 5)) == (3, 6, 8)
    assert max_conv(seq(B, B), seq(1)) == (B, B)


def test_length_contract_and_empty_inputs():
    out = min_conv(seq(1, 2, 3), seq(4, 5))
    assert len(out) == 4
    with pytest.raises(ValueError):
        min_conv(seq(), seq(1))


def test_engines_match_oracle_randomized():
    rng = np.random.default_rng(12345)
    for trial in range(300):
        A = random_extseq(rng)
        Bs = random_extseq(rng)
        expect = tuple(minconv_oracle(A, Bs))
        got_pairs = min_conv(A, Bs)
        got_dense = min_conv_dense(A, Bs)
        assert got_pairs == expect, f"pairs engine mismatch at trial {trial}"
        assert got_dense == expect, f"dense engine mismatch at trial {trial}"
        expect_max = tuple(minconv_oracle(A, Bs, use_max=True))
        assert max_conv(A, Bs) == expect_max, f"max mismatch at trial {trial}"


def test_max_geq_min_where_both_defined():
    rng = np.random.default_rng(99)
    for _ in range(100):
        A = random_extseq(rng)
        Bs = random_extseq(rng)
        lo = min_conv(A, Bs).entries
        hi = max_conv(A, Bs).entries
        for x, y in zip(lo, hi):
            assert (x is B) == (y is B)
            if x is not B:
                assert y >= x


def test_python_bigint_path_matches():
    # An entry above the int64 kernel range sends both engines to the
    # exact Python-int loop; entries within 2^62 keep every sum 63-bit.
    rng = np.random.default_rng(61)
    for trial in range(200):
        A, Bs = (
            random_extseq(rng, max_val=2**62 - 1, allow_negative=bool(trial % 2))
            for _ in range(2)
        )
        A = ExtSeq([VAL_LIMIT + 1 + int(rng.integers(2**61)), *A])
        assert A.max_abs > VAL_LIMIT
        expect = tuple(minconv_oracle(A, Bs))
        expect_max = tuple(minconv_oracle(A, Bs, use_max=True))
        for engine in (min_conv, min_conv_dense):
            assert engine(A, Bs) == expect, f"{engine.name} mismatch at trial {trial}"
            assert max_conv(A, Bs, engine) == expect_max, f"{engine.name} max at trial {trial}"
    for engine in (min_conv, min_conv_dense):
        with pytest.raises(OverflowError):
            engine(seq(2**62), seq(2**62))  # defined sum leaves the 63-bit range


def test_extseq_validation():
    with pytest.raises(OverflowError):
        ExtSeq([2**63])
    ExtSeq([2**63 - 1])  # boundary ok
    ExtSeq([2**70], wide=True)  # internal wide sequences allow up to 127 bits
    s = ExtSeq([1, B, 3])
    assert list(s) == [1, B, 3]
    assert s == ExtSeq([1, B, 3])
    assert s != ExtSeq([1, 2, 3])


def test_sentinel_wrap_examples():
    assert sentinel_wrap(seq(1, B), 100) == [1, 100]
    assert sentinel_unwrap([3, 180], 100) == (3, B)
    with pytest.raises(ValueError):
        sentinel_wrap(seq(30), 100)  # 30 > M/4
    with pytest.raises(ValueError):
        sentinel_unwrap([60], 100)  # in the unclassifiable gap


def test_sentinel_roundtrip_through_plain_engine():
    rng = np.random.default_rng(5)
    for _ in range(100):
        M = 10_000
        A = random_extseq(rng, max_len=10, max_val=M // 4)
        Bv = random_extseq(rng, max_len=10, max_val=M // 4)
        wa, wb = sentinel_wrap(A, M), sentinel_wrap(Bv, M)
        raw = min_conv(ExtSeq(wa), ExtSeq(wb)).entries  # plain engine, no UNDEFINED
        assert sentinel_unwrap(raw, M) == min_conv(A, Bv)


def test_batch_examples():
    out = batch_min_conv([(seq(1, 3), seq(2, 5))])
    assert out[0] == (3, 5, 8)
    out = batch_min_conv([(seq(0), seq(0)), (seq(1), seq(1))])
    assert out[0] == (0,) and out[1] == (2,)
    assert batch_min_conv([]) == []


def test_batch_matches_per_instance_randomized():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        m = int(rng.integers(1, 6))
        instances = []
        for _ in range(m):
            n = int(rng.integers(1, 9))
            mk = lambda: ExtSeq(
                [
                    B if rng.random() < 0.25 else int(rng.integers(0, 51))
                    for _ in range(n)
                ]
            )
            instances.append((mk(), mk()))
        got = batch_min_conv(instances)
        for r, (a, b) in enumerate(instances):
            assert got[r] == min_conv(a, b), f"trial {trial} instance {r}"


def test_batch_wide_shift_takes_bigint_path():
    # shifted entries exceed the int64-safe kernel range, forcing the
    # exact Python path inside the packed call; per-instance calls stay
    # on the kernel path, and the two must agree
    big = 2**58
    instances = [
        (seq(big, 0), seq(0, big)),
        (seq(big - 5, B), seq(3, big)),
        (seq(1, 2), seq(3, 4)),
    ]
    got = batch_min_conv(instances)
    for r, (a, b) in enumerate(instances):
        assert got[r] == min_conv(a, b), f"instance {r}"


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        batch_min_conv([(seq(1, 2), seq(1))])  # not square
    with pytest.raises(ValueError):
        batch_min_conv([(seq(-1), seq(1))])  # negative entry
    wide = ExtSeq([2**120], wide=True)
    with pytest.raises(OverflowError):
        batch_min_conv([(wide, wide)] * 4)  # m^2*4M breaches the 128-bit budget
