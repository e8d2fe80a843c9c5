"""Exact (min,+)/(max,+)-convolution over sequences with undefined entries.

The tropical convolution of A and B is C[k] = min_{i+j=k} A[i] + B[j],
with the minimum over the pairs where both entries are defined; an
entry with no defined pair is UNDEFINED. UNDEFINED acts as the neutral
element for both min and max, which is why it is a tag rather than a
huge finite stand-in (the neutral elements +inf and -inf differ).

Engines:
  min_conv        default: enumerates defined index pairs only (naive,
                  worst-case quadratic, cheap on mostly-undefined input)
  min_conv_dense  sweeps the full index grid unconditionally; this is
                  the engine the scaling benchmark uses, because its
                  cost is Theta(|A|*|B|) regardless of sparsity
Both are callables ExtSeq x ExtSeq -> ExtSeq; any callable with that
signature can be plugged into the sumset routines instead. For engines
that cannot represent UNDEFINED natively, sentinel_wrap/sentinel_unwrap
map it to a large finite value and classify it back.

An ExtSeq is a value array plus a defined mask: int64 values when every
entry fits, an object array of Python ints otherwise. Both engines run
their int64 kernels while every entry lies within VAL_LIMIT = 2^59; above
it they run the same pairs kernel on object arrays, which is exact.

batch_min_conv packs many square instances into a single engine call:
instance r (1-based, sizes sorted non-increasing, prefix sums s_r) is
embedded at offset 2*s_r with its entries shifted by r^2*2M, and the
packed output decomposes as C[4*s_r + k] = r^2*4M + C_r[k].
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .core import INT63_MAX

UNDEFINED = None

_WIDE_MAX = 2**127

_to_int = np.frompyfunc(int, 1, 1)


def _stored(values: np.ndarray, defined: np.ndarray, wide: bool) -> np.ndarray:
    """The values with undefined positions zeroed: int64 when every entry
    lies within +-(2^63 - 1), else an object array of Python ints. Raises
    OverflowError for an entry beyond 63 bits (127 bits when wide)."""
    values = np.where(defined, values, 0)
    try:
        narrow = values.astype(np.int64, copy=False)
    except OverflowError:  # an object array holding an entry beyond int64
        narrow = None
    if narrow is not None and narrow.min(initial=0) > -INT63_MAX - 1:
        return narrow
    values = _to_int(values)
    over = np.abs(values) > (_WIDE_MAX if wide else INT63_MAX)
    if over.any():
        raise OverflowError(
            f"entry {values[over][0]} exceeds the {'127' if wide else '63'}-bit bound"
        )
    return values


class ExtSeq:
    """Immutable sequence over (int | UNDEFINED), stored as a value array
    and a defined mask; undefined positions hold 0.

    Defined entries must fit in 63 bits; internal callers (the packing
    lemma) may pass wide=True to allow up to 127 bits, matching the
    wider intermediate budget there.
    """

    __slots__ = ("_values", "_defined", "wide")

    def __init__(self, entries: Iterable, *, wide: bool = False):
        values = np.array(list(entries), dtype=object)
        self._init(values, np.not_equal(values, UNDEFINED), wide)

    def _init(self, values, defined, wide: bool) -> None:
        defined = np.ascontiguousarray(defined, dtype=np.bool_)
        if values.shape != defined.shape or values.ndim != 1:
            raise ValueError("values and defined must be equal-length 1-D arrays")
        self._values = _stored(values, defined, wide)
        self._defined = defined
        self.wide = wide

    @classmethod
    def _of(cls, values: np.ndarray, defined: np.ndarray, wide: bool) -> "ExtSeq":
        seq = cls.__new__(cls)
        seq._init(np.asarray(values), defined, wide)
        return seq

    @classmethod
    def from_arrays(cls, values: np.ndarray, defined: np.ndarray) -> "ExtSeq":
        """Build from a value array and a defined mask; undefined
        positions' values are ignored. Object arrays of Python ints are
        narrowed to int64 when every defined entry fits."""
        return cls._of(values, defined, wide=False)

    @property
    def entries(self) -> tuple:
        return tuple(
            v if d else UNDEFINED
            for v, d in zip(self._values.tolist(), self._defined.tolist())
        )

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._values, self._defined

    @property
    def max_abs(self) -> int:
        return int(np.abs(self._values).max(initial=0))

    def __len__(self) -> int:
        return self._values.size

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtSeq):
            return self.entries == other.entries
        if isinstance(other, (list, tuple)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        shown = ", ".join("_" if e is UNDEFINED else str(e) for e in self.entries[:12])
        tail = ", ..." if len(self) > 12 else ""
        return f"ExtSeq([{shown}{tail}])"

    def negate(self) -> "ExtSeq":
        return ExtSeq._of(-self._values, self._defined, self.wide)


def as_extseq(seq) -> ExtSeq:
    return seq if isinstance(seq, ExtSeq) else ExtSeq(seq)


def _pairs_conv(av, ad, bv, bd) -> tuple[np.ndarray, np.ndarray]:
    apos = np.flatnonzero(ad)
    bpos = np.flatnonzero(bd)
    nc = av.shape[0] + bv.shape[0] - 1
    return _kernels.pairs_minconv(av[apos], apos, bv[bpos], bpos, nc)


class ConvEngine:
    """Callable (min,+)-convolution engine with an array fast path.

    conv_masked(values_a, defined_a, values_b, defined_b) is the int64
    fast path used internally by the sumset routines; __call__ is the
    public ExtSeq interface.
    """

    def __init__(self, name: str, dense: bool):
        self.name = name
        self.dense = dense
        self.__name__ = name

    def __repr__(self):
        return f"<ConvEngine {self.name}>"

    def conv_masked(self, av, ad, bv, bd) -> tuple[np.ndarray, np.ndarray]:
        if not self.dense:
            return _pairs_conv(av, ad, bv, bd)
        a = np.where(ad, av, _kernels.SENT)
        b = np.where(bd, bv, _kernels.SENT)
        raw = _kernels.dense_minconv(a, b)
        defined = raw <= _kernels.DEFINED_MAX
        return np.where(defined, raw, 0), defined

    def __call__(self, A, B) -> ExtSeq:
        A, B = as_extseq(A), as_extseq(B)
        if len(A) < 1 or len(B) < 1:
            raise ValueError("convolution inputs must be non-empty")
        av, ad = A.to_arrays()
        bv, bd = B.to_arrays()
        if A.max_abs <= _kernels.VAL_LIMIT and B.max_abs <= _kernels.VAL_LIMIT:
            return ExtSeq.from_arrays(*self.conv_masked(av, ad, bv, bd))
        cv, cd = _pairs_conv(av.astype(object), ad, bv.astype(object), bd)
        return ExtSeq._of(cv, cd, A.wide or B.wide)


min_conv = ConvEngine("pairs", dense=False)
min_conv_dense = ConvEngine("dense", dense=True)


def max_conv(A, B, engine=None) -> ExtSeq:
    """(max,+)-convolution, computed by negating the defined entries and
    running a (min,+) engine."""
    engine = engine or min_conv
    A, B = as_extseq(A), as_extseq(B)
    return engine(A.negate(), B.negate()).negate()


def sentinel_wrap(A, M: int) -> list[int]:
    """Replace UNDEFINED with the finite sentinel M.

    Requires every defined entry in [-M/4, M/4]. Meant for plugging in
    third-party (min,+) engines without native UNDEFINED support: after
    convolving wrapped inputs, sentinel_unwrap classifies outputs in
    [-M/2, M/2] as genuine and outputs in [3M/4, 2M] as UNDEFINED.
    """
    A = as_extseq(A)
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    out = []
    for e in A.entries:
        if e is UNDEFINED:
            out.append(M)
        else:
            if 4 * abs(e) > M:
                raise ValueError(f"entry {e} outside [-M/4, M/4] for M={M}")
            out.append(e)
    return out


def sentinel_unwrap(seq: Sequence[int], M: int) -> ExtSeq:
    """Classify sentinel-wrapped convolution outputs back to ExtSeq."""
    M = int(M)
    out = []
    for c in seq:
        c = int(c)
        if 2 * abs(c) <= M:
            out.append(c)
        elif 4 * c >= 3 * M and c <= 2 * M:
            out.append(UNDEFINED)
        else:
            raise ValueError(
                f"output {c} falls in neither the value band [-M/2, M/2] "
                f"nor the undefined band [3M/4, 2M]"
            )
    return ExtSeq(out)


_BATCH_BUDGET = 2**126


def batch_min_conv(instances, engine=None) -> list[ExtSeq]:
    """Solve many square (min,+)-convolution instances with one engine call.

    Each instance is a pair (A_r, B_r) with |A_r| = |B_r| = n_r and all
    defined entries in [0, M]. Results are identical to calling the
    engine on each instance individually (elementwise, including
    UNDEFINED positions).

    Packing: sizes sorted non-increasing, s_r = sum of earlier sizes;
    the combined sequences have length 4s with block r's entries at
    offset 2*s_r shifted by r^2*2M, remaining entries UNDEFINED. The
    combined output satisfies C[4*s_r + k] = r^2*4M + C_r[k]; an
    unshifted value above 2M cannot come from block r's own pairs (those
    are bounded by 2M, while cross-block pairs exceed the shift by more
    than 4M), so it is classified back to UNDEFINED.
    """
    engine = engine or min_conv
    pairs = [(as_extseq(a), as_extseq(b)) for a, b in instances]
    if not pairs:
        return []
    big = 1
    for a, b in pairs:
        if len(a) != len(b):
            raise ValueError("packing requires square instances (|A_r| = |B_r|)")
        for seq in (a, b):
            values, _ = seq.to_arrays()  # undefined positions hold 0
            if values.min(initial=0) < 0:
                raise ValueError(f"packing requires entries in [0, M], got {values.min()}")
            big = max(big, int(values.max(initial=0)))
    m = len(pairs)
    shift_top = m * m * 4 * big
    if shift_top >= _BATCH_BUDGET:
        raise OverflowError(
            f"m^2*4M = {shift_top} exceeds the 128-bit intermediate budget"
        )

    order = sorted(range(m), key=lambda r: -len(pairs[r][0]))
    sizes = [len(pairs[r][0]) for r in order]
    prefix = np.cumsum([0, *sizes]).tolist()
    total = prefix[-1]

    packed = []
    for side in (0, 1):
        values = np.zeros(4 * total, dtype=object)
        defined = np.zeros(4 * total, dtype=np.bool_)
        for rank, src in enumerate(order):
            off, nr = 2 * prefix[rank], sizes[rank]
            v, d = pairs[src][side].to_arrays()
            values[off : off + nr] = v.astype(object) + (rank + 1) ** 2 * 2 * big
            defined[off : off + nr] = d
        packed.append(ExtSeq._of(values, defined, wide=True))

    cv, cd = engine(*packed).to_arrays()
    cv = cv.astype(object)

    results: list[ExtSeq | None] = [None] * m
    for rank, src in enumerate(order):
        off, width = 4 * prefix[rank], 2 * sizes[rank] - 1
        val = cv[off : off + width] - (rank + 1) ** 2 * 4 * big
        # cross-block contamination: genuine outputs are <= 2M
        keep = cd[off : off + width] & (val >= 0) & (val <= 2 * big)
        results[src] = ExtSeq.from_arrays(val, keep)
    return results
