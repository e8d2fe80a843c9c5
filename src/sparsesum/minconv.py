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
signature can be plugged into the sumset routines instead. Both run a
kernel of _kernels, which take and return a value array and a defined
mask; the dense kernel keeps its finite stand-in for UNDEFINED to itself.

An ExtSeq is an int64 value array plus a defined mask; a defined entry
that is not an int or np.integer raises TypeError, and one beyond
+-(2^63 - 1) raises OverflowError. Both engines run their int64
kernels while every entry lies within VAL_LIMIT = 2^59; above it they run
the same pairs kernel on transient object arrays of Python ints, which is
exact, and narrow the result back to int64.

batch_min_conv packs many square instances into a single engine call:
instance r (1-based, sizes sorted non-increasing, prefix sums s_r) is
embedded at offset 2*s_r with its entries shifted by r^2*2M, and the
packed output decomposes as C[4*s_r + k] = r^2*4M + C_r[k]. The shifts
cost O(log m) bits, so the packing stays in int64 while (4m^2+2)*M does.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import _kernels
from .core import INT63_MAX

UNDEFINED = None


def _stored(values: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """The values as int64 with undefined positions zeroed. Raises
    TypeError for a defined entry that is not an int or np.integer and
    OverflowError for one beyond +-(2^63 - 1)."""
    values = np.where(defined, values, 0)
    if values.dtype.kind == "O":
        integral = all(isinstance(v, (int, np.integer)) for v in values.tolist())
    else:
        integral = values.dtype.kind in "iu"
    if not integral:
        raise TypeError("ExtSeq entries must be int or np.integer values, or UNDEFINED")
    try:
        narrow = values.astype(np.int64, copy=False)
    except OverflowError:  # an object array holding an entry beyond int64
        narrow = None
    if narrow is not None and narrow.min(initial=0) >= -INT63_MAX:
        return narrow
    bad = next(v for v in values.tolist() if abs(v) > INT63_MAX)
    raise OverflowError(f"entry {bad} exceeds the 63-bit bound")


class ExtSeq:
    """Immutable sequence over (int | UNDEFINED), stored as an int64 value
    array and a defined mask; undefined positions hold 0. Defined entries
    must fit in 63 bits."""

    __slots__ = ("_values", "_defined")

    def __init__(self, entries: Iterable):
        values = np.array(list(entries), dtype=object)
        self._init(values, np.not_equal(values, UNDEFINED))

    def _init(self, values, defined) -> None:
        defined = np.ascontiguousarray(defined, dtype=np.bool_)
        if values.shape != defined.shape or values.ndim != 1:
            raise ValueError("values and defined must be equal-length 1-D arrays")
        self._values = _stored(values, defined)
        self._defined = defined

    @classmethod
    def from_arrays(cls, values: np.ndarray, defined: np.ndarray) -> "ExtSeq":
        """Build from a value array and a defined mask; undefined
        positions' values are ignored. Object arrays of Python ints are
        narrowed to int64."""
        seq = cls.__new__(cls)
        seq._init(np.asarray(values), defined)
        return seq

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
        return ExtSeq.from_arrays(-self._values, self._defined)


def as_extseq(seq) -> ExtSeq:
    return seq if isinstance(seq, ExtSeq) else ExtSeq(seq)


class ConvEngine:
    """Callable (min,+)-convolution engine with an array fast path.

    __call__ is the public ExtSeq interface. Within VAL_LIMIT it calls
    conv_masked(values_a, defined_a, values_b, defined_b), which runs the
    engine's int64 kernel; that stays a separate method so that a tracer
    can patch the kernel call by name. Above VAL_LIMIT both engines run
    the pairs kernel on object arrays of Python ints.
    """

    def __init__(self, name: str, dense: bool):
        self.name = name
        self.dense = dense
        self.__name__ = name

    def __repr__(self):
        return f"<ConvEngine {self.name}>"

    def conv_masked(self, av, ad, bv, bd) -> tuple[np.ndarray, np.ndarray]:
        kernel = _kernels.dense_minconv if self.dense else _kernels.pairs_minconv
        return kernel(av, ad, bv, bd)

    def __call__(self, A, B) -> ExtSeq:
        A, B = as_extseq(A), as_extseq(B)
        if len(A) < 1 or len(B) < 1:
            raise ValueError("convolution inputs must be non-empty")
        av, ad = A.to_arrays()
        bv, bd = B.to_arrays()
        if A.max_abs <= _kernels.VAL_LIMIT and B.max_abs <= _kernels.VAL_LIMIT:
            return ExtSeq.from_arrays(*self.conv_masked(av, ad, bv, bd))
        return ExtSeq.from_arrays(*_kernels.pairs_minconv(av.astype(object), ad, bv.astype(object), bd))


min_conv = ConvEngine("pairs", dense=False)
min_conv_dense = ConvEngine("dense", dense=True)


def max_conv(A, B, engine=None) -> ExtSeq:
    """(max,+)-convolution, computed by negating the defined entries and
    running a (min,+) engine."""
    engine = engine or min_conv
    A, B = as_extseq(A), as_extseq(B)
    return engine(A.negate(), B.negate()).negate()


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
    than 4M), so it is classified back to UNDEFINED. The largest packed
    pair sum is (4m^2+2)*M; above 2^63 - 1 this raises OverflowError.
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
    top = (4 * m * m + 2) * big
    if top > INT63_MAX:
        raise OverflowError(f"the largest packed sum (4m^2+2)*M = {top} exceeds 63 bits")

    order = sorted(range(m), key=lambda r: -len(pairs[r][0]))
    sizes = [len(pairs[r][0]) for r in order]
    prefix = np.cumsum([0, *sizes]).tolist()
    total = prefix[-1]

    packed = []
    for side in (0, 1):
        values = np.zeros(4 * total, dtype=np.int64)
        defined = np.zeros(4 * total, dtype=np.bool_)
        for rank, src in enumerate(order):
            off, nr = 2 * prefix[rank], sizes[rank]
            v, d = pairs[src][side].to_arrays()
            values[off : off + nr] = v + (rank + 1) ** 2 * 2 * big
            defined[off : off + nr] = d
        packed.append(ExtSeq.from_arrays(values, defined))

    cv, cd = engine(*packed).to_arrays()

    results: list[ExtSeq | None] = [None] * m
    for rank, src in enumerate(order):
        off, width = 4 * prefix[rank], 2 * sizes[rank] - 1
        val = cv[off : off + width] - (rank + 1) ** 2 * 4 * big
        # cross-block contamination: genuine outputs are <= 2M
        keep = cd[off : off + width] & (val >= 0) & (val <= 2 * big)
        results[src] = ExtSeq.from_arrays(val, keep)
    return results
