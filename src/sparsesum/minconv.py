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

# Alias the kernel-side constants. ConvEngine.__call__ runs the int64
# kernels when every entry lies within VAL_LIMIT and the exact Python-int
# loop otherwise.
_VAL_LIMIT = _kernels.VAL_LIMIT
_SENT = _kernels.SENT
_DEFINED_MAX = _kernels.DEFINED_MAX


class ExtSeq:
    """Immutable sequence over (int | UNDEFINED).

    Defined entries must fit in 63 bits; internal callers (the packing
    lemma) may pass wide=True to allow up to 127 bits, matching the
    wider intermediate budget there.
    """

    __slots__ = ("_entries", "_values", "_defined", "_max_abs", "wide")

    def __init__(self, entries: Iterable, *, wide: bool = False):
        ents = []
        max_abs = 0
        limit = _WIDE_MAX if wide else INT63_MAX
        for e in entries:
            if e is UNDEFINED:
                ents.append(UNDEFINED)
                continue
            v = int(e)
            if abs(v) > limit:
                raise OverflowError(
                    f"entry {v} exceeds the {'127' if wide else '63'}-bit bound"
                )
            if abs(v) > max_abs:
                max_abs = abs(v)
            ents.append(v)
        self._entries = tuple(ents)
        self._max_abs = max_abs
        self._values = None
        self._defined = None
        self.wide = wide

    @classmethod
    def from_arrays(cls, values: np.ndarray, defined: np.ndarray) -> "ExtSeq":
        """Build from an int64 value array and a defined mask (no copy of
        semantics: undefined positions' values are ignored)."""
        seq = cls.__new__(cls)
        values = np.ascontiguousarray(values, dtype=np.int64)
        defined = np.ascontiguousarray(defined, dtype=np.bool_)
        if values.shape != defined.shape or values.ndim != 1:
            raise ValueError("values and defined must be equal-length 1-D arrays")
        seq._entries = None
        seq._values = values
        seq._defined = defined
        seq._max_abs = int(np.abs(values[defined]).max()) if defined.any() else 0
        seq.wide = False
        return seq

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            vals = self._values.tolist()
            defs = self._defined.tolist()
            self._entries = tuple(v if d else UNDEFINED for v, d in zip(vals, defs))
        return self._entries

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._values is None:
            n = len(self._entries)
            values = np.zeros(n, dtype=np.int64)
            defined = np.zeros(n, dtype=np.bool_)
            for i, e in enumerate(self._entries):
                if e is not UNDEFINED:
                    values[i] = e
                    defined[i] = True
            self._values = values
            self._defined = defined
        return self._values, self._defined

    @property
    def max_abs(self) -> int:
        return self._max_abs

    def __len__(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        return int(self._values.size)

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
        if self._entries is None and self._max_abs <= _VAL_LIMIT:
            return ExtSeq.from_arrays(-self._values, self._defined)
        return ExtSeq(
            (UNDEFINED if e is UNDEFINED else -e for e in self.entries),
            wide=self.wide,
        )


def as_extseq(seq) -> ExtSeq:
    return seq if isinstance(seq, ExtSeq) else ExtSeq(seq)


def _python_minconv(A: ExtSeq, B: ExtSeq) -> list:
    """Exact Python-int reference path over the defined pairs, used when
    values exceed the int64-safe kernel range."""
    ea, eb = A.entries, B.entries
    out = [UNDEFINED] * (len(ea) + len(eb) - 1)
    adef = [(i, v) for i, v in enumerate(ea) if v is not UNDEFINED]
    bdef = [(j, v) for j, v in enumerate(eb) if v is not UNDEFINED]
    for i, ai in adef:
        for j, bj in bdef:
            s = ai + bj
            cur = out[i + j]
            if cur is UNDEFINED or s < cur:
                out[i + j] = s
    return out


def _check_output_width(entries, wide: bool):
    limit = _WIDE_MAX if wide else INT63_MAX
    for e in entries:
        if e is not UNDEFINED and abs(e) > limit:
            raise OverflowError(f"convolution output {e} overflows the 63-bit range")


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
        nc = av.shape[0] + bv.shape[0] - 1
        if self.dense:
            a = np.where(ad, av, _SENT)
            b = np.where(bd, bv, _SENT)
            raw = _kernels.dense_minconv(a, b)
            defined = raw <= _DEFINED_MAX
            return np.where(defined, raw, 0), defined
        apos = np.flatnonzero(ad).astype(np.int64)
        bpos = np.flatnonzero(bd).astype(np.int64)
        cv, cd = _kernels.pairs_minconv(av[apos], apos, bv[bpos], bpos, nc)
        return np.where(cd, cv, 0), cd

    def __call__(self, A, B) -> ExtSeq:
        A, B = as_extseq(A), as_extseq(B)
        if len(A) < 1 or len(B) < 1:
            raise ValueError("convolution inputs must be non-empty")
        if A.max_abs <= _VAL_LIMIT and B.max_abs <= _VAL_LIMIT:
            av, ad = A.to_arrays()
            bv, bd = B.to_arrays()
            cv, cd = self.conv_masked(av, ad, bv, bd)
            return ExtSeq.from_arrays(cv, cd)
        wide = A.wide or B.wide
        out = _python_minconv(A, B)
        _check_output_width(out, wide)
        return ExtSeq(out, wide=wide)


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
            for e in seq.entries:
                if e is UNDEFINED:
                    continue
                if e < 0:
                    raise ValueError(f"packing requires entries in [0, M], got {e}")
                if e > big:
                    big = e
    m = len(pairs)
    shift_top = m * m * 4 * big
    if shift_top >= _BATCH_BUDGET:
        raise OverflowError(
            f"m^2*4M = {shift_top} exceeds the 128-bit intermediate budget"
        )

    order = sorted(range(m), key=lambda r: -len(pairs[r][0]))
    sizes = [len(pairs[r][0]) for r in order]
    prefix = [0]
    for nr in sizes:
        prefix.append(prefix[-1] + nr)
    total = prefix[-1]

    comb_a: list = [UNDEFINED] * (4 * total)
    comb_b: list = [UNDEFINED] * (4 * total)
    for rank, src in enumerate(order):
        shift = (rank + 1) * (rank + 1) * 2 * big
        off = 2 * prefix[rank]
        ea, eb = pairs[src][0].entries, pairs[src][1].entries
        for i, e in enumerate(ea):
            if e is not UNDEFINED:
                comb_a[off + i] = shift + e
        for j, e in enumerate(eb):
            if e is not UNDEFINED:
                comb_b[off + j] = shift + e

    combined = engine(ExtSeq(comb_a, wide=True), ExtSeq(comb_b, wide=True))
    centries = combined.entries

    results: list[ExtSeq | None] = [None] * m
    for rank, src in enumerate(order):
        unshift = (rank + 1) * (rank + 1) * 4 * big
        off = 4 * prefix[rank]
        nr = sizes[rank]
        out = []
        for k in range(2 * nr - 1):
            raw = centries[off + k]
            if raw is UNDEFINED:
                out.append(UNDEFINED)
                continue
            val = raw - unshift
            # cross-block contamination: genuine outputs are <= 2M
            out.append(val if 0 <= val <= 2 * big else UNDEFINED)
        _check_output_width(out, wide=False)
        results[src] = ExtSeq(out)
    return results
