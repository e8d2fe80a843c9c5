"""Domain types and instance I/O shared by all solver modules.

Conventions:
  - SubsetSum: given positive integers X and a target t, maximize sum(Y)
    over sub-multisets Y of X with sum(Y) <= t. OPT denotes that maximum.
  - Partition is SubsetSum with t = sum(X)/2.
  - S(X;t) is the set of all subset sums of X that are <= t (always
    contains 0). S(X) = S(X;infinity).
  - Inputs are multisets: files may repeat numbers and every algorithm
    here works verbatim on multisets, so duplicates are accepted.
  - All numbers must fit in 63 bits (|x| < 2**63), validated at load.
    Arithmetic that can exceed that range (instance packing, the
    knapsack reduction) is done with Python's exact integers.

Instance text formats (lines starting with '#' are comments):
  subsetsum:  first line "<n> <t>",   then n whitespace-separated items
  partition:  first line "<n>",       then n whitespace-separated items
  knapsack:   first line "<n> <W> <V>", then n lines "w v"
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

# Reserved cap sentinel for uncapped sets. Never encoded as a huge
# finite number; comparisons against ints behave as expected.
INFINITY = math.inf

INT63_MAX = 2**63 - 1

BRUTEFORCE_MAX_ITEMS = 30


class ValidationError(ValueError):
    """An instance violates a domain invariant."""


class InvariantError(RuntimeError):
    """A result failed an internal consistency check (a bug, not bad
    input). Raised instead of asserting, so it survives python -O."""


class ParseError(ValueError):
    """An instance file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _check_int(value, what: str, low: int | None = None) -> int:
    """value as an int. It must be an int or np.integer and, if low is
    given, at least low."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} {value!r} is not an integer")
    if low is not None and value < low:
        raise ValidationError(f"{what} {value} must be >= {low}")
    return int(value)


def _check_int63(value, what: str, low: int | None = None) -> int:
    """_check_int for a value that must also fit in 63 bits."""
    value = _check_int(value, what, low)
    if not (-INT63_MAX - 1 <= value <= INT63_MAX):
        raise ValidationError(f"{what} {value} does not fit in 63 bits")
    return value


def _check_ints(values, what: str, low: int | None = None) -> tuple[int, ...]:
    return tuple(_check_int63(v, what, low) for v in values)


@dataclass(frozen=True)
class SubsetSumInstance:
    """Items X (multiset of positive integers) and target t >= 1."""

    items: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "items", _check_ints(self.items, "item", low=1))
        object.__setattr__(self, "target", _check_int63(self.target, "target", low=1))

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PartitionInstance:
    """Items X; sigma = sum(X) is the quantity everything is stated in."""

    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", _check_ints(self.items, "item", low=1))
        _check_int63(self.sigma, "sigma (total sum)")

    @property
    def sigma(self) -> int:
        return sum(self.items)

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class KnapsackInstance:
    """Weighted/valued items with weight budget W and value goal V.

    Negative values (and zero weights) are permitted because the
    knapsack->gap reduction builds an intermediate instance with both;
    ordinary instances have positive weights and values. M is the
    largest absolute input number and is kept consistent on rebuild.
    """

    weights: tuple[int, ...]
    values: tuple[int, ...]
    budget: int
    goal: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_ints(self.weights, "weight", low=0))
        object.__setattr__(self, "values", _check_ints(self.values, "value"))
        object.__setattr__(self, "budget", _check_int63(self.budget, "budget W", low=1))
        object.__setattr__(self, "goal", _check_int63(self.goal, "goal V", low=1))
        if len(self.weights) != len(self.values):
            raise ValidationError("weights and values differ in length")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def max_number(self) -> int:
        """M: the largest absolute input number."""
        candidates = [self.budget, self.goal]
        candidates.extend(abs(w) for w in self.weights)
        candidates.extend(abs(v) for v in self.values)
        return max(candidates)


def _as_int64_array(elems) -> np.ndarray:
    arr = np.asarray(elems)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"elements must be 63-bit integers, got dtype {arr.dtype}")
    if arr.size and arr.dtype.kind == "u" and arr.max() > INT63_MAX:
        raise ValidationError(f"element {arr.max()} does not fit in 63 bits")
    return np.ascontiguousarray(arr, dtype=np.int64)


@dataclass(frozen=True)
class SparseSet:
    """Sorted set of non-negative integers with sparsity metadata.

    `delta` is the sparsity parameter the set was built for; `cap` is the
    universe bound t (or INFINITY for uncapped sets). The constructor
    validates an integer dtype, strict increase and the cap.
    Delta-sparsity (at most two elements in any window [x, x+delta]) is
    the *intended* state and can be checked with is_delta_sparse(); raw
    convolution collections are only sparse after sparsification, so it
    is not enforced here.
    """

    elems: np.ndarray
    delta: int
    cap: int | float

    def __post_init__(self):
        arr = _as_int64_array(self.elems)
        if arr.ndim != 1:
            raise ValidationError("elems must be one-dimensional")
        if arr.size > 1 and not (np.diff(arr) > 0).all():
            raise ValidationError("elements must be strictly increasing")
        self._seal(arr, self.delta, self.cap)

    @classmethod
    def _trusted(cls, elems: np.ndarray, delta: int, cap: int | float) -> "SparseSet":
        """Internal constructor for an int64 array that is already
        one-dimensional and strictly increasing: the output of a
        sparsification, of a pairs sumset, or a slice of a valid set.
        It skips the checks that read every element; the bounds (first
        element, last element against cap, delta) are still checked."""
        s = object.__new__(cls)
        s._seal(elems, delta, cap)
        return s

    def _seal(self, arr: np.ndarray, delta, cap) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "elems", arr)
        if arr.size and arr[0] < 0:
            raise ValidationError("elements must be non-negative")
        if int(delta) < 0:
            raise ValidationError("delta must be >= 0")
        object.__setattr__(self, "delta", int(delta))
        if cap is not INFINITY:
            cap = int(cap)
            if arr.size and int(arr[-1]) > cap:
                raise ValidationError(f"max element {arr[-1]} exceeds cap {cap}")
        object.__setattr__(self, "cap", cap)

    def __len__(self) -> int:
        return int(self.elems.size)

    def __iter__(self):
        return (int(x) for x in self.elems)

    def __contains__(self, value) -> bool:
        i = int(np.searchsorted(self.elems, value))
        return i < self.elems.size and int(self.elems[i]) == value

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSet):
            return NotImplemented
        return (
            self.delta == other.delta
            and self.cap == other.cap
            and np.array_equal(self.elems, other.elems)
        )

    def max(self) -> int:
        return int(self.elems[-1]) if self.elems.size else 0

    def to_list(self) -> list[int]:
        return [int(x) for x in self.elems]

    def is_delta_sparse(self) -> bool:
        """True iff no three elements a1 < a2 < a3 have a3 <= a1 + delta."""
        return is_delta_sparse(self.elems, self.delta)


def is_delta_sparse(elems, delta: int) -> bool:
    arr = _as_int64_array(elems)
    if arr.size < 3:
        return True
    return bool((arr[2:] - arr[:-2] > delta).all())


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of an approximate solve: `value` is the sum of the
    sub-multiset `witness`. The guarantee on `value` is the solver's:
    see approximate_subset_sum and approximate_partition.
    """

    value: int
    witness: tuple[int, ...]
    epsilon: float
    delta: int
    mode: str  # "approx" | "exact-fallback"
    elapsed_ms: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "witness", tuple(int(x) for x in self.witness))
        object.__setattr__(self, "value", int(self.value))
        if sum(self.witness) != self.value:
            raise ValidationError(
                f"witness sums to {sum(self.witness)}, not the reported {self.value}"
            )
        if self.mode not in ("approx", "exact-fallback"):
            raise ValidationError(f"unknown mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "epsilon": float(self.epsilon),
            "delta": self.delta,
            "mode": self.mode,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _epsilon(epsilon) -> Fraction:
    """The solvers' epsilon as a Fraction; it must lie in (0, 1)."""
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    return eps


def _finish(witness, eps: Fraction, delta: int, mode: str, start: float, trace, return_trace: bool):
    """The solvers' one exit: the ApproxResult of witness, timed from
    the perf_counter reading start, paired with trace if return_trace."""
    result = ApproxResult(
        value=sum(witness),
        witness=tuple(witness),
        epsilon=float(eps),
        delta=delta,
        mode=mode,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )
    return (result, trace) if return_trace else result


# ---------------------------------------------------------------------------
# Instance I/O


def _content_tokens(path) -> list[tuple[int, str]]:
    """All whitespace-separated tokens with their 1-based line numbers,
    comments stripped."""
    tokens: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                tokens.append((lineno, tok))
    return tokens


def _take_int(tokens: list[tuple[int, str]], pos: int, what: str) -> tuple[int, int]:
    if pos >= len(tokens):
        last_line = tokens[-1][0] if tokens else 1
        raise ParseError(f"unexpected end of file, expected {what}", last_line)
    lineno, tok = tokens[pos]
    try:
        return int(tok), lineno
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", lineno) from None


def load_instance(path, kind: str):
    """Parse and validate an instance file.

    kind is one of "subsetsum", "partition", "knapsack". Raises
    ParseError (malformed) or ValidationError (invariant violation),
    both carrying a line number where possible.
    """
    if kind not in ("subsetsum", "partition", "knapsack"):
        raise ValueError(f"unknown instance kind {kind!r}")
    tokens = _content_tokens(path)
    pos = 0
    n, line_n = _take_int(tokens, pos, "item count n")
    pos += 1
    if n < 0:
        raise ParseError(f"item count {n} must be >= 0", line_n)

    try:
        if kind == "subsetsum":
            t, _ = _take_int(tokens, pos, "target t")
            pos += 1
            items = []
            for _ in range(n):
                x, _ = _take_int(tokens, pos, "item")
                pos += 1
                items.append(x)
            inst = SubsetSumInstance(items=tuple(items), target=t)
        elif kind == "partition":
            items = []
            for _ in range(n):
                x, _ = _take_int(tokens, pos, "item")
                pos += 1
                items.append(x)
            inst = PartitionInstance(items=tuple(items))
        else:
            budget, _ = _take_int(tokens, pos, "budget W")
            goal, _ = _take_int(tokens, pos + 1, "goal V")
            pos += 2
            weights, values = [], []
            for _ in range(n):
                w, _ = _take_int(tokens, pos, "weight")
                v, _ = _take_int(tokens, pos + 1, "value")
                pos += 2
                weights.append(w)
                values.append(v)
            inst = KnapsackInstance(
                weights=tuple(weights), values=tuple(values), budget=budget, goal=goal
            )
    except ValidationError as err:
        line = tokens[min(pos, len(tokens) - 1)][0] if tokens else None
        if getattr(err, "line", None) is None:
            err.line = line
        raise

    if pos != len(tokens):
        raise ParseError(
            f"trailing data ({len(tokens) - pos} extra tokens)", tokens[pos][0]
        )
    return inst


def dump_instance(inst) -> str:
    """Serialize an instance back to its text format (round-trip identity)."""
    if isinstance(inst, SubsetSumInstance):
        lines = [f"{inst.n} {inst.target}"]
        if inst.items:
            lines.append(" ".join(str(x) for x in inst.items))
    elif isinstance(inst, PartitionInstance):
        lines = [f"{inst.n}"]
        if inst.items:
            lines.append(" ".join(str(x) for x in inst.items))
    elif isinstance(inst, KnapsackInstance):
        lines = [f"{inst.n} {inst.budget} {inst.goal}"]
        lines.extend(f"{w} {v}" for w, v in zip(inst.weights, inst.values))
    else:
        raise TypeError(f"not an instance: {type(inst).__name__}")
    return "\n".join(lines) + "\n"


def write_instance(inst, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_instance(inst))


# ---------------------------------------------------------------------------
# Brute-force oracle


def subset_sums_bruteforce(items: Iterable[int], cap: int | float = INFINITY) -> list[int]:
    """Exact sorted list of all subset sums <= cap, including 0.

    Oracle use only; guarded to at most 30 items.
    """
    items = [int(x) for x in items]
    if len(items) > BRUTEFORCE_MAX_ITEMS:
        raise ValueError(
            f"brute force guarded to {BRUTEFORCE_MAX_ITEMS} items, got {len(items)}"
        )
    sums = {0}
    for x in items:
        sums |= {s + x for s in sums if s + x <= cap}
    return sorted(sums)
