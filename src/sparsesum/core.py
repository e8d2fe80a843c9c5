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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Reserved cap sentinel for uncapped sets. Never encoded as a huge
# finite number; comparisons against ints behave as expected.
INFINITY = math.inf

INT63_MAX = 2**63 - 1

# Above this magnitude the int64 kernels could overflow a pairwise sum;
# such values take the exact Python-int slow paths.
INT64_SAFE = 2**62 - 1

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


def _check_int63(value: int, what: str, line: int | None = None) -> int:
    value = int(value)
    if not (-INT63_MAX - 1 <= value <= INT63_MAX):
        err = ValidationError(f"{what} {value} does not fit in 63 bits")
        err.line = line
        raise err
    return value


@dataclass(frozen=True)
class SubsetSumInstance:
    """Items X (multiset of positive integers) and target t >= 1."""

    items: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(x) for x in self.items))
        object.__setattr__(self, "target", int(self.target))
        for x in self.items:
            _check_int63(x, "item")
            if x < 1:
                raise ValidationError(f"item {x} must be >= 1")
        _check_int63(self.target, "target")
        if self.target < 1:
            raise ValidationError(f"target {self.target} must be >= 1")

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PartitionInstance:
    """Items X; sigma = sum(X) is the quantity everything is stated in."""

    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(x) for x in self.items))
        for x in self.items:
            _check_int63(x, "item")
            if x < 1:
                raise ValidationError(f"item {x} must be >= 1")
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
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "goal", int(self.goal))
        if len(self.weights) != len(self.values):
            raise ValidationError("weights and values differ in length")
        for w in self.weights:
            _check_int63(w, "weight")
            if w < 0:
                raise ValidationError(f"weight {w} must be >= 0")
        for v in self.values:
            _check_int63(v, "value")
        _check_int63(self.budget, "budget W")
        _check_int63(self.goal, "goal V")
        if self.budget < 1:
            raise ValidationError(f"budget W={self.budget} must be >= 1")
        if self.goal < 1:
            raise ValidationError(f"goal V={self.goal} must be >= 1")

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
    arr = np.asarray(elems, dtype=np.int64)
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SparseSet:
    """Sorted set of non-negative integers with sparsity metadata.

    `delta` is the sparsity parameter the set was built for; `cap` is the
    universe bound t (or INFINITY for uncapped sets). The constructor
    validates strict increase and the cap. Delta-sparsity (at most two
    elements in any window [x, x+delta]) is the *intended* state and can
    be checked with is_delta_sparse(); raw convolution collections are
    only sparse after sparsification, so it is not enforced here.
    """

    elems: np.ndarray
    delta: int
    cap: int | float

    def __post_init__(self):
        arr = _as_int64_array(self.elems)
        object.__setattr__(self, "elems", arr)
        if arr.ndim != 1:
            raise ValidationError("elems must be one-dimensional")
        if arr.size and arr[0] < 0:
            raise ValidationError("elements must be non-negative")
        if arr.size > 1 and not (np.diff(arr) > 0).all():
            raise ValidationError("elements must be strictly increasing")
        if int(self.delta) < 0:
            raise ValidationError("delta must be >= 0")
        object.__setattr__(self, "delta", int(self.delta))
        if self.cap is not INFINITY:
            object.__setattr__(self, "cap", int(self.cap))
            if arr.size and int(arr[-1]) > self.cap:
                raise ValidationError(
                    f"max element {arr[-1]} exceeds cap {self.cap}"
                )

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
    arr = np.asarray(elems, dtype=np.int64)
    if arr.size < 3:
        return True
    return bool((arr[2:] - arr[:-2] > delta).all())


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of an approximate solve.

    The documented contract for `value` is sum-feasibility (value <= t)
    plus value >= min(OPT, (1-epsilon)*t); deterministic for the
    partition scheme, with high probability for the subset-sum scheme.
    """

    value: int
    witness: tuple[int, ...]
    epsilon: float
    delta: int
    mode: str  # "approx" | "exact-fallback"
    elapsed_ms: float = 0.0
    guarantee: str = "value >= min(OPT, (1-epsilon)*t)"

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
