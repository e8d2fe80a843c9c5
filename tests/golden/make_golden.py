"""Golden records: the package's outputs on a fixed, seeded set of inputs.

Every record is keyed by its input and holds what the package returned:
value, witness, delta and mode for a scheme solve, the decision for a
knapsack instance, the witness of a reconstructed root value, the
entries of a convolution, the output of a benchmark workload case.
tests/test_golden.py recomputes all records and compares them with the
committed golden.json, so "same values and witnesses" is a tier-1 check.

A change that alters outputs on purpose regenerates the file in the same
commit and lists the records that changed:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from sparsesum import (
    ExtSeq,
    KnapsackInstance,
    PartitionInstance,
    SubsetSumInstance,
    approximate_partition,
    approximate_subset_sum,
    batch_min_conv,
    bellman_knapsack,
    max_conv,
    min_conv,
    min_conv_dense,
    reconstruct,
    reconstruct_partition,
    solve_knapsack_via_gap,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
PERFBENCH = HERE.parent.parent / "perfbench"

ENGINES = {"pairs": min_conv, "dense": min_conv_dense}
EPSILONS = [Fraction(1, 2**k) for k in range(1, 9)]  # 1/2 .. 1/256
MAGNITUDES = [10, 1000, 10**6, 2**40]
N_SCHEME_CASES = 150


def _solved(result) -> dict:
    return {
        "value": result.value,
        "witness": list(result.witness),
        "delta": result.delta,
        "mode": result.mode,
    }


def _sample(elems, count: int = 5) -> list[int]:
    """Up to count elements of a sorted array, evenly spaced, ends included."""
    idx = np.unique(np.linspace(0, elems.size - 1, num=min(count, elems.size)).round())
    return [int(elems[int(i)]) for i in idx]


def _subset_sum(key: str, items, t: int, eps, seed: int, engine: str = "pairs", roots: bool = False):
    inst = SubsetSumInstance(items=tuple(items), target=t)
    result, trace = approximate_subset_sum(
        inst, eps, seed=seed, engine=ENGINES[engine], return_trace=True
    )
    record = _solved(result)
    if roots and trace is not None:
        record["roots"] = {str(v): reconstruct(trace, v) for v in _sample(trace.result.elems)}
    return f"subsetsum/{key} n={len(items)} t={t} eps={eps} seed={seed} engine={engine}", record


def _partition(key: str, items, eps, engine: str = "pairs", roots: bool = False):
    inst = PartitionInstance(items=tuple(items))
    result, trace = approximate_partition(inst, eps, engine=ENGINES[engine], return_trace=True)
    record = _solved(result)
    if roots and trace is not None:
        record["roots"] = {
            str(s): reconstruct_partition(trace, s) for s in _sample(trace.final)
        }
    return f"partition/{key} n={len(items)} eps={eps} engine={engine}", record


def scheme_records():
    """Both schemes on seeded instances, n from 0 to 40, eps from 1/2 to 1/256."""
    for i in range(N_SCHEME_CASES):
        rng = random.Random(f"golden/{i}")
        n = i % 41
        eps = EPSILONS[i % len(EPSILONS)]
        top = MAGNITUDES[(i // 8) % len(MAGNITUDES)]
        items = [rng.randint(1, top) for _ in range(n)]
        # targets from below the smallest item to above the total
        t = max(1, int(sum(items) * rng.choice([0.1, 0.3, 0.5, 0.9, 1.2])) or rng.randint(1, top))
        roots = i % 10 == 0
        yield _subset_sum(f"seeded-{i}", items, t, eps, rng.randrange(2**31), roots=roots)
        yield _partition(f"seeded-{i}", items, eps, roots=roots)


def exit_records():
    """The exits before the schemes' main paths, and the dense engine."""
    yield _subset_sum("exact-fallback", [3, 5, 9, 14], 20, Fraction(1, 64), 0)
    yield _subset_sum("exact-fallback", [134, 997, 61, 598, 78], 1200, Fraction(1, 2000), 7)
    yield _subset_sum("empty", [], 100, Fraction(1, 4), 0)
    yield _subset_sum("above-target", [500, 700], 100, Fraction(1, 4), 0)
    yield _partition("empty", [], Fraction(1, 4))
    yield _partition("largest-item", [100, 1, 1], Fraction(1, 4))
    yield _partition("largest-item", [7, 3, 2, 1], Fraction(1, 16))
    yield _partition("single", [5], Fraction(1, 8))
    for i, eps in enumerate([Fraction(1, 4), Fraction(1, 16), Fraction(1, 32)]):
        rng = random.Random(f"golden/dense/{i}")
        items = [rng.randint(1, 400) for _ in range(6 + 3 * i)]
        t = sum(items) // 2
        yield _subset_sum(f"dense-{i}", items, t, eps, i, engine="dense", roots=True)
        yield _partition(f"dense-{i}", items, eps, engine="dense", roots=True)


def knapsack_records():
    """Knapsack decisions through the gap reduction, next to the DP."""
    for i in range(24):
        rng = random.Random(f"golden/knapsack/{i}")
        n = rng.randint(3, 10)
        budget = rng.randint(1, 8)
        weights = [rng.randint(1, budget + 2) for _ in range(n)]
        values = [rng.randint(1, 30 if i % 4 else 2**20) for _ in range(n)]
        opt, _ = bellman_knapsack(KnapsackInstance(tuple(weights), tuple(values), budget, 1))
        goal = max(1, opt + rng.choice([-3, -1, 0, 0, 1, 2]))  # both answers near the optimum
        inst = KnapsackInstance(weights=tuple(weights), values=tuple(values), budget=budget, goal=goal)
        key = f"knapsack/seeded-{i} w={weights} v={values} W={budget} V={goal}"
        yield key, {"gap": solve_knapsack_via_gap(inst), "dp": list(bellman_knapsack(inst))}
    weights, values = (0, 1, 2, 3, 1, 2), (5, 4, 7, 1, 2, 3)  # a zero-weight item is folded out
    for goal in (12, 17):
        inst = KnapsackInstance(weights=weights, values=values, budget=3, goal=goal)
        key = f"knapsack/zero-weight w={list(weights)} v={list(values)} W=3 V={goal}"
        yield key, {"gap": solve_knapsack_via_gap(inst), "dp": list(bellman_knapsack(inst))}


def conv_records():
    """Both engines, the (max,+) side, the above-2^59 path and packing."""
    rng = random.Random("golden/conv")
    for i in range(12):
        scale = 2**61 if i % 4 == 3 else 1000
        seqs = [
            [None if rng.random() < 0.3 else rng.randint(-scale, scale) for _ in range(rng.randint(1, 12))]
            for _ in range(2)
        ]
        a, b = ExtSeq(seqs[0]), ExtSeq(seqs[1])
        for name, engine in ENGINES.items():
            record = {"min": list(engine(a, b)), "max": list(max_conv(a, b, engine))}
            yield f"conv/seeded-{i} a={seqs[0]} b={seqs[1]} engine={name}", record
    instances = [
        ([rng.randint(0, 50) for _ in range(n)], [rng.randint(0, 50) for _ in range(n)])
        for n in (3, 1, 4, 2)
    ]
    out = batch_min_conv([(ExtSeq(a), ExtSeq(b)) for a, b in instances])
    yield f"conv/batch {instances}", {"min": [list(c) for c in out]}


def _workloads():
    """perfbench/workloads.py, loaded from its file with its oracles."""
    modules = {}
    for name in ("oracles", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        sys.modules.setdefault(name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["workloads"]


def workload_records():
    """The SubsetSum-based benchmark cases of seeds 1 and 2."""
    import sparsesum

    workloads = _workloads()
    for name in ("subsetsum-saturated", "subsetsum-sparse", "knapsack-gap"):
        for seed in (1, 2):
            for case in workloads.WORKLOADS[name](sparsesum, seed):
                out = case.solve()
                if isinstance(out, tuple):
                    out = {"value": out[0], "witness": list(out[1])}
                yield f"workload/{name} seed={seed} {case.label}", {"output": out}


def records() -> dict:
    out = {}
    for group in (scheme_records, exit_records, knapsack_records, conv_records, workload_records):
        for key, record in group():
            if key in out:
                raise KeyError(f"duplicate golden key {key}")
            out[key] = record
    return out


def render(recs: dict) -> str:
    """golden.json's text: a header, then one record per line."""
    header = {"numpy": np.__version__, "regenerate": "PYTHONPATH=src python tests/golden/make_golden.py"}
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in recs.items()]
    return (
        '{\n "header": ' + json.dumps(header, sort_keys=True)
        + ',\n "records": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )


if __name__ == "__main__":
    GOLDEN.write_text(render(records()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
