"""Batch command-line front door: generate, solve, reduce, verify, bench.

Subcommands:
  gen      write a reproducible random instance
  solve    run a scheme on an instance file (subsetsum, partition,
           knapsack via DP or via the gap reduction)
  reduce   knapsack-to-gap: emit the reduction's subset-sum instance
  verify   solve and check the guarantee against brute force
  bench    runtime scaling sweeps with a fitted exponent

Exit codes: 0 success, 1 solve/verify/runtime failure, 2 usage error.
JSON goes to stdout with --json; benches emit CSV rows
`problem,eps,L,seed,elapsed_ms,value` (for minconv rows the eps column
carries the sequence length).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .core import (
    InvariantError,
    ParseError,
    SubsetSumInstance,
    ValidationError,
    load_instance,
    write_instance,
)
from .hardness import bellman_knapsack, gap_subset_sum, knapsack_to_gap_instance, solve_knapsack_via_gap
from .minconv import ExtSeq, min_conv, min_conv_dense
from .partition import approximate_partition
from .subsetsum import approximate_subset_sum
from .testkit import bruteforce_opt, gen_instance, verify_guarantee

ENGINES = {"pairs": min_conv, "dense": min_conv_dense}

# brute-force verification is exponential; refuse beyond this
VERIFY_MAX_ITEMS = 24


def parse_eps(text: str) -> Fraction:
    """Accept '0.25', '1/4', and '2^-6'; anything else, a zero
    denominator included, raises ValueError."""
    text = text.strip()
    try:
        if "^" in text:
            base, exp = text.split("^", 1)
            return Fraction(int(base)) ** int(exp)
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"eps {text!r} divides by zero") from None


def parse_eps_sweep(text: str) -> list[Fraction]:
    """Geometric sweep '2^-6..2^-13' or an explicit comma list."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = parse_eps(lo_s), parse_eps(hi_s)
        if lo <= 0 or hi <= 0:
            raise ValueError(f"eps sweep {text!r} needs positive bounds")
        if lo < hi:
            lo, hi = hi, lo
        out = []
        cur = lo
        while cur >= hi:
            out.append(cur)
            cur = cur / 2
        return out
    return [parse_eps(tok) for tok in text.split(",") if tok.strip()]


def fit_exponent(xs, times) -> float:
    """Least-squares slope of log(time) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    lt = np.log(np.asarray(times, dtype=float))
    slope, _ = np.polyfit(lx, lt, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    inst = gen_instance(
        args.kind,
        n=args.n,
        max_item=args.max_item,
        density=args.density,
        seed=args.seed,
        style=args.style,
    )
    if args.out:
        write_instance(inst, args.out)
        print(f"wrote {args.kind} instance (n={inst.n}, seed={args.seed}) to {args.out}")
    else:
        from .core import dump_instance

        sys.stdout.write(dump_instance(inst))
    return 0


# ---------------------------------------------------------------------------
# solve


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_json_dict()))
    else:
        print(f"value      {result.value}")
        print(f"witness    {list(result.witness)}")
        print(f"epsilon    {result.epsilon}")
        print(f"delta      {result.delta}")
        print(f"mode       {result.mode}")
        print(f"elapsed_ms {result.elapsed_ms:.3f}")


def _cmd_solve(args) -> int:
    if args.problem == "subsetsum":
        inst = load_instance(args.input, "subsetsum")
        result = approximate_subset_sum(
            inst,
            parse_eps(args.eps),
            seed=args.seed,
            confidence=args.confidence,
            engine=ENGINES[args.engine],
        )
        _print_result(result, args.json)
        return 0
    if args.problem == "partition":
        inst = load_instance(args.input, "partition")
        result = approximate_partition(
            inst, parse_eps(args.eps), L=args.L, engine=ENGINES[args.engine]
        )
        _print_result(result, args.json)
        return 0
    # knapsack
    inst = load_instance(args.input, "knapsack")
    start = time.perf_counter()
    if args.via == "dp":
        opt, decision = bellman_knapsack(inst)
        payload = {"solvable": decision, "opt": opt, "via": "dp"}
    else:
        decision = solve_knapsack_via_gap(
            inst, lambda X, t, e: gap_subset_sum(X, t, e, seed=args.seed)
        )
        payload = {"solvable": decision, "via": "gap"}
    payload["elapsed_ms"] = round((time.perf_counter() - start) * 1e3, 3)
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k:10} {v}")
    return 0


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args) -> int:
    inst = load_instance(args.input, "knapsack")
    xs, t, eps = knapsack_to_gap_instance(inst)
    gap_inst = SubsetSumInstance(items=tuple(xs), target=t)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"# gap-subset-sum instance, eps = {eps}\n")
        from .core import dump_instance

        fh.write(dump_instance(gap_inst))
    meta = {"n": len(xs), "t": t, "eps": str(eps), "output": str(args.output)}
    print(json.dumps(meta))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    inst = load_instance(args.input, args.problem)
    if inst.n > VERIFY_MAX_ITEMS:
        print(f"error: brute-force verification capped at {VERIFY_MAX_ITEMS} items", file=sys.stderr)
        return 1
    eps = parse_eps(args.eps)
    if args.problem == "partition":
        opt = bruteforce_opt(inst.items, inst.sigma // 2)
    else:
        opt = bruteforce_opt(inst.items, inst.target)

    seeds = list(range(args.seed, args.seed + args.trials))

    def one(seed: int):
        if args.problem == "partition":
            res = approximate_partition(inst, eps)
        else:
            res = approximate_subset_sum(inst, eps, seed=seed, confidence=args.confidence)
        return seed, verify_guarantee(inst, res, eps, opt)

    reports = [one(s) for s in seeds]

    failures = [seed for seed, rep in reports if not rep.passed]
    rate = len(failures) / len(reports)
    print(
        f"trials={len(reports)} seeds={seeds[0]}..{seeds[-1]} "
        f"failures={len(failures)} rate={rate:.4f}"
    )
    if failures:
        print(f"failing seeds: {failures}")
    first_seed, first_rep = reports[0]
    print(f"seed {first_seed}: {first_rep}")
    if rate > args.max_fail_rate:
        return 1
    return 0


# ---------------------------------------------------------------------------
# bench


def _bench_subsetsum_instance(n: int, seed: int) -> SubsetSumInstance:
    t = 1 << 26
    rng = np.random.default_rng(seed)
    items = tuple(int(x) for x in rng.integers(t // 4, t + 1, size=n))
    return SubsetSumInstance(items=items, target=t)


def _bench_partition_instance(n: int, seed: int):
    from .core import PartitionInstance

    rng = np.random.default_rng(seed)
    items = tuple(int(x) for x in rng.integers(1, (1 << 24) + 1, size=n))
    return PartitionInstance(items=items)


def _time_solve(fn, repeat: int) -> tuple[float, int]:
    """Monotonic-clock timing, best of `repeat` runs. The sweep drivers
    discard a separate warm-up run first; file I/O happens outside."""
    best = float("inf")
    value = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = fn()
        dt = (time.perf_counter() - t0) * 1e3
        best = min(best, dt)
        value = res
    return best, value


def bench_scaling(
    problem: str,
    eps_list,
    repeat: int = 1,
    n: int | None = None,
    seed: int = 0,
    confidence: int = 1,
    engine_name: str = "dense",
    L=None,
) -> dict:
    """Time a solver across a geometric eps sweep and fit the runtime
    exponent in 1/eps. Returns {"rows": [...], "exponent": float}.

    The default engine is the dense (full-grid) quadratic one: the
    sweep's purpose is to show engine-driven scaling, which the
    sparsity-skipping engine would hide. confidence defaults to 1 here;
    it multiplies round counts uniformly and cannot move the exponent.
    """
    engine = ENGINES[engine_name]
    rows = []
    times = []
    inv_eps = []

    def run_one(eps: Fraction):
        if problem == "subsetsum":
            inst = _bench_subsetsum_instance(n or 4, seed)
            fn = lambda: approximate_subset_sum(
                inst, eps, seed=seed, confidence=confidence, engine=engine
            ).value
            L_col = ""
        elif problem == "partition":
            inst = _bench_partition_instance(n or 32, seed)
            fn = lambda: approximate_partition(inst, eps, L=L, engine=engine).value
            from .partition import _pick_L

            L_col = L if L is not None else _pick_L(eps, inst.sigma)
        else:
            raise ValueError(f"unknown bench problem {problem!r}")
        elapsed, value = _time_solve(fn, repeat)
        return L_col, elapsed, value

    # one discarded warm-up at the cheapest point (imports, allocator)
    run_one(max(eps_list))
    for eps in eps_list:
        L_col, elapsed, value = run_one(eps)
        rows.append(
            {
                "problem": problem,
                "eps": float(eps),
                "L": L_col,
                "seed": seed,
                "elapsed_ms": round(elapsed, 3),
                "value": value,
            }
        )
        times.append(elapsed)
        inv_eps.append(float(1 / eps))

    return {"rows": rows, "exponent": fit_exponent(inv_eps, times)}


def bench_nsweep(
    problem: str,
    n_list,
    eps,
    repeat: int = 1,
    seed: int = 0,
    confidence: int = 4,
    engine_name: str = "pairs",
) -> dict:
    """Time a solver across instance sizes at fixed eps and fit the
    runtime exponent in n. Uses the sparsity-skipping engine so the
    n-dominated regime is visible (the dense engine's fixed
    convolution cost would flatten the trend)."""
    engine = ENGINES[engine_name]
    eps = Fraction(eps)
    rows = []
    times = []

    def run_one(n: int):
        rng = np.random.default_rng(seed + n)
        items = tuple(int(x) for x in rng.integers(1, 10**6, size=n))
        t = max(8, sum(items) // 2)
        inst = SubsetSumInstance(items=items, target=t)
        if problem == "subsetsum":
            fn = lambda: approximate_subset_sum(
                inst, eps, seed=seed, confidence=confidence, engine=engine
            ).value
        elif problem == "partition":
            from .core import PartitionInstance

            pinst = PartitionInstance(items=items)
            fn = lambda: approximate_partition(pinst, eps, engine=engine).value
        else:
            raise ValueError(f"unknown bench problem {problem!r}")
        return _time_solve(fn, repeat)

    run_one(min(n_list))  # discarded warm-up
    for n in n_list:
        elapsed, value = run_one(n)
        rows.append(
            {
                "problem": problem,
                "eps": float(eps),
                "L": "",
                "seed": seed,
                "elapsed_ms": round(elapsed, 3),
                "value": value,
            }
        )
        times.append(elapsed)
    return {"rows": rows, "exponent": fit_exponent(list(n_list), times)}


def bench_minconv(sizes, repeat: int = 1, seed: int = 0, engine_name: str = "dense") -> dict:
    """Time raw engine calls over full-defined random sequences."""
    engine = ENGINES[engine_name]
    rng = np.random.default_rng(seed)
    rows = []
    times = []
    warm = ExtSeq([1, 2, 3])
    engine(warm, warm)  # discarded warm-up
    for size in sizes:
        a = ExtSeq([int(x) for x in rng.integers(0, 10**6, size=size)])
        b = ExtSeq([int(x) for x in rng.integers(0, 10**6, size=size)])

        def fn(a=a, b=b):
            engine(a, b)
            return 0

        elapsed, _ = _time_solve(fn, repeat)
        rows.append(
            {
                "problem": "minconv",
                "eps": size,
                "L": "",
                "seed": seed,
                "elapsed_ms": round(elapsed, 3),
                "value": "",
            }
        )
        times.append(elapsed)
    return {"rows": rows, "exponent": fit_exponent(list(sizes), times)}


def _write_csv(rows, out) -> None:
    out.write("problem,eps,L,seed,elapsed_ms,value\n")
    for r in rows:
        out.write(
            f"{r['problem']},{r['eps']},{r['L']},{r['seed']},{r['elapsed_ms']},{r['value']}\n"
        )


def _cmd_bench(args) -> int:
    if args.problem == "minconv":
        sizes = [int(s) for s in args.sizes.split(",")]
        outcome = bench_minconv(
            sizes, repeat=args.repeat, seed=args.seed, engine_name=args.engine or "dense"
        )
    elif args.n_sweep:
        n_list = [int(s) for s in args.n_sweep.split(",")]
        outcome = bench_nsweep(
            args.problem,
            n_list,
            parse_eps(args.eps),
            repeat=args.repeat,
            seed=args.seed,
            confidence=args.confidence,
            engine_name=args.engine or "pairs",
        )
    else:
        eps_list = parse_eps_sweep(args.eps_sweep)
        outcome = bench_scaling(
            args.problem,
            eps_list,
            repeat=args.repeat,
            n=args.n,
            seed=args.seed,
            confidence=args.confidence,
            engine_name=args.engine or "dense",
            L=args.L,
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            _write_csv(outcome["rows"], fh)
    else:
        _write_csv(outcome["rows"], sys.stdout)
    print(f"# fitted exponent: {outcome['exponent']:.3f}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sparsesum",
        description="Approximation schemes for SubsetSum/Partition over (min,+)-convolution",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("kind", choices=["subsetsum", "partition", "knapsack"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--max-item", type=int, default=1000)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--style", choices=["uniform", "clustered", "two-scale"], default="uniform")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("problem", choices=["subsetsum", "partition", "knapsack"])
    s.add_argument("--input", required=True)
    s.add_argument("--eps", default="1/4")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--confidence", type=int, default=4)
    s.add_argument("--L", type=int, default=None)
    s.add_argument("--via", choices=["gap", "dp"], default="dp")
    s.add_argument("--engine", choices=sorted(ENGINES), default="pairs")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser("reduce", help="fine-grained reductions")
    rsub = r.add_subparsers(dest="reduction", required=True)
    r2g = rsub.add_parser("knapsack-to-gap", help="knapsack -> gap subset-sum")
    r2g.add_argument("--input", required=True)
    r2g.add_argument("--output", required=True)
    r2g.set_defaults(func=_cmd_reduce)

    v = sub.add_parser("verify", help="solve and check against brute force")
    v.add_argument("problem", choices=["subsetsum", "partition"])
    v.add_argument("--input", required=True)
    v.add_argument("--eps", default="1/4")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=1)
    v.add_argument("--confidence", type=int, default=4)
    v.add_argument("--max-fail-rate", type=float, default=0.01)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="runtime scaling sweeps")
    b.add_argument("problem", choices=["subsetsum", "partition", "minconv"])
    b.add_argument("--eps-sweep", default="2^-6..2^-13")
    b.add_argument("--n-sweep", default=None, help="instance sizes at fixed --eps")
    b.add_argument("--eps", default="1/8", help="fixed eps for --n-sweep")
    b.add_argument("--sizes", default="256,512,1024,2048,4096")
    b.add_argument("--repeat", type=int, default=1)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--confidence", type=int, default=1)
    b.add_argument("--L", type=int, default=None)
    b.add_argument("--engine", choices=sorted(ENGINES), default=None)
    b.add_argument("--csv", default=None)
    b.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ParseError, ValidationError, ValueError, OverflowError, MemoryError, OSError, InvariantError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
