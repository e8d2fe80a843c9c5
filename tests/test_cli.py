"""CLI plumbing: subcommand wiring, JSON output shape, exit codes,
flag parsing, and the reduce round trip."""

import json
from types import SimpleNamespace

import pytest

import sparsesum.cli as cli
from sparsesum.cli import fit_exponent, main, parse_eps, parse_eps_sweep
from sparsesum.core import KnapsackInstance, load_instance, write_instance
from sparsesum.subsetsum import GreedyTrace, approximate_subset_sum
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_eps_forms():
    assert parse_eps("0.25") == Fraction(1, 4)
    assert parse_eps("1/4") == Fraction(1, 4)
    assert parse_eps("2^-6") == Fraction(1, 64)
    assert parse_eps_sweep("2^-2..2^-4") == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert parse_eps_sweep("2^-4..2^-2") == parse_eps_sweep("2^-2..2^-4")  # bounds in either order
    assert parse_eps_sweep("0.5,0.25") == [Fraction(1, 2), Fraction(1, 4)]


def test_fit_exponent_recovers_powers():
    xs = [2**k for k in range(4, 10)]
    for p in (1.0, 1.5, 2.0):
        times = [x**p * 3.7 for x in xs]
        assert abs(fit_exponent(xs, times) - p) < 1e-9


def test_gen_solve_roundtrip_json(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code, out, err = run(capsys, "gen", "subsetsum", "--n", "8", "--max-item", "50",
                         "--seed", "3", "--out", str(path))
    assert code == 0
    inst = load_instance(path, "subsetsum")
    assert inst.n == 8
    # without --out the instance goes to stdout
    code, out, err = run(capsys, "gen", "subsetsum", "--n", "8", "--max-item", "50", "--seed", "3")
    assert code == 0 and out == path.read_text()

    code, out, err = run(capsys, "solve", "subsetsum", "--input", str(path),
                         "--eps", "1/4", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "witness", "epsilon", "delta", "mode", "elapsed_ms"}
    assert sum(payload["witness"]) == payload["value"]

    # identical invocation -> identical JSON apart from wall-clock
    code2, out2, err2 = run(capsys, "solve", "subsetsum", "--input", str(path),
                            "--eps", "1/4", "--seed", "7", "--json")
    a, b = json.loads(out), json.loads(out2)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_solve_partition_and_verify(tmp_path, capsys):
    path = tmp_path / "p.txt"
    code, *_ = run(capsys, "gen", "partition", "--n", "10", "--max-item", "200",
                   "--seed", "5", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "solve", "partition", "--input", str(path),
                         "--eps", "0.25", "--json")
    assert code == 0
    assert json.loads(out)["mode"] in ("approx", "exact-fallback")
    code, text, err = run(capsys, "solve", "partition", "--input", str(path), "--eps", "0.25")
    assert code == 0
    fields = dict(line.split(None, 1) for line in text.splitlines())
    assert list(fields) == ["value", "witness", "epsilon", "delta", "mode", "elapsed_ms"]
    assert fields["value"] == str(json.loads(out)["value"])

    code, out, err = run(capsys, "verify", "partition", "--input", str(path),
                         "--eps", "0.25")
    assert code == 0
    assert "failures=0" in out


def test_verify_reports_seeds(tmp_path, capsys):
    path = tmp_path / "s.txt"
    run(capsys, "gen", "subsetsum", "--n", "9", "--max-item", "100",
        "--seed", "11", "--out", str(path))
    code, out, err = run(capsys, "verify", "subsetsum", "--input", str(path),
                         "--eps", "1/4", "--trials", "5", "--seed", "2")
    assert code == 0
    assert "seeds=2..6" in out


def test_solve_knapsack_both_routes(tmp_path, capsys):
    path = tmp_path / "k.txt"
    path.write_text("2 4 5\n2 3\n3 4\n")
    code, out, err = run(capsys, "solve", "knapsack", "--input", str(path), "--json")
    assert code == 0
    dp = json.loads(out)
    assert dp == {"solvable": False, "opt": 4, "via": "dp", "elapsed_ms": dp["elapsed_ms"]}

    code, out, err = run(capsys, "solve", "knapsack", "--input", str(path),
                         "--via", "gap", "--json")
    assert code == 0
    assert json.loads(out)["solvable"] is False
    code, out, err = run(capsys, "solve", "knapsack", "--input", str(path))
    assert code == 0
    assert out.splitlines()[:3] == ["solvable   False", "opt        4", "via        dp"]

    solvable = tmp_path / "k2.txt"
    solvable.write_text("2 5 7\n2 3\n3 4\n")
    code, out, err = run(capsys, "solve", "knapsack", "--input", str(solvable),
                         "--via", "gap", "--json")
    assert code == 0
    assert json.loads(out)["solvable"] is True


def test_reduce_writes_loadable_instance(tmp_path, capsys):
    src = tmp_path / "k.txt"
    src.write_text("2 4 5\n2 3\n3 4\n")
    dst = tmp_path / "gap.txt"
    code, out, err = run(capsys, "reduce", "knapsack-to-gap", "--input", str(src),
                         "--output", str(dst))
    assert code == 0
    meta = json.loads(out)
    gap = load_instance(dst, "subsetsum")
    assert gap.n == meta["n"] and gap.target == meta["t"]
    assert meta["eps"] == "1/8"  # 1/(2W) with W = 4


def test_reduce_rejects_a_target_beyond_63_bits(tmp_path, capsys):
    # the reduced target of this instance has 65 bits
    inst = KnapsackInstance(
        weights=tuple(range(1, 61)), values=(2**50,) + (1,) * 59, budget=64, goal=2**50
    )
    src = tmp_path / "k.txt"
    write_instance(inst, src)
    dst = tmp_path / "gap.txt"
    code, out, err = run(capsys, "reduce", "knapsack-to-gap", "--input", str(src),
                         "--output", str(dst))
    assert code == 1
    assert err.startswith("error:") and "63 bits" in err
    assert not dst.exists()


def test_bench_small_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, out, err = run(capsys, "bench", "subsetsum", "--eps-sweep", "2^-3..2^-5",
                         "--n", "3", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "problem,eps,L,seed,elapsed_ms,value"
    assert len(lines) == 4
    assert "fitted exponent" in err
    code, out, err = run(capsys, "bench", "partition", "--n-sweep", "50,100", "--eps", "1/8")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 3 and all(r.startswith("partition,0.125,") for r in rows[1:])


def test_bench_n_sweep_near_linear(capsys):
    # n-dominated regime: runtime grows about linearly with n. Every item
    # lies above delta, so the solves run the scheme, not greedy_small.
    n_list, eps = [50, 100, 200, 400], Fraction(1, 8)
    _, trace = approximate_subset_sum(
        cli._nsweep_instance("subsetsum", n_list[0], eps, 2), eps, seed=2, return_trace=True
    )
    assert not isinstance(trace.root, GreedyTrace)
    out = cli.bench_nsweep("subsetsum", n_list, eps, repeat=5, seed=2)
    assert 0.5 <= out["exponent"] <= 1.6, f"slope {out['exponent']}"
    assert len(out["rows"]) == 4


def test_sweep_times_round_robin_after_one_warm_up(monkeypatch):
    calls = []

    def stub(inst, eps, **kwargs):
        calls.append(eps)
        return SimpleNamespace(value=int(1 / eps))

    monkeypatch.setattr(cli, "approximate_subset_sum", stub)
    points = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
    out = cli.bench_scaling("subsetsum", points, repeat=2)
    assert calls == [points[0]] + points + points
    assert [r["eps"] for r in out["rows"]] == [0.125, 0.0625, 0.03125]
    assert [r["value"] for r in out["rows"]] == [8, 16, 32]
    # repeat=1: one warm-up at the cheapest (largest) eps, then one call per point
    calls.clear()
    shuffled = [points[2], points[0], points[1]]
    cli.bench_scaling("subsetsum", shuffled, repeat=1)
    assert calls == [points[0]] + shuffled


def test_bench_minconv_runs(capsys):
    code, out, err = run(capsys, "bench", "minconv", "--sizes", "64,128,256")
    assert code == 0
    assert out.startswith("problem,eps,L,seed,elapsed_ms,value")
    assert "fitted exponent" in err


def test_usage_errors_exit_2(capsys):
    assert main(["solve", "subsetsum", "--nonsense"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["solve", "subsetsum", "--input", str(missing), "--eps", "1/4"]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("1 5\n0\n")
    assert main(["solve", "subsetsum", "--input", str(bad), "--eps", "1/4"]) == 1
    # brute-force verification refuses more than VERIFY_MAX_ITEMS items
    big = tmp_path / "big.txt"
    run(capsys, "gen", "subsetsum", "--n", str(cli.VERIFY_MAX_ITEMS + 1), "--out", str(big))
    code, out, err = run(capsys, "verify", "subsetsum", "--input", str(big))
    assert code == 1 and f"capped at {cli.VERIFY_MAX_ITEMS} items" in err


def test_memory_budgets_exit_1(tmp_path, capsys):
    # 32 items at eps = 2^-17 need a top-half sumset of ~2^28.5 slots
    part = tmp_path / "p.txt"
    run(capsys, "gen", "partition", "--n", "32", "--max-item", str(10**12), "--out", str(part))
    code, out, err = run(capsys, "solve", "partition", "--input", str(part), "--eps", "2^-17")
    assert code == 1
    assert err.startswith("error: ") and "SUMSET_BUDGET" in err
    knap = tmp_path / "k.txt"
    knap.write_text(f"1 {2**27} 1\n1 1\n")
    for via in ("dp", "gap"):
        code, out, err = run(capsys, "solve", "knapsack", "--input", str(knap), "--via", via)
        assert code == 1
        assert err.startswith("error: ") and "BELLMAN_BUDGET" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "subsetsum", "--eps", "1/0"],
        ["solve", "subsetsum", "--eps", "0^-1"],
        ["bench", "subsetsum", "--eps-sweep", "1/0..2^-3"],
        ["bench", "subsetsum", "--eps-sweep", "0..2^-3"],
        ["verify", "subsetsum", "--trials", "0"],
        ["verify", "subsetsum", "--trials", "-1"],
        ["bench", "subsetsum", "--repeat", "0"],
        ["bench", "subsetsum", "--eps-sweep", "2^-3..2^-3"],
        ["bench", "subsetsum", "--eps-sweep", "2^-3,2^-3"],
        ["bench", "subsetsum", "--eps-sweep", ","],
        ["bench", "subsetsum", "--eps-sweep", "2^-3,0"],
        ["bench", "subsetsum", "--n-sweep", "20"],
        ["solve", "subsetsum", "--confidence", "0", "--eps", "2^-12"],
    ],
)
def test_bad_numbers_are_typed_errors(tmp_path, capsys, argv):
    path = tmp_path / "s.txt"
    run(capsys, "gen", "subsetsum", "--n", "6", "--max-item", "50", "--out", str(path))
    if argv[0] != "bench":
        argv = argv + ["--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in out + err
