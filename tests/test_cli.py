"""CLI plumbing: subcommand wiring, JSON output shape, exit codes,
flag parsing, and the reduce round trip."""

import json

import pytest

from sparsesum.cli import fit_exponent, main, parse_eps, parse_eps_sweep
from sparsesum.core import load_instance
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


def test_bench_small_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, out, err = run(capsys, "bench", "subsetsum", "--eps-sweep", "2^-3..2^-5",
                         "--n", "3", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "problem,eps,L,seed,elapsed_ms,value"
    assert len(lines) == 4
    assert "fitted exponent" in err


def test_bench_n_sweep_near_linear(capsys):
    # n-dominated regime: runtime grows about linearly with n
    from sparsesum.cli import bench_nsweep

    out = bench_nsweep("subsetsum", [150, 300, 600, 1200], Fraction(1, 8), seed=2)
    assert 0.5 <= out["exponent"] <= 1.6, f"slope {out['exponent']}"
    assert len(out["rows"]) == 4


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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "subsetsum", "--eps", "1/0"],
        ["solve", "subsetsum", "--eps", "0^-1"],
        ["bench", "subsetsum", "--eps-sweep", "1/0..2^-3"],
        ["bench", "subsetsum", "--eps-sweep", "0..2^-3"],
        ["verify", "subsetsum", "--trials", "0"],
        ["verify", "subsetsum", "--trials", "-1"],
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
