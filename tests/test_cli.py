import atexit
import configparser
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lsmdp
import reference
from lsmdp import cli, coefficients, objectives, search_space, simulator
from lsmdp.cli import main
from lsmdp.coefficients import convergence_trace
from lsmdp.exact_solver import evaluate_nonstationary, evaluate_stationary_table, value_iteration
from lsmdp.objectives import Objective, parse_objective
from lsmdp.policies import Policy, SimulatedAnnealing, parse_policy
from lsmdp.search_space import LocalSearchMdp, parse_criterion
from lsmdp.simulator import best_so_far_curve, simulate_batch, summarize_records


def run_cli(args):
    return main([str(a) for a in args])


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestClassify:
    def test_hill_climbing_verdict(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "onemax:n=6", "--policy", "hc",
                        "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "exploitation-oriented"
        assert (tmp_path / "report.csv").is_file()
        assert (tmp_path / "report.json").is_file()
        assert (tmp_path / "manifest.ini").is_file()

    def test_annealing_verdict(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "onemax:n=6", "--policy",
                        "sa:T0=10,rate=0.9", "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("balanced (C=")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["kind"] == "balanced"
        assert report["classification"]["constant"] > 0

    def test_unknown_policy_names_descriptor(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy", "bogus",
                        "--out", tmp_path])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_objective(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "rosenbrock:n=4", "--policy", "hc",
                        "--out", tmp_path])
        assert code == 1
        assert "rosenbrock" in capsys.readouterr().err

    def test_resource_limit_exit_code(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "onemax:n=21", "--policy", "hc",
                        "--out", tmp_path])
        assert code == 3

    def test_inconclusive_exit_code(self, tmp_path, capsys, monkeypatch):
        # Without its certificate, annealing's series are not decided.
        monkeypatch.setattr(SimulatedAnnealing, "balance_certificate",
                            Policy.balance_certificate)
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy",
                        "sa:T0=10,rate=0.99", "--horizon", "120", "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().out.strip() == "inconclusive"

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0"])
    def test_bad_tail_tolerance_fails_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                        tolerance):
        # Every series is decided without a tolerance, so the option is gone.
        def sweep(*args):
            raise AssertionError("the reachable set was swept")

        monkeypatch.setattr(LocalSearchMdp, "reachable_states", sweep)
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy",
                        "sa:T0=10,rate=0.99", "--horizon", "120", "--tail-tolerance", tolerance,
                        "--reachable-from", "0", "--out", tmp_path / "out"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tail-tolerance" in captured.err
        assert not (tmp_path / "out").exists()

    def test_output_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LSMDP_OUT", str(tmp_path / "from_env"))
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy", "hc"])
        assert code == 0
        assert (tmp_path / "from_env" / "report.json").is_file()

    def test_reachable_restriction(self, tmp_path):
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy", "hc",
                        "--reachable-from", "0", "--out", tmp_path])
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert len(rows) == 17  # header + every reachable state


class TestValue:
    def test_gap_nonnegative_and_rerun_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["value", "--objective", "onemax:n=3", "--policy", "hc",
                            "--discount", "0.9", "--out", out]) == 0
        rows = (out1 / "value.csv").read_text().splitlines()[1:]
        gaps = [float(r.split(",")[4]) for r in rows]
        assert all(g >= -1e-8 for g in gaps)
        assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
        assert (out1 / "greedy.csv").read_bytes() == (out2 / "greedy.csv").read_bytes()

    def test_flat_objective_values_zero(self, tmp_path):
        cnf = tmp_path / "flat.cnf"
        cnf.write_text("p cnf 2 1\n1 -1 0\n")  # tautology: f is constant 1
        assert run_cli(["value", "--objective", f"maxsat:path={cnf}", "--policy", "walk",
                        "--out", tmp_path / "o"]) == 0
        rows = (tmp_path / "o" / "value.csv").read_text().splitlines()[1:]
        for row in rows:
            _, _, v_policy, v_optimal, gap = row.split(",")
            assert abs(float(v_policy)) <= 1e-9
            assert abs(float(v_optimal)) <= 1e-9

    @pytest.mark.parametrize("discount", ["1", "0", "1.5"])
    def test_discount_outside_open_interval_refused_before_work(self, tmp_path, capsys,
                                                                 monkeypatch, discount):
        # value_iteration needs discount in (0, 1), so value checks it before
        # it builds the landscape or evaluates the policy.
        import lsmdp.cli

        def unreachable(resolved):
            raise AssertionError("landscape built for a discount value rejects")

        monkeypatch.setattr(lsmdp.cli, "_build_mdp", unreachable)
        out = tmp_path / "o"
        assert run_cli(["value", "--objective", "onemax:n=14", "--policy", "walk",
                        "--discount", discount, "--out", out]) == 1
        assert "discount in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["walk", "sa:T0=2,rate=0.8"])
    @pytest.mark.parametrize("horizon", ["abc", "-1"])
    def test_horizon_checked_for_every_policy_before_work(self, tmp_path, capsys, monkeypatch,
                                                          policy, horizon):
        # A stationary policy does not use the horizon, but it goes into
        # manifest.ini all the same.
        import lsmdp.cli

        def unreachable(resolved):
            raise AssertionError("landscape built for a horizon value rejects")

        monkeypatch.setattr(lsmdp.cli, "_build_mdp", unreachable)
        out = tmp_path / "o"
        assert run_cli(["value", "--objective", "onemax:n=4", "--policy", policy,
                        "--horizon", horizon, "--out", out]) == 1
        assert "horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_stationary_value_beyond_the_dense_budget(self, tmp_path):
        assert run_cli(["value", "--objective", "onemax:n=15", "--policy", "metropolis:T=1",
                        "--out", tmp_path]) == 0
        rows = (tmp_path / "value.csv").read_text().splitlines()[1:]
        assert len(rows) == 2**15
        assert all(float(row.split(",")[4]) >= -1e-9 for row in rows)

    def test_nonstationary_policy_uses_horizon(self, tmp_path):
        assert run_cli(["value", "--objective", "onemax:n=3", "--policy",
                        "sa:T0=1,rate=0.5", "--horizon", "50", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "value.json").read_text())
        assert payload["policy"]["horizon"] == 50


class TestSimulate:
    def test_seed_streams_logged(self, tmp_path):
        code = run_cli(["simulate", "--objective", "onemax:n=6", "--policy", "walk",
                        "--seeds", "5", "--horizon", "20", "--out", tmp_path,
                        "--emit-trajectories"])
        assert code == 0
        assert len((tmp_path / "trajectories.jsonl").read_text().splitlines()) == 5
        assert len((tmp_path / "seeds.csv").read_text().splitlines()) == 6  # header + 5
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["walk"]["num_trajectories"] == 5

    def test_unknown_format_rejected(self, tmp_path, capsys):
        code = run_cli(["simulate", "--objective", "onemax:n=4", "--policy", "walk",
                        "--format", "xml", "--out", tmp_path])
        assert code == 1
        assert "xml" in capsys.readouterr().err

    def test_csv_only(self, tmp_path):
        code = run_cli(["simulate", "--objective", "onemax:n=4", "--policy", "walk",
                        "--seeds", "3", "--horizon", "10", "--format", "csv",
                        "--out", tmp_path])
        assert code == 0
        assert (tmp_path / "summary.csv").is_file()
        assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("seeds", ["0", "2"])
@pytest.mark.parametrize("option", [("--horizon", "-3"), ("--bucket-width", "0"),
                                    ("--start", "99")])
def test_bad_rollout_options_fail_before_any_output(tmp_path, capsys, command, seeds, option):
    out = tmp_path / "out"
    code = run_cli([command, "--objective", "onemax:n=4", "--policy", "walk",
                    "--seeds", seeds, *option, "--out", out])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--objective", "maxsat:path=/nonexistent.cnf", "--policy", "walk",
      "--horizon", "-1"], "horizon must be >= 0, got -1"),
    (["simulate", "--objective", "nk:n=30,k=29,seed=1", "--policy", "walk",
      "--bucket-width", "0"], "bucket width must be >= 1, got 0"),
    (["compare", "--objective", "nk:n=30,k=29,seed=1", "--policy", "walk", "--seeds", "-1"],
     "num_trajectories must be >= 0, got -1"),
], ids=["missing-file", "nk-tables-bucket-width", "nk-tables-seeds"])
def test_rollout_numbers_are_checked_before_the_objective(tmp_path, capsys, argv, message):
    # As in classify and value: a bad number exits 1 naming itself, before a
    # missing file is read or nk's tables (240 GiB at k=29) are priced.
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, policies", [
    ("classify", ["--policy", "hc"]), ("gamma", []), ("value", ["--policy", "hc"]),
    ("simulate", ["--policy", "walk"]), ("compare", ["--policy", "walk", "--policy", "hc"])])
def test_neighborhood_without_moves_fails_before_any_output(tmp_path, capsys, command, policies):
    # hamming:3 on two bits leaves every state with no move at all.
    out = tmp_path / "out"
    code = run_cli([command, "--objective", "onemax:n=2", "--neighborhood", "hamming:3",
                    *policies, "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no moves" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--objective", "onemax:n=4", "--policy", "walk", "--base-seed", "-1"],
     "option base_seed"),
    (["gamma", "--objective", "onemax:n=4", "--policy", "walk", "--seed", "-1", "--start", "0"],
     "option seed"),
    (["gamma", "--objective", "onemax:n=4", "--seed", "-1"], "option seed"),
    (["simulate", "--objective", "nk:n=4,k=3,seed=-1", "--policy", "walk"],
     "nk:n=4,k=3,seed=-1")])
def test_negative_seeds_fail_before_any_output_naming_their_input(tmp_path, capsys, argv, name):
    # A seed is the entropy of numpy's SeedSequence, which takes no negative word.
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}") and "non-negative" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("classify", []), ("value", []), ("simulate", ["--seeds", "2", "--horizon", "5"])])
def test_annealing_that_never_cools_fails_before_any_output(tmp_path, capsys, command, options):
    # At T0 = inf every temperature of the schedule is inf: a random walk,
    # which classify used to call balanced with C = nan.
    out = tmp_path / "out"
    assert run_cli([command, "--objective", "onemax:n=4", "--policy", "sa:T0=inf,rate=0.9",
                    *options, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert not out.exists()


def test_metropolis_at_infinite_temperature_is_a_walk(tmp_path):
    for policy in ("metropolis:T=inf", "walk"):
        assert run_cli(["classify", "--objective", "onemax:n=4", "--policy", policy,
                        "--out", tmp_path / policy]) == 0
    assert snapshot(tmp_path / "walk")["report.json"] == \
        snapshot(tmp_path / "metropolis:T=inf")["report.json"]


def test_rollout_arrays_over_the_memory_budget_fail_before_any_seed(tmp_path, capsys,
                                                                    monkeypatch):
    # 10 trajectories over 1,000 steps keep 80 kB of running bests and 80 kB
    # for the summary's sorted copy, 7 kB of move tables, a 20 kB block of
    # uniforms and 143 kB of scratch while it is drawn, and 240 kB more of
    # per-step arrays with --emit-trajectories.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 350_000)
    simulate = ["simulate", "--objective", "onemax:n=8", "--policy", "walk", "--seeds", "10",
                "--horizon", "1000"]
    assert run_cli(simulate + ["--out", tmp_path / "fits"]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("a seed was derived for a run over the budget")

    monkeypatch.setattr(simulator, "derive_seed", unreachable)
    compare = ["compare", "--objective", "onemax:n=8", "--policy", "hc", "--policy", "walk",
               "--seeds", "100", "--horizon", "10000"]
    for argv in (simulate + ["--emit-trajectories"], compare):
        capsys.readouterr()
        out = tmp_path / argv[0]
        assert run_cli(argv + ["--out", out]) == 3
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


def test_rollout_summary_copy_over_the_memory_budget_fails_before_any_seed(tmp_path, capsys,
                                                                           monkeypatch):
    # 100 trajectories over 10,000 steps keep 8.0 MB of running bests, and
    # the summary sorts a copy of them: 10 MB without the copy, 18 MB with it
    # (tracemalloc saw the run and its summaries peak at 16.7 MB).
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 12_000_000)

    def unreachable(*args, **kwargs):
        raise AssertionError("a seed was derived for a run over the budget")

    monkeypatch.setattr(simulator, "derive_seed", unreachable)
    out = tmp_path / "over"
    assert run_cli(["simulate", "--objective", "trap:n=40,k=4", "--policy", "sa:T0=5,rate=0.9999",
                    "--seeds", "100", "--horizon", "10000", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_rollout_draw_blocks_over_the_memory_budget_fail(tmp_path, capsys, monkeypatch):
    # 400 walk rows over 20 steps at d = 20: running bests and move tables
    # alone count 580 kB, but tracemalloc saw the run peak at 759 kB, with
    # its [20, 400] block of uniforms and the scratch that draws it.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 700_000)
    out = tmp_path / "over"
    assert run_cli(["simulate", "--objective", "onemax:n=20", "--policy", "walk", "--seeds", "400",
                    "--horizon", "20", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "gamma"])
def test_chunk_tables_over_the_memory_budget_fail(tmp_path, capsys, monkeypatch, command):
    # 1,024 states of 252 moves: each [1024, 252] table is 2 MB, and classify
    # peaked at 10.4 MiB under tracemalloc.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 1 << 20)
    out = tmp_path / "over"
    assert run_cli([command, "--objective", "onemax:n=10", "--neighborhood", "hamming:5",
                    "--policy", "walk", "--out", out]) == 3
    assert "over the 0.000977 GiB budget" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_trace_over_the_memory_budget_fails_before_any_step(tmp_path, capsys,
                                                                  monkeypatch):
    # onemax n=8 has 8 moves a state: a trace keeps about 340 bytes a state,
    # so 101 states fit 100 kB and 1,001 do not.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 100_000)
    gamma = ["gamma", "--objective", "onemax:n=8", "--policy", "walk", "--start", "0"]
    assert run_cli(gamma + ["--t-max", "100", "--out", tmp_path / "fits"]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("a trace over the budget took a step")

    monkeypatch.setattr(coefficients, "step", unreachable)
    capsys.readouterr()
    out = tmp_path / "over"
    assert run_cli(gamma + ["--t-max", "1000", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_rollout_move_tables_over_the_memory_budget_fail_before_any_mask(tmp_path, capsys,
                                                                         monkeypatch):
    # 100 trajectories over 100 steps keep 81 kB of running bests; at 12
    # moves a step their move tables take 77 kB more, at 924 (hamming:6)
    # about 6 MB.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 1 << 20)
    simulate = ["simulate", "--objective", "onemax:n=12", "--policy", "walk", "--seeds", "100",
                "--horizon", "100"]
    assert run_cli(simulate + ["--out", tmp_path / "fits"]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("a run over the budget built its masks")

    monkeypatch.setattr(search_space, "_hamming_masks", unreachable)
    capsys.readouterr()
    out = tmp_path / "over"
    assert run_cli(simulate + ["--neighborhood", "hamming:6", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def counted_objective(monkeypatch, n):
    """The sizes of the batch calls of a counting onemax n, which
    `cli.parse_objective` now returns for every --objective."""
    calls, onemax = [], parse_objective(f"onemax:n={n}")
    counting = Objective(n, None, onemax.name, onemax.known_optimum,
                         batch=lambda x: calls.append(x.size) or onemax.values(x))
    monkeypatch.setattr(cli, "parse_objective", lambda descriptor: counting)
    return calls


@pytest.mark.parametrize("command, options", [
    ("classify", ["--policy", "hc"]), ("gamma", []), ("value", ["--policy", "walk"])])
def test_exhaustive_move_tables_over_the_memory_budget_fail_before_any_mask(
        tmp_path, capsys, monkeypatch, command, options):
    # At hamming:6, onemax n=12 has 924 moves a state: a chunk of 4,096
    # states has a 30 MB move table, over a 1 MiB budget.  The price comes
    # before the landscape, so the objective is never called.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 1 << 20)
    calls = counted_objective(monkeypatch, 12)

    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep over the budget built its masks")

    monkeypatch.setattr(search_space, "_hamming_masks", unreachable)
    out = tmp_path / "out"
    assert run_cli([command, "--objective", "counted", "--neighborhood", "hamming:6",
                    *options, "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("policy", ["walk", "sa:T0=10,rate=0.9"])
def test_value_past_the_cap_names_it(tmp_path, capsys, monkeypatch, policy):
    # Every exact solve checks the exhaustive cap before its price, so value
    # names the cap that classify and gamma name, and evaluates no state.
    calls = counted_objective(monkeypatch, 21)
    out = tmp_path / "out"
    assert run_cli(["value", "--objective", "counted", "--policy", policy, "--out", out]) == 3
    assert capsys.readouterr().err == "error: exhaustive sweep is capped at n <= 20 (got n=21)\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("budget, options, code, message", [
    (None, ["--policy", "hc", "--start", "99999"], 1, "state 99999 out of range [0, 2**12)"),
    (None, ["--policy", "hc", "--start", "-1"], 1, "state -1 out of range [0, 2**12)"),
    (None, ["--t-max", "-1"], 1, "t_max must be >= 0, got -1"),
    # The sweep's price, 1.8 MB, fits 4 MiB; the trace's, 9.6 MB, does not.
    (4 << 20, ["--policy", "walk", "--start", "0", "--t-max", "100000"], 3,
     "trace of 100001 states"),
], ids=["start-past-the-space", "negative-start", "negative-t-max", "trace-over-the-budget"])
def test_refused_gamma_evaluates_nothing(tmp_path, capsys, monkeypatch, budget, options, code,
                                         message):
    # gamma checks its options, then the cap, then the prices of its sweep
    # and trace, and only then builds the landscape.
    if budget is not None:
        monkeypatch.setattr(objectives, "MEMORY_BUDGET", budget)
    calls = counted_objective(monkeypatch, 12)
    out = tmp_path / "out"
    assert run_cli(["gamma", "--objective", "counted", *options, "--out", out]) == code
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_nk_tables_over_the_memory_budget_fail_before_drawing(tmp_path, capsys, monkeypatch):
    # nk n=12 draws 12 lookup tables of 2**(k+1) doubles with the scratch
    # that draws them: 786 kB at k = 9, 1.57 MB at k = 10.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 1 << 20)
    simulate = ["simulate", "--policy", "walk", "--seeds", "1", "--horizon", "1"]
    assert run_cli(simulate + ["--objective", "nk:n=12,k=9,seed=1",
                               "--out", tmp_path / "fits"]) == 0
    capsys.readouterr()
    out = tmp_path / "over"
    assert run_cli(simulate + ["--objective", "nk:n=12,k=10,seed=1", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_reachable_sweep_over_the_memory_budget_fails_before_its_table(tmp_path, capsys,
                                                                        monkeypatch):
    # onemax n=12 under hamming:4 reaches the 2,048 states of even popcount,
    # each of 495 moves: one array of their move table alone is 8 MB.
    monkeypatch.setattr(objectives, "MEMORY_BUDGET", 1 << 20)
    out = tmp_path / "over"
    tracemalloc.start()
    try:
        code = run_cli(["classify", "--objective", "onemax:n=12", "--neighborhood", "hamming:4",
                        "--policy", "hc", "--reachable-from", "0", "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "budget" in capsys.readouterr().err
    assert peak < objectives.MEMORY_BUDGET
    assert not out.exists()


@pytest.mark.parametrize("cap, code", [(8, 3), (10, 0)])
def test_reachable_closure_refused_past_the_exhaustive_cap(tmp_path, capsys, monkeypatch, cap,
                                                           code):
    # hamming:1 reaches all 2**10 states from 0: within a cap of 2**10, past 2**8.
    monkeypatch.setattr(search_space, "EXHAUSTIVE_CAP", cap)
    out = tmp_path / "out"
    assert run_cli(["classify", "--objective", "onemax:n=10", "--policy", "hc",
                    "--reachable-from", "0", "--out", out]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "2**8" in capsys.readouterr().err


def _reference_rollout_files(objective, descriptors, horizon, seeds, bucket_width, formats,
                             emit):
    """The --out files, but manifest.ini, and the stdout of a run of
    `descriptors` (one: simulate, else compare), through the reference
    writers from each policy's batch of `simulate_batch`."""
    mdp = LocalSearchMdp(parse_objective(objective))
    named = []
    for descriptor in descriptors:
        batch = simulate_batch(parse_policy(descriptor), mdp, "uniform", horizon, seeds, 0,
                               keep_steps=emit)
        named.append((descriptor, batch, summarize_records(batch, bucket_width,
                                                           mdp.objective.known_optimum)))
    files = {}
    if "csv" in formats:
        files["summary.csv"] = reference.csv_text(
            ("policy",) + named[0][2].CSV_HEADER,
            [(descriptor,) + summary.csv_row() for descriptor, _, summary in named])
        best, explore, seed_rows = [], [], []
        for descriptor, batch, summary in named:
            means, quartiles = best_so_far_curve(batch)
            best += [(descriptor, t, mean, quartiles["p25"][t], quartiles["p50"][t],
                      quartiles["p75"][t]) for t, mean in enumerate(means)]
            explore += [(descriptor, b, b * bucket_width, min(horizon, (b + 1) * bucket_width) - 1,
                         fraction, ratio)
                        for b, (fraction, ratio) in enumerate(zip(summary.exploration_fraction,
                                                                  summary.exploration_ratio))]
            seed_rows += [(descriptor, k, seed, start)
                          for k, (seed, start) in enumerate(zip(batch.seeds, batch.starts))]
        files["plot_best.csv"] = reference.csv_text(("policy", "t", "mean", "p25", "p50", "p75"),
                                                    best)
        files["plot_explore.csv"] = reference.csv_text(
            ("policy", "bucket", "t_lo", "t_hi", "exploration_fraction", "exploration_ratio"),
            explore)
        files["seeds.csv"] = reference.csv_text(("policy", "index", "seed", "start"), seed_rows)
    if "json" in formats:
        files["summary.json"] = reference.dumps_json(
            {descriptor: summary.to_json_dict() for descriptor, _, summary in named})
    if emit:
        files["trajectories.jsonl"] = "".join(
            reference.dumps_json_line(dict(reference.trajectory_json_dict(record),
                                           policy=descriptor))
            for descriptor, batch, _ in named for record in batch.records)
    prefix = len(descriptors) > 1
    lines = "".join(f"{descriptor + ': ' if prefix else ''}hit_rate={summary.hit_rate!r} "
                    f"best_final_mean={summary.best_final_mean!r}\n"
                    for descriptor, _, summary in named)
    return files, lines


@pytest.mark.parametrize("fmt, emit", [("both", True), ("csv", False), ("json", True)])
def test_simulate_writes_what_its_one_policy_batch_gives(tmp_path, capsys, fmt, emit):
    # simulate runs on compare's path: its files, manifest and stdout line
    # are still those of the one-policy batch.
    argv = ["simulate", "--objective", "trap:n=6,k=3", "--policy", "sa:T0=2,rate=0.9",
            "--seeds", "4", "--horizon", "12", "--bucket-width", "5", "--format", fmt,
            "--out", tmp_path]
    assert run_cli(argv + ["--emit-trajectories"] * emit) == 0
    files, line = _reference_rollout_files("trap:n=6,k=3", ["sa:T0=2,rate=0.9"], 12, 4, 5,
                                           {"csv", "json"} if fmt == "both" else {fmt}, emit)
    assert capsys.readouterr().out == line
    assert (tmp_path / "manifest.ini").read_text() == (
        f"[meta]\nartifact_version = {lsmdp.__version__}\ncommand = simulate\n\n[run]\n"
        f"base_seed = 0\nbucket_width = 5\nemit_trajectories = {str(emit).lower()}\n"
        f"format = {fmt}\nhorizon = 12\nneighborhood = hamming:1\nobjective = trap:n=6,k=3\n"
        f"out = {tmp_path}\npolicy = sa:T0=2,rate=0.9\nseeds = 4\nstart = uniform\n\n")
    assert _out_files(tmp_path) == files


@pytest.mark.parametrize("seeds, bucket_width", [(5, 4), (0, 1)])
def test_compare_writes_the_reference_files(tmp_path, capsys, seeds, bucket_width):
    # Every policy's block of rows under its coded descriptor; "sa:..." holds
    # a comma, so CSV quotes it.  Strict hc stops early, the others run on
    # past a partial last bucket; without trajectories every curve is empty.
    descriptors = ["hc", "sa:T0=2,rate=0.9", "walk", "hc:literal"]
    argv = ["compare", "--objective", "trap:n=6,k=3", "--seeds", seeds, "--horizon", "13",
            "--bucket-width", bucket_width, "--emit-trajectories", "--out", tmp_path]
    for descriptor in descriptors:
        argv += ["--policy", descriptor]
    assert run_cli(argv) == 0
    files, lines = _reference_rollout_files("trap:n=6,k=3", descriptors, 13, seeds,
                                            bucket_width, {"csv", "json"}, True)
    assert capsys.readouterr().out == lines
    assert _out_files(tmp_path) == files


class TestSingleSweep:
    """An exhaustive command evaluates the objective once per state: one
    batch call over exactly the 2**n states; `value`'s f column and the
    steps of a `gamma` trace read the landscape that call built, and the
    scalar `fn` is never called."""

    N_BITS = 9

    @pytest.fixture
    def calls(self, monkeypatch):
        batches, scalars = [], []
        onemax = parse_objective(f"onemax:n={self.N_BITS}")
        counting = Objective(self.N_BITS, lambda x: scalars.append(x) or onemax(x), onemax.name,
                             onemax.known_optimum,
                             batch=lambda x: batches.append(x.copy()) or onemax.values(x))
        monkeypatch.setattr(cli, "parse_objective", lambda descriptor: counting)
        return batches, scalars

    @pytest.mark.parametrize("command, options", [
        ("classify", ["--policy", "sa:T0=10,rate=0.9"]),
        ("gamma", []),
        ("gamma", ["--policy", "sa:T0=10,rate=0.9", "--start", "0", "--t-max", "300"]),
        ("value", ["--policy", "metropolis:T=1"]),
        ("value", ["--policy", "sa:T0=10,rate=0.9", "--horizon", "20"]),
    ], ids=["classify", "gamma", "gamma-trace", "value-stationary", "value-nonstationary"])
    def test_one_batch_call_over_every_state(self, tmp_path, calls, command, options):
        batches, scalars = calls
        assert run_cli([command, "--objective", "counted", *options, "--out", tmp_path]) == 0
        assert len(batches) == 1
        assert np.array_equal(np.sort(batches[0]), np.arange(2**self.N_BITS))
        assert not scalars

    def test_closure_of_every_state_reads_the_landscape(self, tmp_path, calls):
        # hamming:1 reaches every state from 0: the sample is the whole space,
        # so it is swept from one landscape and writes what the full sweep writes.
        batches, scalars = calls
        assert run_cli(["classify", "--objective", "counted", "--policy", "sa:T0=10,rate=0.9",
                        "--reachable-from", "0", "--out", tmp_path / "closure"]) == 0
        assert len(batches) == 1
        assert np.array_equal(np.sort(batches[0]), np.arange(2**self.N_BITS))
        assert not scalars
        assert run_cli(["classify", "--objective", "counted", "--policy", "sa:T0=10,rate=0.9",
                        "--out", tmp_path / "full"]) == 0
        for name in ("report.json", "report.csv"):
            assert ((tmp_path / "closure" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())


class TestCompare:
    def test_one_summary_row_per_policy(self, tmp_path):
        code = run_cli(["compare", "--objective", "onemax:n=6", "--policy", "hc",
                        "--policy", "sa:T0=2,rate=0.9", "--seeds", "5",
                        "--horizon", "30", "--out", tmp_path])
        assert code == 0
        with open(tmp_path / "summary.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3
        assert rows[1][0] == "hc"
        assert rows[2][0] == "sa:T0=2,rate=0.9"

    def test_eleven_policies_keep_argument_order_on_rerun(self, tmp_path):
        # policy_10 sorts before policy_2 as text; the order must be 0..10.
        policies = [f"metropolis:T={t}" for t in range(1, 12)]
        out = tmp_path / "out"
        argv = ["compare", "--objective", "onemax:n=5", "--seeds", "2", "--horizon", "5",
                "--emit-trajectories", "--out", out]
        for policy in policies:
            argv += ["--policy", policy]
        assert run_cli(argv) == 0
        with open(out / "summary.csv", newline="") as handle:
            assert [row[0] for row in csv.reader(handle)][1:] == policies
        lines = (out / "trajectories.jsonl").read_text().splitlines()
        assert [json.loads(line)["policy"] for line in lines] == [p for p in policies
                                                                   for _ in range(2)]
        before = snapshot(out)
        assert run_cli(["compare", "--config", out / "manifest.ini"]) == 0
        assert snapshot(out) == before

    def test_repeated_policy_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["compare", "--objective", "onemax:n=4", "--policy", "hc",
                        "--policy", "walk", "--policy", "hc", "--out", out])
        assert code == 1
        assert "'hc'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_policy_keys_must_be_indexed(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nobjective = onemax:n=4\npolicy_0 = hc\npolicy_x = walk\n"
                          f"out = {tmp_path / 'out'}\n")
        assert run_cli(["compare", "--config", config]) == 1
        assert "policy_x" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGamma:
    def test_table_marks_local_maxima(self, tmp_path):
        assert run_cli(["gamma", "--objective", "onemax:n=4", "--out", tmp_path]) == 0
        rows = (tmp_path / "gamma.csv").read_text().splitlines()[1:]
        for row in rows:
            state, _, improving, _, gamma, local_max = row.split(",")
            assert (local_max == "true") == (int(state) == 15)
            assert (gamma == "0.0") == (local_max == "true")

    def test_trace_outputs(self, tmp_path):
        assert run_cli(["gamma", "--objective", "onemax:n=5", "--policy", "hc",
                        "--start", "0", "--t-max", "10", "--seed", "3",
                        "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "gamma.json").read_text())
        assert payload["trace"]["first_zero"] <= 5
        assert (tmp_path / "trace.csv").is_file()

    @pytest.mark.parametrize("options", [
        ["--policy", "hc", "--start", "99"],
        ["--policy", "hc", "--start", "3", "--t-max", "-2"],
        ["--policy", "bogus", "--start", "3"],
        ["--policy", "bogus"],
        ["--start", "3"],
        ["--t-max", "-2"],
        ["--seed", "abc"],
    ], ids=["start-out-of-range", "negative-t-max", "bogus-policy-with-start",
            "bogus-policy-without-start", "start-without-policy", "negative-t-max-without-start",
            "bad-seed-without-start"])
    def test_bad_trace_options_fail_before_any_output(self, tmp_path, capsys, options):
        out = tmp_path / "out"
        assert run_cli(["gamma", "--objective", "onemax:n=4", *options, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _old_value_files(mdp, policy, discount, horizon):
    """value's --out files as the per-state rows and dicts of the old writer
    give them, through the reference writers."""
    if policy.stationary:
        policy_values = evaluate_stationary_table(policy, mdp, discount)
    else:
        policy_values = evaluate_nonstationary(policy, mdp, horizon, discount)
    optimal_values, next_state = value_iteration(mdp, discount)
    rows = []
    for i in range(mdp.num_states):
        vp = float(policy_values.v[i])
        vo = float(optimal_values.v[i])
        rows.append((i, mdp.value(i), vp, vo, vo - vp))
    greedy = {i: (i, j) if j != i else None for i, j in enumerate(next_state.tolist())}
    return {
        "value.csv": reference.csv_text(("state", "f", "v_policy", "v_optimal", "gap"), rows),
        "greedy.csv": reference.csv_text(("state", "next_state"),
                                         [(i, move[1] if move else i) for i, move in greedy.items()]),
        "value.json": reference.dumps_json({
            "policy": policy_values.to_json_dict(),
            "optimal": optimal_values.to_json_dict(),
            "greedy": {str(i): list(m) if m is not None else None for i, m in greedy.items()},
        }),
    }


def _old_gamma_files(mdp, policy, start, t_max, seed):
    """gamma's --out files from per-state rows and dicts, counts from the
    scalar reference, through the reference writers."""
    rows, table = [], {}
    for i in range(mdp.num_states):
        up, total = reference.count_fractions(mdp, i)
        gamma = 0.0 if up == 0 else math.inf if up == total else up / (total - up)
        rows.append((i, mdp.value(i), up, total - up, gamma, up == 0))
        table[str(i)] = {"f": mdp.value(i), "improving": up, "non_improving": total - up,
                         "gamma": gamma, "local_max": up == 0}
    header = ("state", "f", "improving", "non_improving", "gamma", "local_max")
    files = {"gamma.csv": reference.csv_text(header, rows)}
    payload = {"states": table}
    if start is not None:
        trace = convergence_trace(policy, mdp, start, t_max, np.random.default_rng(seed))
        payload["trace"] = {"states": list(trace.states), "gamma": list(trace.values),
                            "first_zero": trace.first_zero, "seed": seed}
        files["trace.csv"] = reference.csv_text(
            ("t", "state", "gamma"),
            [(t, s, g) for t, (s, g) in enumerate(zip(trace.states, trace.values))])
    files["gamma.json"] = reference.dumps_json(payload)
    return files


def _out_files(out: Path) -> dict[str, str]:
    files = {p.name: p.read_text() for p in out.iterdir()}
    assert "manifest.ini" in files
    del files["manifest.ini"]
    return files


@pytest.mark.parametrize("neighborhood", ["hamming:1", "hamming:2"])
@pytest.mark.parametrize("objective,policy", [("trap:n=6,k=3", "metropolis:T=1"),
                                              ("nk:n=6,k=2,seed=4", "hc"),
                                              ("trap:n=6,k=3", "sa:T0=2,rate=0.8"),
                                              ("nk:n=6,k=2,seed=4", "sa:T0=1,rate=0.5")])
def test_value_writers_equal_the_per_state_writers(tmp_path, neighborhood, objective, policy):
    assert run_cli(["value", "--objective", objective, "--neighborhood", neighborhood,
                    "--policy", policy, "--discount", "0.8", "--horizon", "30",
                    "--out", tmp_path]) == 0
    mdp = LocalSearchMdp(parse_objective(objective), parse_criterion(neighborhood))
    assert _out_files(tmp_path) == _old_value_files(mdp, parse_policy(policy), 0.8, 30)


# onemax's all-zero state improves on every move: its gamma is inf.
@pytest.mark.parametrize("options,start", [([], None),
                                           (["--policy", "sa:T0=2,rate=0.9", "--start", "0",
                                             "--t-max", "40", "--seed", "7"], 0)])
def test_gamma_writers_equal_the_per_state_writers(tmp_path, options, start):
    assert run_cli(["gamma", "--objective", "onemax:n=6", *options, "--out", tmp_path]) == 0
    mdp = LocalSearchMdp(parse_objective("onemax:n=6"))
    expected = _old_gamma_files(mdp, parse_policy("sa:T0=2,rate=0.9"), start, 40, 7)
    assert '"inf"' in expected["gamma.json"]
    assert _out_files(tmp_path) == expected


class TestOptionTable:
    ARGV = {"classify": ["--policy", "hc"], "gamma": [], "value": ["--policy", "hc"],
            "simulate": ["--policy", "walk", "--seeds", "2", "--horizon", "3"],
            "compare": ["--policy", "walk", "--policy", "hc", "--seeds", "2", "--horizon", "3"]}

    @pytest.mark.parametrize("command", list(ARGV))
    def test_manifest_run_keys_are_the_table_entries(self, tmp_path, command):
        assert run_cli([command, "--objective", "onemax:n=4", *self.ARGV[command],
                        "--out", tmp_path]) in (0, 2)
        manifest = configparser.ConfigParser()
        manifest.optionxform = str
        manifest.read(tmp_path / "manifest.ini")
        expected = {name for name, default, _ in cli._OPTIONS[command][1] if default != ()}
        if command == "compare":
            expected |= {"policy_0", "policy_1"}
        assert set(manifest["run"]) == expected

    @pytest.mark.parametrize("command", list(ARGV))
    def test_help_shows_every_default_once(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        shown = [(" ".join(help_text.split()), default)
                 for _, default, help_text in cli._OPTIONS[command][1] if default]
        for help_text, default in shown:
            assert text.count(f"{help_text} (default {default})") == 1
        assert text.count("(default ") == len(shown)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--policy", "walk", "--seed", "3", "--horizon", "5"],  # gamma's --seed
        ["compare", "--policy", "walk", "--policy", "hc", "--hor", "5"],
        ["classify", "--policy", "hc", "--reachable", "0"],
    ])
    def test_abbreviated_flag_fails_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--objective", "onemax:n=4", "--out", out]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestConfigHandling:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nobjective = onemax:n=4\npolicy = hc\nhorizon = 5\n"
                          f"out = {tmp_path / 'o1'}\n")
        assert run_cli(["classify", "--config", config, "--horizon", "7"]) == 0
        manifest = (tmp_path / "o1" / "manifest.ini").read_text()
        assert "horizon = 7" in manifest

    @pytest.mark.parametrize("command, options", [
        ("classify", "objective = onemax:n=4\npolicy = hc\nhorzion = 7\n"),
        ("classify", "objective = onemax:n=4\npolicy = hc\ntail_tolerance = 1e-9\n"),
        ("simulate", "objective = onemax:n=4\npolicy = hc\npolicy_0 = walk\n"),
        ("compare", "objective = onemax:n=4\npolicy_0 = hc\nseed = 3\n"),
    ])
    def test_unknown_config_key_fails_before_any_output(self, tmp_path, capsys, command,
                                                        options):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\n{options}out = {tmp_path / 'out'}\n")
        assert run_cli([command, "--config", config]) == 1
        captured = capsys.readouterr()
        key = options.splitlines()[-1].split(" = ")[0]
        assert captured.out == ""
        assert repr(key) in captured.err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(["classify", "--config", tmp_path / "none.ini"])
        assert code == 1

    def test_missing_required_option(self, tmp_path, capsys):
        code = run_cli(["classify", "--objective", "onemax:n=4", "--out", tmp_path])
        assert code == 1
        assert "--policy" in capsys.readouterr().err

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["classify", "--objective", "onemax:n=5", "--policy",
                        "sa:T0=10,rate=0.9", "--out", out]) == 0
        before = snapshot(out)
        assert run_cli(["classify", "--config", out / "manifest.ini"]) == 0
        assert snapshot(out) == before


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only, and every CLI start would pay for
    # importing it.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    code = "import sys, lsmdp.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


def test_rollout_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs every compare and simulate child about 1 MiB and 15 ms;
    # only `np.quantile` (through a bare `np.unique`) ever imported it.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    rollout = ["--objective", "trap:n=12,k=4", "--seeds", "5", "--horizon", "80"]
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; "
            "from lsmdp.cli import main; "
            f"codes = [main(['compare', '--policy', 'hc', '--policy', 'walk'] + {rollout!r} + "
            f"['--out', {str(tmp_path / 'c')!r}]), "
            f"main(['simulate', '--policy', 'sa:T0=5,rate=0.995', '--emit-trajectories'] + "
            f"{rollout!r} + ['--out', {str(tmp_path / 's')!r}])]; "
            "print(*codes, before, 'numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    words = result.stdout.split()[-4:]
    if words[2] == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert words == ["0", "0", "False", "False"]


def test_reachable_sweep_leaves_numpy_ma_unloaded(tmp_path):
    # The reachable set is built in closed form: no np.setdiff1d or
    # np.union1d, whose bare np.unique would import numpy.ma.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; "
            "from lsmdp.cli import main; "
            f"codes = [main(['classify', '--objective', 'onemax:n=8', '--neighborhood', "
            f"'hamming:' + str(k), '--policy', 'hc', '--reachable-from', '5', "
            f"'--out', {str(tmp_path)!r} + '/' + str(k)]) for k in (1, 2, 8)]; "
            "print(*codes, before, 'numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    words = result.stdout.split()[-5:]
    if words[3] == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert words == ["0", "0", "0", "False", "False"]


def test_no_command_loads_numpy_random(tmp_path):
    # numpy.random loads OpenSSL (through secrets and hashlib), about 6 MiB
    # and 20 ms a command; lsmdp.streams draws numpy's streams without it.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    commands = []
    for objective in ("onemax:n=6", "nk:n=6,k=2,seed=3"):
        shared = ["--objective", objective]
        commands += [["classify", "--policy", "sa:T0=5,rate=0.9"] + shared,
                     ["value", "--policy", "walk"] + shared,
                     ["gamma"] + shared,
                     ["gamma", "--policy", "walk", "--start", "0", "--t-max", "20"] + shared,
                     ["simulate", "--policy", "walk", "--seeds", "5", "--horizon", "30",
                      "--emit-trajectories"] + shared,
                     ["compare", "--policy", "hc", "--policy", "metropolis:T=1", "--seeds", "5",
                      "--horizon", "30"] + shared]
    code = ("import sys, numpy; loaded = lambda: ('numpy.random' in sys.modules) + "
            "('_hashlib' in sys.modules); before = loaded(); "
            "from lsmdp.cli import main; "
            f"codes = [main(argv + ['--out', {str(tmp_path)!r} + '/' + str(i)]) "
            f"for i, argv in enumerate({commands!r})]; "
            "print(max(codes), before, loaded())")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    words = result.stdout.split()[-3:]
    if words[1] != "0":
        pytest.skip("this numpy loads numpy.random or _hashlib on import")
    assert words == ["0", "0", "0"]


def test_discounted_value_leaves_scipy_unloaded(tmp_path):
    # The library runs without scipy, which only the tests import.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    code = ("import sys; from lsmdp.cli import main; "
            "code = main(['value', '--objective', 'onemax:n=6', '--policy', 'walk', "
            f"'--discount', '0.9', '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize("args", [
    ["classify", "--policy", "sa:T0=5,rate=5e-324"],
    ["classify", "--policy", "sa:T0=1e-320,rate=0.5"],
    ["classify", "--policy", "sa:T0=1e-320,rate=0"],
    ["simulate", "--policy", "sa:T0=5,rate=5e-324", "--seeds", "3", "--horizon", "4"],
    ["value", "--policy", "sa:T0=5,rate=5e-324", "--horizon", "4"],
    ["simulate", "--policy", "metropolis:T=1e-320", "--seeds", "3", "--horizon", "4"],
    ["value", "--policy", "metropolis:T=1e-320"],
], ids=lambda args: f"{args[0]}-{args[2]}")
def test_subnormal_temperatures_warn_nothing(tmp_path, args):
    # A worsening gain over a subnormal temperature overflows to -inf, whose
    # exponential, 0, is the right acceptance: no warning may reach stderr,
    # so the command also runs under warnings-as-errors.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-W", "error", "-m", "lsmdp.cli", *args,
                             "--objective", "onemax:n=3", "--out", str(tmp_path / "o")],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stderr) == (0, "")


def entry_env(**extra):
    # stdout block-buffered, as a pipe or file is without PYTHONUNBUFFERED:
    # what `run` must flush before it ends the process.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(lsmdp.__file__).resolve().parent.parent), **extra}


# `python -m lsmdp.cli` under runpy, as -m runs it, with annealing's certificate
# removed: the one way a command ends inconclusive.
UNCERTIFIED = ("import runpy; from lsmdp.policies import Policy, SimulatedAnnealing; "
               "SimulatedAnnealing.balance_certificate = Policy.balance_certificate; "
               "runpy.run_module('lsmdp.cli', run_name='__main__')")


@pytest.mark.parametrize("code, args", [
    (0, ["classify", "--objective", "onemax:n=6", "--policy", "sa:T0=10,rate=0.9"]),
    (1, ["classify", "--objective", "onemax:n=6", "--policy", "bogus"]),
    (2, ["classify", "--objective", "onemax:n=4", "--policy", "sa:T0=10,rate=0.99"]),
    (3, ["classify", "--objective", "onemax:n=21", "--policy", "hc"]),
])
def test_module_entry_matches_main_in_process(tmp_path, capsys, monkeypatch, code, args):
    out = tmp_path / "out"
    argv = [*args, "--out", str(out)]
    entry = ["-c", UNCERTIFIED] if code == 2 else ["-m", "lsmdp.cli"]
    child = subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                           env=entry_env())
    written = snapshot(out) if out.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    if code == 2:
        monkeypatch.setattr(SimulatedAnnealing, "balance_certificate",
                            Policy.balance_certificate)
    assert main(argv) == child.returncode == code
    captured = capsys.readouterr()
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    assert written == (snapshot(out) if out.exists() else None)
    assert (written is None) == (code in (1, 3))


@pytest.mark.parametrize("code, objective", [(0, "onemax:n=6"), (3, "onemax:n=21")])
def test_run_keeps_exit_handlers_and_the_code(tmp_path, code, objective):
    program = ("import atexit; from lsmdp import cli; "
               "atexit.register(print, 'exit handler ran'); cli.run()")
    result = subprocess.run([sys.executable, "-c", program, "classify", "--objective", objective,
                             "--policy", "hc", "--out", str(tmp_path)],
                            capture_output=True, text=True, env=entry_env())
    printed = "exploitation-oriented\n" if code == 0 else ""
    assert (result.returncode, result.stdout) == (code, printed + "exit handler ran\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_failed_stdout_ends_as_sys_exit_did(tmp_path, unbuffered):
    # A flush that fails leaves the ending to sys.exit: unbuffered, the print
    # itself fails inside `main` (exit 1); buffered, the interpreter's own
    # flush fails at teardown.
    args = ["classify", "--objective", "onemax:n=4", "--policy", "hc", "--out", str(tmp_path)]
    endings = {}
    for name, entry in (("run", ["-m", "lsmdp.cli"]),
                        ("sys.exit", ["-c", "import sys; from lsmdp.cli import main; "
                                            "sys.exit(main())"])):
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, *entry, *args], stdout=full,
                                    stderr=subprocess.PIPE, text=True,
                                    env=entry_env(PYTHONUNBUFFERED=unbuffered))
        endings[name] = (result.returncode, result.stderr)
    assert endings["run"] == endings["sys.exit"]
    if unbuffered:
        assert endings["run"] == (1, "error: [Errno 28] No space left on device\n")


def test_run_ends_the_process_with_mains_code(tmp_path, monkeypatch, capsys):
    ended = []
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ended.append("exit handlers"))
    monkeypatch.setattr(os, "_exit", ended.append)
    monkeypatch.setattr(sys, "argv", ["lsmdp", "classify", "--objective", "onemax:n=21",
                                      "--policy", "hc", "--out", str(tmp_path)])
    cli.run()
    assert ended == ["exit handlers", 3]

    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    ended.clear()
    monkeypatch.setattr(sys, "stdout", Full())
    monkeypatch.setattr(sys, "argv", ["lsmdp", "classify", "--objective", "onemax:n=4",
                                      "--policy", "hc", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as raised:
        cli.run()
    assert (raised.value.code, ended) == (0, ["exit handlers"])


def test_console_script_ends_through_run():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n")[1].split("\n[")[0]
    assert scripts.split() == ["lsmdp", "=", '"lsmdp.cli:run"']


REFUSED_OBJECTIVES = ["onemax:n=10,k=3", "onemax:n=10,n=12", "nk:n=12,k=3,seed=7,sed=8",
                      "trap:n=8,k=4,seed=1", "maxsat:path={cnf},x=1"]
REFUSED_POLICIES = ["sa:T0=10,rate=0.9,foo=3", "sa:T0=1,T0=2,rate=0.5", "metropolis:T=1,x=2"]


@pytest.mark.parametrize("command", ["classify", "gamma", "value", "simulate", "compare"])
@pytest.mark.parametrize("option, bad", [("objective", bad) for bad in REFUSED_OBJECTIVES]
                         + [("policy", bad) for bad in REFUSED_POLICIES])
def test_unknown_or_repeated_descriptor_keys_are_refused(tmp_path, capsys, command, option, bad):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    options = {"objective": "onemax:n=6", "policy": "walk", option: bad.format(cnf=cnf)}
    out = tmp_path / "out"
    assert run_cli([command, "--objective", options["objective"], "--policy", options["policy"],
                    "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and options[option] in err
    assert not out.exists()

