import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsmdp
from lsmdp.cli import main


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

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        # cooling too slow for the horizon: the tail cannot be bounded yet
        code = run_cli(["classify", "--objective", "onemax:n=4", "--policy",
                        "sa:T0=10,rate=0.99", "--horizon", "120", "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().out.strip() == "inconclusive"

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


class TestConfigHandling:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nobjective = onemax:n=4\npolicy = hc\nhorizon = 5\n"
                          f"out = {tmp_path / 'o1'}\n")
        assert run_cli(["classify", "--config", config, "--horizon", "7"]) == 0
        manifest = (tmp_path / "o1" / "manifest.ini").read_text()
        assert "horizon = 7" in manifest

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
    # scipy serves only undiscounted stationary evaluation; every CLI start
    # would otherwise pay for importing it.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    code = "import sys, lsmdp.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


def test_discounted_value_leaves_scipy_unloaded(tmp_path):
    # Only the library's undiscounted stationary solve imports scipy.
    src = str(Path(lsmdp.__file__).resolve().parent.parent)
    code = ("import sys; from lsmdp.cli import main; "
            "code = main(['value', '--objective', 'onemax:n=6', '--policy', 'walk', "
            f"'--discount', '0.9', '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split()[-2:] == ["0", "False"]
