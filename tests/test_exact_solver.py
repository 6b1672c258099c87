import math

import numpy as np
import pytest

from lsmdp import cli
from lsmdp.coefficients import classify, improving_sweep
from lsmdp.exact_solver import (enumerate_trajectories, evaluate_nonstationary,
                                evaluate_stationary, evaluate_stationary_table, freeze,
                                value_iteration)
from lsmdp.objectives import Objective, make_onemax
from lsmdp.policies import (HillClimbing, Metropolis, RandomWalk,
                            SimulatedAnnealing)
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp, ResourceLimitError


@pytest.fixture
def onemax2():
    return LocalSearchMdp(make_onemax(2))


class TestFreeze:
    def test_hill_climbing_rows(self, onemax2):
        pm = freeze(HillClimbing(), onemax2, 0)
        assert pm.P[0b01].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert pm.P[0b11].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert pm.P[0b00].tolist() == [0.0, 0.5, 0.5, 0.0]
        assert pm.r.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_random_walk_uniform(self, onemax2):
        pm = freeze(RandomWalk(), onemax2, 0)
        for i in range(4):
            for j in onemax2.neighbors(i):
                assert pm.P[i, j] == 0.5
            assert pm.P[i, i] == 0.0

    def test_cooling_shrinks_worsening_entries(self, onemax2):
        sa = SimulatedAnnealing(1.0, 0.5)
        early = freeze(sa, onemax2, 0)
        late = freeze(sa, onemax2, 5)
        for i in range(4):
            for j in onemax2.neighbors(i):
                if onemax2.value(j) <= onemax2.value(i):
                    assert late.P[i, j] < early.P[i, j]

    def test_rows_are_stochastic(self):
        mdp = LocalSearchMdp(make_onemax(6))
        for policy in (HillClimbing(), RandomWalk(), SimulatedAnnealing(2.0, 0.8)):
            pm = freeze(policy, mdp, 3)
            assert np.max(np.abs(pm.P.sum(axis=1) - 1.0)) <= 1e-12
            assert np.min(pm.P) >= 0.0

    def test_dense_cap(self):
        calls = []
        counting = Objective(15, lambda x: calls.append(x) or 0.0, "counting", None)
        with pytest.raises(ResourceLimitError):
            freeze(HillClimbing(), LocalSearchMdp(counting), 0)
        assert calls == []  # the cap fails before any evaluation or allocation


class TestEvaluateStationary:
    def test_myopic_discount_zero(self, onemax2):
        pm = freeze(RandomWalk(), onemax2, 0)
        vv = evaluate_stationary(pm, 0.0)
        assert np.array_equal(vv.v, pm.r)

    def test_rejects_bad_discount(self, onemax2):
        pm = freeze(HillClimbing(), onemax2, 0)
        for discount in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                evaluate_stationary(pm, discount)


class TestEvaluateStationaryTable:
    def test_myopic_discount_zero(self, onemax2):
        vv = evaluate_stationary_table(RandomWalk(), onemax2, 0.0)
        assert np.array_equal(vv.v, freeze(RandomWalk(), onemax2, 0).r)
        assert vv.residual == 0.0

    @pytest.mark.parametrize("discount", [1.0, 1.5, -0.1])
    def test_rejects_discount_outside_unit_interval(self, onemax2, discount):
        with pytest.raises(ValueError):
            evaluate_stationary_table(RandomWalk(), onemax2, discount)

    def test_rejects_nonstationary_policy(self, onemax2):
        with pytest.raises(ValueError):
            evaluate_stationary_table(SimulatedAnnealing(1.0, 0.5), onemax2, 0.9)


class TestMemoryBudget:
    """Each solver checks a byte estimate of its arrays before it reads the
    landscape: a refused solve makes no objective call."""

    @staticmethod
    def counting(n):
        calls = []
        return calls, Objective(n, lambda x: calls.append(x) or 0.0, "counting", None)

    @pytest.mark.parametrize("solve", [
        lambda mdp: evaluate_stationary_table(RandomWalk(), mdp, 0.9),
        lambda mdp: evaluate_nonstationary(SimulatedAnnealing(1.0, 0.5), mdp, 3, 0.9),
        lambda mdp: value_iteration(mdp, 0.9),
    ])
    @pytest.mark.parametrize("n, distance", [(21, 1), (16, 8)])
    def test_table_solvers_refuse_before_any_evaluation(self, solve, n, distance):
        calls, objective = self.counting(n)
        with pytest.raises(ResourceLimitError):
            solve(LocalSearchMdp(objective, HammingNeighborhood(distance)))
        assert calls == []

    @pytest.mark.parametrize("solve", [
        lambda mdp: evaluate_stationary_table(RandomWalk(), mdp, 0.9),
        lambda mdp: evaluate_nonstationary(SimulatedAnnealing(1.0, 0.5), mdp, 3, 0.9),
        lambda mdp: value_iteration(mdp, 0.9),
        lambda mdp: freeze(HillClimbing(), mdp),
        lambda mdp: classify(HillClimbing(), mdp),
        improving_sweep,
    ])
    def test_exhaustive_cap_refuses_before_any_evaluation(self, solve):
        # hamming:21 has one move per state, so the table solves fit the
        # budget; the exhaustive cap n <= 20 refuses them all the same.
        calls, objective = self.counting(21)
        with pytest.raises(ResourceLimitError, match="capped"):
            solve(LocalSearchMdp(objective, HammingNeighborhood(21)))
        assert calls == []

    def test_exhaustive_classify_refused_at_21_bits(self):
        calls, objective = self.counting(21)
        with pytest.raises(ResourceLimitError):
            classify(SimulatedAnnealing(10.0, 0.9), LocalSearchMdp(objective))
        assert calls == []

    @pytest.mark.parametrize("options", [[], ["--policy", "hc", "--start", "0"]])
    def test_gamma_refused_at_21_bits(self, tmp_path, monkeypatch, capsys, options):
        calls, objective = self.counting(21)
        monkeypatch.setattr(cli, "parse_objective", lambda descriptor: objective)
        out = tmp_path / "out"
        assert cli.main(["gamma", "--objective", "counted", *options, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not out.exists()

    def test_freeze_checks_its_time_before_any_evaluation(self):
        calls, objective = self.counting(12)
        with pytest.raises(ValueError, match="time index must be >= 0, got -1"):
            freeze(HillClimbing(), LocalSearchMdp(objective), -1)
        assert calls == []

    @pytest.mark.parametrize("solve", [
        lambda mdp: value_iteration(mdp, 2.0),
        lambda mdp: evaluate_nonstationary(HillClimbing(), mdp, -1, 0.9),
    ], ids=["value_iteration", "evaluate_nonstationary"])
    def test_arguments_are_checked_before_the_price(self, solve):
        # At n=22 the table is over the budget, but the bad argument is named.
        calls, objective = self.counting(22)
        with pytest.raises(ValueError):
            solve(LocalSearchMdp(objective))
        assert calls == []

    def test_budget_edges(self):
        # The prices alone: table solves reach the exhaustive cap n = 20 under
        # hamming:1, dense solves stop at n = 13.  A solve its price lets
        # through reads its table next, which stops it here.
        class Priced(Exception):
            pass

        def mdp(n):
            def read_table():
                raise Priced
            space = LocalSearchMdp(make_onemax(n))
            space.move_gains = read_table
            return space

        for solve in (lambda space: evaluate_stationary_table(RandomWalk(), space, 0.9),
                      lambda space: evaluate_nonstationary(RandomWalk(), space, 10, 0.9),
                      lambda space: value_iteration(space, 0.9)):
            with pytest.raises(Priced):
                solve(mdp(20))
        with pytest.raises(Priced):
            freeze(RandomWalk(), mdp(13))
        with pytest.raises(ResourceLimitError, match="dense"):
            freeze(RandomWalk(), mdp(14))


class TestLandscape:
    @staticmethod
    def counting(n):
        batches = []
        onemax = make_onemax(n)
        return batches, Objective(n, None, "counting", float(n),
                                  batch=lambda x: batches.append(len(x)) or onemax.values(x))

    def test_building_an_mdp_evaluates_nothing(self):
        batches, objective = self.counting(6)
        LocalSearchMdp(objective)
        LocalSearchMdp(objective, HammingNeighborhood(2))
        assert batches == []

    def test_repeated_freeze_evaluates_once(self):
        batches, objective = self.counting(6)
        mdp = LocalSearchMdp(objective)
        first = freeze(SimulatedAnnealing(1.0, 0.5), mdp, 0)
        assert batches == [2**6]
        for t in (0, 1, 7):
            again = freeze(SimulatedAnnealing(1.0, 0.5), mdp, t)
        assert batches == [2**6]
        assert np.array_equal(freeze(SimulatedAnnealing(1.0, 0.5), mdp, 0).P, first.P)
        assert not np.array_equal(again.P, first.P)

    def test_solvers_share_one_evaluation(self):
        batches, objective = self.counting(7)
        mdp = LocalSearchMdp(objective)
        evaluate_stationary_table(Metropolis(1.0), mdp, 0.9)
        evaluate_nonstationary(SimulatedAnnealing(10.0, 0.9), mdp, 20, 0.9)
        value_iteration(mdp, 0.9)
        classify(HillClimbing(), mdp)
        assert batches == [2**7]


class TestEvaluateNonstationary:
    def test_matches_fixed_point_for_stationary_policies(self, onemax2):
        for policy in (HillClimbing(), RandomWalk(), Metropolis(1.0)):
            finite = evaluate_nonstationary(policy, onemax2, 500, 0.9)
            fixed = evaluate_stationary(freeze(policy, onemax2, 0), 0.9)
            assert np.max(np.abs(finite.v - fixed.v)) <= 1e-6

    def test_single_step_is_reward(self, onemax2):
        sa = SimulatedAnnealing(1.0, 0.5)
        finite = evaluate_nonstationary(sa, onemax2, 1, 0.9)
        assert np.array_equal(finite.v, freeze(sa, onemax2, 0).r)

    def test_zero_horizon(self, onemax2):
        assert np.array_equal(evaluate_nonstationary(RandomWalk(), onemax2, 0, 1.0).v,
                              np.zeros(4))

    def test_annealing_value_nondecreasing_in_horizon(self):
        mdp = LocalSearchMdp(make_onemax(3))
        sa = SimulatedAnnealing(1.0, 0.5)
        previous = 0.0
        for horizon in range(1, 101):
            value = evaluate_nonstationary(sa, mdp, horizon, 1.0).v[0]
            assert value >= previous - 1e-12
            previous = value

    def test_landscape_read_once_per_call(self):
        # One move-gain table serves every t: a plain objective (no batch
        # form) is called once per state, not once per state and step.
        calls = []
        counting = Objective(8, lambda x: calls.append(x) or float(x.bit_count()),
                             "counting", 8.0)
        evaluate_nonstationary(SimulatedAnnealing(10.0, 0.9), LocalSearchMdp(counting), 50, 0.9)
        assert len(calls) <= 2**8

    def test_annealing_small_horizons_match_enumerator(self):
        mdp = LocalSearchMdp(make_onemax(3))
        sa = SimulatedAnnealing(1.0, 0.5)
        for horizon in range(5):
            finite = evaluate_nonstationary(sa, mdp, horizon, 1.0)
            assert finite.v[0] == pytest.approx(
                enumerate_trajectories(sa, mdp, 0, horizon), abs=1e-12)


class TestValueIteration:
    def test_greedy_improves_on_every_non_optimal_state(self):
        mdp = LocalSearchMdp(make_onemax(3))
        _, next_state = value_iteration(mdp, 0.9)
        for i in range(8):
            j = int(next_state[i])
            if i == 0b111:
                assert j == i
            else:
                assert j in mdp.neighbors(i)
                assert mdp.value(j) > mdp.value(i)

    def test_constant_objective_all_zero(self):
        flat = LocalSearchMdp(Objective(3, lambda x: 1.0, "flat", None))
        vv, next_state = value_iteration(flat, 0.9)
        assert np.allclose(vv.v, 0.0, atol=1e-10)
        assert next_state.tolist() == list(range(8))

    def test_dominates_policy_values(self):
        mdp = LocalSearchMdp(make_onemax(3))
        optimal, _ = value_iteration(mdp, 0.9, 1e-10)
        for policy in (HillClimbing(), RandomWalk()):
            vv = evaluate_stationary(freeze(policy, mdp, 0), 0.9)
            assert np.all(optimal.v >= vv.v - 1e-8)

    def test_parameter_validation(self):
        mdp = LocalSearchMdp(make_onemax(2))
        with pytest.raises(ValueError):
            value_iteration(mdp, 1.0)
        with pytest.raises(ValueError):
            value_iteration(mdp, 0.9, tolerance=0.0)


class TestEnumerateTrajectories:
    def test_hill_climbing_hand_value(self, onemax2):
        assert enumerate_trajectories(HillClimbing(), onemax2, 0, 3) == pytest.approx(2.0,
                                                                                      abs=1e-12)

    def test_zero_horizon_is_zero(self, onemax2):
        assert enumerate_trajectories(RandomWalk(), onemax2, 0, 0) == 0.0

    def test_cross_oracle_agreement(self, onemax2):
        sa = SimulatedAnnealing(1.0, 0.5)
        expected = evaluate_nonstationary(sa, onemax2, 2, 1.0).v[0]
        assert enumerate_trajectories(sa, onemax2, 0, 2) == pytest.approx(expected, abs=1e-12)

    def test_leaf_budget(self):
        mdp = LocalSearchMdp(make_onemax(8))
        with pytest.raises(ResourceLimitError):
            enumerate_trajectories(RandomWalk(), mdp, 0, 10)
