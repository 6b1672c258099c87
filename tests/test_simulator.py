import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import reference
from lsmdp import cli, objectives, simulator
from lsmdp.objectives import Objective, make_nk_landscape, make_onemax
from lsmdp.policies import HillClimbing, RandomWalk, SimulatedAnnealing, parse_policy
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp, ResourceLimitError
from lsmdp.serialize import dumps_json_line
from lsmdp.simulator import (TrajectoryStep, best_so_far_curve, derive_seed,
                             exploration_fraction_by_bucket,
                             exploration_ratio_by_bucket, generate_records,
                             run_batch, run_trajectory, simulate_batch, summarize_records)


def final_state(record):
    """The state a trajectory record ends in."""
    for s in reversed(record.steps):
        return s.move.dst if s.move is not None else s.state
    return record.start


@pytest.fixture
def onemax5():
    return LocalSearchMdp(make_onemax(5))


class TestRunTrajectory:
    def test_hill_climb_reaches_optimum(self, onemax5):
        record = run_trajectory(HillClimbing(), onemax5, 0, 20, seed=1)
        assert record.terminated_at is not None and record.terminated_at <= 5
        assert final_state(record) == 0b11111
        assert math.fsum(s.reward for s in record.steps) == 5.0

    def test_zero_horizon(self, onemax5):
        record = run_trajectory(HillClimbing(), onemax5, 0, 0, seed=1)
        assert record.steps == []
        assert record.best_so_far == [(0, 0.0)]
        assert record.terminated_at is None

    def test_equal_seeds_equal_records(self, onemax5):
        sa = SimulatedAnnealing(2.0, 0.9)
        a = run_trajectory(sa, onemax5, 0, 50, seed=77)
        b = run_trajectory(sa, onemax5, 0, 50, seed=77)
        assert a == b
        c = run_trajectory(sa, onemax5, 0, 50, seed=78)
        assert a != c

    def test_best_so_far_nondecreasing(self, onemax5):
        record = run_trajectory(RandomWalk(), onemax5, 0, 60, seed=5)
        bests = [b for _, b in record.best_so_far]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_reward_telescoping(self, onemax5):
        for seed in range(10):
            record = run_trajectory(SimulatedAnnealing(3.0, 0.9), onemax5, 7, 40, seed=seed)
            total = math.fsum(s.reward for s in record.steps)
            assert total == pytest.approx(
                onemax5.value(final_state(record)) - onemax5.value(record.start), abs=1e-12)

    def test_sigma_tags_round_trip(self, onemax5):
        record = run_trajectory(SimulatedAnnealing(3.0, 0.9), onemax5, 0, 40, seed=3)
        for s in record.steps:
            if s.move is None:
                assert s.kind is None
            else:
                assert s.kind == ("exploration" if s.reward <= 0 else "exploitation")

    def test_json_dict_shape(self, onemax5):
        batch = simulate_batch(RandomWalk(), onemax5, 0, 3, 1, base_seed=0, keep_steps=True)
        line = dumps_json_line(batch.trajectory_json(0))
        payload = json.loads(line)
        assert set(payload) == {"seed", "start", "terminated_at", "steps", "best_so_far"}
        assert len(payload["steps"]) == 3
        assert line == reference.dumps_json_line(
            reference.trajectory_json_dict(batch.records[0]))


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(0, 0) != derive_seed(1, 0)
        assert derive_seed(0, 0, stream=0) != derive_seed(0, 0, stream=1)


class TestBatches:
    def test_summary_invariant_to_record_order(self, onemax5):
        records = generate_records(RandomWalk(), onemax5, "uniform", 40, 30, base_seed=9)
        base = summarize_records(reference.rollouts_from_records(records, 40), 5,
                                 onemax5.objective.known_optimum)
        shuffled = list(records)
        random.Random(0).shuffle(shuffled)
        assert summarize_records(reference.rollouts_from_records(shuffled, 40), 5,
                                 onemax5.objective.known_optimum) == base

    def test_hill_climbing_from_uniform_starts_always_hits(self):
        # onemax has no strict local optimum besides the global one
        mdp = LocalSearchMdp(make_onemax(12))
        summary = run_batch(HillClimbing(), mdp, "uniform", 20, 60, base_seed=4)
        assert summary.hit_rate == 1.0

    def test_annealing_hits_reliably(self):
        mdp = LocalSearchMdp(make_onemax(12))
        summary = run_batch(SimulatedAnnealing(5.0, 0.98), mdp, "uniform", 2000, 200,
                            base_seed=0)
        assert summary.hit_rate >= 0.95

    def test_empty_batch_has_undefined_aggregates(self, onemax5):
        summary = run_batch(RandomWalk(), onemax5, 0, 10, 0, base_seed=0)
        assert summary.num_trajectories == 0
        assert summary.hit_rate is None
        assert summary.best_final_mean is None

    def test_fixed_start_rule(self, onemax5):
        records = generate_records(RandomWalk(), onemax5, 3, 5, 4, base_seed=1)
        assert all(record.start == 3 for record in records)

    def test_bad_start_rule(self, onemax5):
        with pytest.raises(ValueError):
            generate_records(RandomWalk(), onemax5, "everywhere", 5, 2, base_seed=1)

    def test_no_known_optimum_no_hit_rate(self):
        flat = LocalSearchMdp(Objective(4, lambda x: 0.0, "flat", None))
        summary = run_batch(RandomWalk(), flat, 0, 10, 5, base_seed=0)
        assert summary.hit_rate is None

    def test_summary_json_dict_is_asdict_without_the_copies(self, onemax5):
        summary = run_batch(SimulatedAnnealing(2.0, 0.9), onemax5, "uniform", 30, 8,
                            base_seed=3, bucket_width=4)
        assert summary.exploration_fraction and summary.exploration_ratio
        shallow = summary.to_json_dict()
        assert shallow == dataclasses.asdict(summary)
        assert list(shallow) == list(dataclasses.asdict(summary))
        assert shallow["exploration_ratio"] is summary.exploration_ratio


class TestBuckets:
    def test_hill_climbing_ratios_all_zero(self, onemax5):
        batch = simulate_batch(HillClimbing(), onemax5, "uniform", 20, 20, base_seed=2)
        assert all(r == 0.0 for r in exploration_ratio_by_bucket(batch, 5))

    def test_plateau_walk_is_all_exploration(self):
        flat = LocalSearchMdp(Objective(4, lambda x: 0.0, "flat", None))
        batch = simulate_batch(RandomWalk(), flat, 0, 20, 5, base_seed=0)
        assert all(r == math.inf for r in exploration_ratio_by_bucket(batch, 5))
        assert all(f == 1.0 for f in exploration_fraction_by_bucket(batch, 5))

    def test_empty_bucket_conventions(self, onemax5):
        batch = simulate_batch(HillClimbing(), onemax5, 0, 40, 3, base_seed=0)
        # absorbed after <= 5 steps: later buckets hold no moves at all
        ratios = exploration_ratio_by_bucket(batch, 10)
        fractions = exploration_fraction_by_bucket(batch, 10)
        assert ratios[-1] == 0.0
        assert fractions[-1] is None

    def test_fast_cooling_ratios_nonincreasing_after_first_bucket(self):
        # medians over 100 independently seeded trajectories; thresholds frozen
        # from measurement
        mdp = LocalSearchMdp(make_onemax(10))
        sa = SimulatedAnnealing(2.0, 0.8)
        per_seed = []
        for seed in range(100):
            batch = simulate_batch(sa, mdp, "uniform", 60, 1, base_seed=seed)
            per_seed.append(exploration_ratio_by_bucket(batch, 10))
        medians = [float(np.median([row[b] for row in per_seed])) for b in range(6)]
        for a, b in zip(medians[1:], medians[2:]):
            assert b <= a + 1e-12

    def test_annealing_exploration_fraction_decays(self):
        # median exploration fraction in the first bucket strictly exceeds the
        # final bucket (100 seeds; frozen from measurement)
        mdp = LocalSearchMdp(make_onemax(10))
        sa = SimulatedAnnealing(5.0, 0.9)
        first, last = [], []
        for seed in range(100):
            batch = simulate_batch(sa, mdp, "uniform", 100, 1, base_seed=seed)
            fractions = exploration_fraction_by_bucket(batch, 20)
            first.append(fractions[0] if fractions[0] is not None else 0.0)
            last.append(fractions[-1] if fractions[-1] is not None else 0.0)
        assert float(np.median(first)) > float(np.median(last))

    def test_summary_reads_the_batch_horizon(self, onemax5):
        # The summaries take no horizon: a 10-step batch at width 2 has 5 buckets.
        batch = simulate_batch(RandomWalk(), onemax5, 0, 10, 3, base_seed=0)
        summary = summarize_records(batch, bucket_width=2)
        assert summary.horizon == 10
        assert len(summary.exploration_fraction) == len(summary.exploration_ratio) == 5
        assert len(best_so_far_curve(batch)[0]) == 11


class TestCurves:
    def test_padding_and_shape(self, onemax5):
        batch = simulate_batch(HillClimbing(), onemax5, "uniform", 15, 10, base_seed=3)
        means, quartiles = best_so_far_curve(batch)
        assert len(means) == 16
        assert set(quartiles) == {"p25", "p50", "p75"}
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] == pytest.approx(5.0)  # every climb tops out


class TestOnlineReduction:
    ARGV = ["compare", "--objective", "trap:n=12,k=4", "--policy", "hc", "--policy", "walk",
            "--policy", "sa:T0=5,rate=0.95", "--policy", "metropolis:T=1", "--seeds", "9",
            "--horizon", "70", "--bucket-width", "8", "--base-seed", "3"]
    OUTPUTS = ("summary.csv", "summary.json", "plot_best.csv", "plot_explore.csv", "seeds.csv")

    def test_compare_without_trajectories_builds_no_steps(self, tmp_path, monkeypatch):
        built = []
        init = TrajectoryStep.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrajectoryStep, "__init__", counting_init)
        assert cli.main(self.ARGV + ["--out", str(tmp_path / "online")]) == 0
        assert built == []

        # The records-based path: keep every step, then reduce the records.
        def from_records(policies, mdp, start_rule, horizon, count, base_seed,
                         keep_steps=False):
            return [reference.rollouts_from_records(
                        generate_records(policy, mdp, start_rule, horizon, count, base_seed),
                        horizon) for policy in policies]

        monkeypatch.setattr(cli, "simulate_batches", from_records)
        assert cli.main(self.ARGV + ["--out", str(tmp_path / "records")]) == 0
        assert built
        for name in self.OUTPUTS:
            assert ((tmp_path / "online" / name).read_bytes()
                    == (tmp_path / "records" / name).read_bytes()), name

    def test_batches_larger_than_a_chunk(self, monkeypatch):
        # Chunks of 3 trajectories must give what one chunk gives.
        mdp = LocalSearchMdp(make_onemax(6))
        sa = SimulatedAnnealing(2.0, 0.9)
        whole = simulate_batch(sa, mdp, "uniform", 30, 8, base_seed=5, keep_steps=True)
        monkeypatch.setattr("lsmdp.simulator.SWEEP_CHUNK", 3)
        chunked = simulate_batch(sa, mdp, "uniform", 30, 8, base_seed=5, keep_steps=True)
        assert chunked.records == whole.records
        assert np.array_equal(chunked.best, whole.best)
        assert np.array_equal(chunked.explore, whole.explore)
        assert np.array_equal(chunked.exploit, whole.exploit)

    def test_long_horizon_crosses_draw_blocks(self):
        # 600 steps span three blocks of pre-drawn uniforms.
        mdp = LocalSearchMdp(make_onemax(8))
        sa = SimulatedAnnealing(3.0, 0.999)
        records = generate_records(sa, mdp, "uniform", 600, 3, base_seed=1)
        assert records == reference.generate_records(sa, mdp, "uniform", 600, 3, base_seed=1)

    def test_absorbed_trajectories_leave_the_others_draws_alone(self):
        # Hill climbers stop at different times; the ones still climbing
        # break ties among equal neighbors with their own draws.
        mdp = LocalSearchMdp(make_onemax(10))
        records = generate_records(HillClimbing(), mdp, "uniform", 12, 12, base_seed=2)
        assert len({record.terminated_at for record in records}) > 2
        assert records == reference.generate_records(HillClimbing(), mdp, "uniform", 12, 12,
                                                     base_seed=2)

    @pytest.mark.parametrize("options", [dict(horizon=-3), dict(start_rule=99),
                                         dict(start_rule="everywhere")])
    def test_options_checked_for_empty_batches(self, onemax5, options):
        args = dict(start_rule=0, horizon=10) | options
        with pytest.raises(ValueError):
            simulate_batch(RandomWalk(), onemax5, args["start_rule"], args["horizon"], 0,
                           base_seed=0)
        with pytest.raises(ValueError):
            summarize_records(simulate_batch(RandomWalk(), onemax5, 0, 10, 0, base_seed=0),
                              bucket_width=0)

    @pytest.mark.parametrize("descriptor", ["sa:T0=1,rate=0.99", "walk", "metropolis:T=1", "hc",
                                            "hc:literal"])
    def test_only_rows_that_moved_reevaluate_their_neighbors(self, descriptor):
        # Every row's table is built at step 0, and after that only the
        # tables of rows that moved in the step before: d (R + the moves
        # taken before the last step) neighbor values, where rebuilding
        # every running row every step would take up to d R H (240,000).
        nk = make_nk_landscape(16, 3, 1)
        evaluated = []

        def counting(states):
            evaluated.append(states.size)
            return nk.batch(states)

        mdp = LocalSearchMdp(Objective(16, nk.fn, nk.name, None, batch=counting))
        batch = simulate_batch(parse_policy(descriptor), mdp, "uniform", 300, 50, base_seed=0)
        moves = int(batch.explore[:-1].sum() + batch.exploit[:-1].sum())
        assert sum(evaluated) == 16 * (50 + moves)

    @pytest.mark.parametrize("objective,distance,policies,seeds,horizon,keep", [
        ("trap:n=40,k=4", 1, ["walk"], 100, 1000, False),
        ("trap:n=40,k=4", 1, ["hc", "walk", "sa:T0=5,rate=0.995", "metropolis:T=1"], 25, 1000,
         True),
        ("onemax:n=12", 3, ["walk"], 100, 100, False),
    ])
    def test_the_memory_check_counts_what_a_run_holds(self, monkeypatch, objective, distance,
                                                      policies, seeds, horizon, keep):
        # The count bounded tracemalloc's peak by 11-44% on these runs.
        mdp = LocalSearchMdp(objectives.parse_objective(objective),
                             HammingNeighborhood(distance))
        policies = [parse_policy(p) for p in policies]
        simulator.simulate_batches(policies, mdp, "uniform", 3, 2, 0)  # masks cached
        counted = []
        monkeypatch.setattr(simulator, "check_memory",
                            lambda what, **shapes: counted.append(objectives.check_memory(
                                what, **shapes)))
        tracemalloc.start()
        try:
            simulator.simulate_batches(policies, mdp, "uniform", horizon, seeds, 0, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted[0] >= peak

    def test_run_trajectory_checks_the_memory_budget(self, monkeypatch):
        # 924 moves a step: one row's tables and masks alone take 111 kB.
        mdp = LocalSearchMdp(make_onemax(12), HammingNeighborhood(6))
        monkeypatch.setattr(objectives, "MEMORY_BUDGET", 100_000)

        def unreachable(*args, **kwargs):
            raise AssertionError("a run over the budget started")

        monkeypatch.setattr(simulator, "_lockstep", unreachable)
        with pytest.raises(ResourceLimitError, match="budget"):
            run_trajectory(RandomWalk(), mdp, 0, 10, seed=1)
