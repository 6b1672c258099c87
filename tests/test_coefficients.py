import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference
from lsmdp import coefficients, policies
from lsmdp.coefficients import (CONVERGED, DEGENERATE, DIVERGING, INCONCLUSIVE, ZERO,
                                UndefinedCoefficientError, balance_series, classify,
                                convergence_coefficient, convergence_trace, count_fractions,
                                decomposition_residual, exploration_masses,
                                exploration_ratio, improving, improving_counts,
                                improving_sweep)
from lsmdp.objectives import Objective, make_leading_ones, make_onemax, parse_objective
from lsmdp.policies import (HillClimbing, Metropolis, RandomWalk,
                            SimulatedAnnealing)
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp, ResourceLimitError
from lsmdp.serialize import csv_text, dumps_json


@pytest.fixture
def onemax3():
    return LocalSearchMdp(make_onemax(3))


def written(report):
    """The text of `report.json` and `report.csv`."""
    return dumps_json(report.to_json_dict()), csv_text(report.CSV_HEADER, report.table())


def split(mdp, state):
    """(improving, non-improving) neighbors of `state`, by the sign of the
    gains in its move-gain table."""
    nbr, gain, _ = mdp.move_gains([state])
    up = improving(gain[0])
    return set(nbr[0, up].tolist()), set(nbr[0, ~up].tolist())


class TestMoveKind:
    """Single moves through the one split: gain > 0 exploits, gain <= 0 explores."""

    def test_improving_is_exploitation(self, onemax3):
        assert 0b111 in split(onemax3, 0b011)[0]

    def test_worsening_is_exploration(self, onemax3):
        assert 0b001 in split(onemax3, 0b011)[1]

    def test_plateau_is_exploration(self):
        # From 1100, the plateau move to 1101 counts with the two worsening
        # moves: a uniform walk puts 3/4 of its mass on exploration.
        mdp = LocalSearchMdp(make_leading_ones(4))
        assert exploration_masses(RandomWalk(), mdp, 0b1100, 0) == (0.75, 0.25)


class TestPartition:
    def test_interior_state(self, onemax3):
        assert split(onemax3, 0b011) == ({0b111}, {0b001, 0b010})

    def test_optimum(self, onemax3):
        assert split(onemax3, 0b111) == (set(), {0b011, 0b101, 0b110})

    def test_minimum(self, onemax3):
        assert split(onemax3, 0b000) == ({0b001, 0b010, 0b100}, set())


class TestCountFractions:
    def test_interior(self, onemax3):
        assert count_fractions(onemax3, 0b011) == (Fraction(2, 3), Fraction(1, 3))

    def test_extremes(self, onemax3):
        assert count_fractions(onemax3, 0b111) == (Fraction(1), Fraction(0))
        assert count_fractions(onemax3, 0b000) == (Fraction(0), Fraction(1))

    def test_sum_is_exactly_one_everywhere(self):
        for n in range(1, 9):
            mdp = LocalSearchMdp(make_onemax(n))
            for i in range(1 << n):
                alpha, beta = count_fractions(mdp, i)
                assert alpha + beta == 1

    def test_no_moves_is_an_error(self):
        mdp = LocalSearchMdp(make_onemax(2), HammingNeighborhood(3))
        with pytest.raises(UndefinedCoefficientError):
            count_fractions(mdp, 0)


class TestConvergenceCoefficient:
    def test_values(self, onemax3):
        assert convergence_coefficient(onemax3, 0b011) == 0.5
        assert convergence_coefficient(onemax3, 0b111) == 0.0
        assert convergence_coefficient(onemax3, 0b000) == math.inf

    def test_zero_iff_local_maximum(self):
        for make in (make_onemax, make_leading_ones):
            mdp = LocalSearchMdp(make(8))
            for i in range(256):
                brute_local_max = all(mdp.value(j) <= mdp.value(i) for j in mdp.neighbors(i))
                assert (convergence_coefficient(mdp, i) == 0.0) == brute_local_max


class TestImprovingSweep:
    @pytest.mark.parametrize("descriptor", ["onemax:n=9", "trap:n=10,k=5", "leading_ones:n=8",
                                            "nk:n=10,k=3,seed=2"])
    @pytest.mark.parametrize("distance", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, coefficients.SWEEP_CHUNK])
    def test_equals_the_counts_of_the_whole_table(self, monkeypatch, descriptor, distance, chunk):
        monkeypatch.setattr(coefficients, "SWEEP_CHUNK", chunk)
        mdp = LocalSearchMdp(parse_objective(descriptor), HammingNeighborhood(distance))
        np.testing.assert_array_equal(improving_sweep(mdp), improving_counts(mdp.move_gains()[1]))


class TestConvergenceTrace:
    def test_hill_climb_decreases_to_zero(self):
        mdp = LocalSearchMdp(make_onemax(5))
        trace = convergence_trace(HillClimbing(), mdp, 0, 5, np.random.default_rng(0))
        assert trace.values[0] == math.inf
        for a, b in zip(trace.values, trace.values[1:]):
            assert b < a
        assert trace.values[-1] == 0.0
        assert trace.first_zero is not None and trace.first_zero <= 5

    def test_started_at_optimum_is_constant_zero(self):
        mdp = LocalSearchMdp(make_onemax(5))
        trace = convergence_trace(HillClimbing(), mdp, 0b11111, 4, np.random.default_rng(0))
        assert trace.values == (0.0,) * 5
        assert trace.first_zero == 0

    def test_seeded_replay(self, onemax3):
        walk = RandomWalk()
        a = convergence_trace(walk, onemax3, 0, 10, np.random.default_rng(7))
        b = convergence_trace(walk, onemax3, 0, 10, np.random.default_rng(7))
        assert a == b


class TestExplorationRatio:
    def test_hill_climbing_never_explores(self, onemax3):
        for t in (0, 3, 20):
            assert exploration_ratio(HillClimbing(), onemax3, 0b011, t) == 0.0

    def test_annealing_hand_value(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        assert exploration_ratio(sa, onemax3, 0b011, 0) == pytest.approx(2 * math.exp(-1),
                                                                         abs=1e-12)

    def test_random_walk_counts(self, onemax3):
        assert exploration_ratio(RandomWalk(), onemax3, 0b011, 0) == pytest.approx(2.0)

    def test_walk_ratio_equals_partition_counts(self):
        mdp = LocalSearchMdp(make_onemax(6))
        walk = RandomWalk()
        for i in range(64):
            alpha, beta = count_fractions(mdp, i)
            ratio = exploration_ratio(walk, mdp, i, 0)
            if beta:
                assert ratio == pytest.approx(alpha / beta)
            else:
                assert ratio == math.inf

    def test_masses_exclude_stay(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        explore, exploit = exploration_masses(sa, onemax3, 0b011, 0)
        assert explore == pytest.approx(2 * math.exp(-1) / 3, abs=1e-15)
        assert exploit == pytest.approx(1 / 3, abs=1e-15)


class TestBalanceSeries:
    def test_hill_climbing_is_zero(self, onemax3):
        result = balance_series(HillClimbing(), onemax3, 0b011)
        assert result.verdict == ZERO
        assert result.partial_sum == 0.0

    def test_annealing_converges_to_brute_force_sum(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        result = balance_series(sa, onemax3, 0b011, horizon=60)
        assert result.verdict == CONVERGED
        brute = math.fsum(2 * math.exp(-(2.0 ** t)) for t in range(1000))
        assert abs(result.limit - brute) <= 1e-10

    def test_metropolis_diverges_with_constant_terms(self, onemax3):
        result = balance_series(Metropolis(1.0), onemax3, 0b011)
        assert result.verdict == DIVERGING
        assert result.partial_sum == pytest.approx(200 * 2 * math.exp(-1))

    def test_walk_diverges(self, onemax3):
        assert balance_series(RandomWalk(), onemax3, 0b011).verdict == DIVERGING

    def test_optimum_is_degenerate_under_annealing(self, onemax3):
        result = balance_series(SimulatedAnnealing(1.0, 0.5), onemax3, 0b111)
        assert result.verdict == DEGENERATE
        assert result.partial_sum == math.inf

    def test_all_improving_state_is_zero_under_annealing(self, onemax3):
        assert balance_series(SimulatedAnnealing(1.0, 0.5), onemax3, 0b000).verdict == ZERO

    def test_bad_arguments(self, onemax3):
        with pytest.raises(ValueError):
            balance_series(HillClimbing(), onemax3, 0, horizon=0)
        with pytest.raises(TypeError):
            balance_series(HillClimbing(), onemax3, 0, tail_tolerance=1e-9)

    def test_rules(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        plateaus = LocalSearchMdp(make_leading_ones(4))
        assert balance_series(HillClimbing(), onemax3, 0b011).rule == "no-exploration"
        assert balance_series(RandomWalk(), onemax3, 0b011).rule == "constant-term"
        assert balance_series(RandomWalk(), onemax3, 0b111).rule == "no-improving-move"
        assert balance_series(sa, onemax3, 0b011).rule == "explicit-sum"
        assert balance_series(sa, onemax3, 0b000).rule == "no-exploration"
        assert balance_series(sa, onemax3, 0b111).rule == "no-improving-move"
        series = balance_series(sa, plateaus, 0b1100)
        assert (series.verdict, series.rule) == (DIVERGING, "plateau-floor")
        uncertified = balance_series(reference.UncertifiedAnnealing(10.0, 0.99), onemax3,
                                     0b011, horizon=120)
        assert (uncertified.verdict, uncertified.rule) == (INCONCLUSIVE, "no-certificate")

    def test_constant_terms_decided_at_horizon_one(self, onemax3):
        # One constant term is enough: no ratio or window is needed.
        result = balance_series(RandomWalk(), onemax3, 0b011, horizon=1)
        assert (result.verdict, result.partial_sum) == (DIVERGING, 2.0)

    def test_cooling_too_slow_to_sum_is_cut_off(self, onemax3, monkeypatch):
        # Past the work cap the explicit sum is cut off: the series is still
        # certified, and its tail bound covers what the sum leaves out.  At
        # rate 1 - 1e-9 the terms barely fall within the cut-off, so each is
        # about 2 exp(-1/10) and the bound is about 1e10 of them.
        monkeypatch.setattr(policies, "CERTIFICATE_WORK_CAP", 1 << 20)
        result = balance_series(SimulatedAnnealing(10.0, 1 - 1e-9), onemax3, 0b011)
        assert (result.verdict, result.rule) == (CONVERGED, "explicit-sum")
        steps = (1 << 20) // 1002
        term = 2 * math.exp(-0.1)
        assert result.limit == pytest.approx(steps * term, rel=1e-5)
        assert result.tail_bound == pytest.approx(1e10 * term, rel=1e-3)


class TestDecompositionResidual:
    def test_uniform_policy_everywhere(self):
        mdp = LocalSearchMdp(make_onemax(5))
        walk = RandomWalk()
        for i in range(32):
            assert decomposition_residual(walk, mdp, i, 0) <= 1e-12

    def test_one_hot_hill_climbing(self, onemax3):
        assert decomposition_residual(HillClimbing(), onemax3, 0b011, 0) <= 1e-12

    def test_absorbed_state(self, onemax3):
        assert decomposition_residual(HillClimbing(), onemax3, 0b111, 0) == 0.0

    def test_annealing_over_time(self, onemax3):
        sa = SimulatedAnnealing(10.0, 0.9)
        for t in range(21):
            for i in range(8):
                assert decomposition_residual(sa, onemax3, i, t) <= 1e-12


class TestClassify:
    def test_hill_climbing_exploitation(self):
        mdp = LocalSearchMdp(make_onemax(6))
        report = classify(HillClimbing(), mdp)
        assert report.classification.kind == "exploitation-oriented"
        assert report.series_max == 0.0
        assert report.degenerate_states == []

    def test_annealing_balanced(self):
        mdp = LocalSearchMdp(make_onemax(6))
        report = classify(SimulatedAnnealing(10.0, 0.9), mdp)
        assert report.classification.kind == "balanced"
        assert report.classification.constant > 0
        assert report.degenerate_states == [63]

    def test_random_walk_exploration(self):
        mdp = LocalSearchMdp(make_onemax(6))
        report = classify(RandomWalk(), mdp)
        assert report.classification.kind == "exploration-oriented"
        assert report.series_max == math.inf

    def test_plateau_objective_all_degenerate(self):
        flat = Objective(3, lambda x: 0.0, "flat:n=3", None)
        report = classify(RandomWalk(), LocalSearchMdp(flat))
        assert report.classification.kind == "exploration-oriented"
        assert len(report.degenerate_states) == 8

    def test_invariant_under_monotone_rescaling_for_hill_climbing(self):
        base = make_onemax(8)
        rescaled = Objective(8, lambda x: 2.0 * base(x) + 3.0, "rescaled", None)
        a = classify(HillClimbing(), LocalSearchMdp(base))
        b = classify(HillClimbing(), LocalSearchMdp(rescaled))
        assert a.classification == b.classification
        assert a.series_max == b.series_max

    def test_state_sample(self):
        mdp = LocalSearchMdp(make_onemax(6))
        report = classify(SimulatedAnnealing(10.0, 0.9), mdp, states=[1, 2, 3])
        assert report.states == [1, 2, 3]
        assert report.classification.kind == "balanced"

    def test_numpy_state_sample_matches_list(self):
        mdp = LocalSearchMdp(make_onemax(4))
        sample = np.array([1, 2, 15])
        listed = classify(HillClimbing(), mdp, states=[1, 2, 15])
        report = classify(HillClimbing(), mdp, states=sample)
        assert report.states == [1, 2, 15]
        assert written(report) == written(listed)
        with pytest.raises(ValueError, match="out of range"):
            classify(HillClimbing(), mdp, states=np.array([1, 16]))

    def test_repeated_sample_states_sweep_once(self):
        mdp = LocalSearchMdp(make_onemax(4))
        policy = reference.UncertifiedAnnealing(10.0, 0.99)
        report = classify(policy, mdp, states=[5, 3, 5, 3, 3])
        assert report.states == [5, 3]  # first-occurrence order
        assert report.inconclusive_states == [5, 3]
        assert list(report.series) == [5, 3]
        assert written(report) == written(classify(policy, mdp, states=[5, 3]))

    def test_judges_each_distinct_series_once(self):
        # A policy without a certificate has one series per chunk, shared by
        # every state in it.
        mdp = LocalSearchMdp(make_onemax(10))
        report = classify(reference.UncertifiedAnnealing(10.0, 0.99), mdp)
        assert len(report.columns["verdict"]) == 1
        assert report.inconclusive_states == list(range(mdp.num_states))

    def test_certifies_each_gain_profile_once(self, monkeypatch):
        mdp = LocalSearchMdp(make_onemax(10))
        certified = []
        certify = SimulatedAnnealing.balance_certificate
        monkeypatch.setattr(SimulatedAnnealing, "balance_certificate",
                            lambda self, gain, horizon:
                            certified.append(gain) or certify(self, gain, horizon))
        report = classify(SimulatedAnnealing(10.0, 0.99), mdp)
        assert [len(gain) for gain in certified] == [11]
        assert report.classification.kind == "balanced"
        assert report.inconclusive_states == []

    def test_fallback_checks_memory_before_allocating(self, monkeypatch):
        # A policy without a certificate is inconclusive at any horizon
        # without evaluating a single term.
        def evaluate(*args):
            raise AssertionError("a term was evaluated")

        monkeypatch.setattr(reference.UncertifiedAnnealing, "move_probabilities", evaluate)
        mdp = LocalSearchMdp(make_onemax(10))
        policy = reference.UncertifiedAnnealing(10.0, 0.99)
        assert classify(policy, mdp, horizon=10**9).classification.kind == "inconclusive"
        series = balance_series(policy, mdp, 3, horizon=10**9)
        assert (series.verdict, series.rule, series.horizon) == \
            (INCONCLUSIVE, "no-certificate", 10**9)
        assert math.isnan(series.partial_sum)

    @pytest.mark.parametrize("policy", [HillClimbing(), SimulatedAnnealing(10.0, 0.99)],
                             ids=lambda policy: policy.descriptor)
    def test_memory_does_not_grow_with_horizon(self, policy):
        mdp = LocalSearchMdp(make_onemax(6))

        def traced(horizon):
            tracemalloc.start()
            try:
                report = classify(policy, mdp, horizon=horizon)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, short_peak = traced(200)
        long, long_peak = traced(10**9)
        assert long_peak <= 2 * short_peak
        assert long.classification == short.classification
        assert long.inconclusive_states == []
        for state in range(mdp.num_states):
            a, b = short.series[state], long.series[state]
            assert (a.verdict, a.limit) == (b.verdict, b.limit)
            if a.verdict == CONVERGED:
                assert b.partial_sum == b.limit

    def test_distinct_rows_keyed_by_bytes(self):
        # -0.0 == 0.0 and rows one ulp apart are still distinct keys, each
        # judged on its own.
        terms = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, np.nextafter(1.0, 2.0)],
                          [0.0, 1.0], [-0.0, 1.0]])
        first, inverse = coefficients._distinct_rows(terms)
        assert sorted(first.tolist()) == [0, 1, 2]
        assert terms[first][inverse].tobytes() == terms.tobytes()
        assert inverse[0] == inverse[3] and inverse[1] == inverse[4]
        assert len({inverse[0], inverse[1], inverse[2]}) == 3

    def test_sweep_cap(self):
        calls = []
        counting = Objective(21, lambda x: calls.append(x) or 0.0, "counting", None)
        with pytest.raises(ResourceLimitError):
            classify(HillClimbing(), LocalSearchMdp(counting))
        assert calls == []  # the cap fails before any evaluation or allocation

    def test_report_serialization(self):
        mdp = LocalSearchMdp(make_onemax(4))
        report = classify(SimulatedAnnealing(1.0, 0.5), mdp)
        text, table = written(report)
        assert text == reference.dumps_json(reference.report_json_dict(report))
        assert set(json.loads(text)["states"]) == {str(i) for i in range(16)}
        rows = list(csv.reader(io.StringIO(table)))
        assert len(rows) == 17
        assert rows[1][0] == "0"
