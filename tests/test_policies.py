import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp.objectives import make_leading_ones, make_nk_landscape, make_onemax
from lsmdp.policies import (HillClimbing, Metropolis, RandomWalk,
                            SimulatedAnnealing, parse_policy, step)
from lsmdp.search_space import LocalSearchMdp, Move


@pytest.fixture
def onemax3():
    return LocalSearchMdp(make_onemax(3))


def distribution_dict(dist):
    return {move.dst: p for move, p in dist.entries}


def absorbed_at(policy, mdp, state):
    return bool(policy.absorbed(mdp.move_gains([state])[1])[0])


class TestHillClimbing:
    def test_strict_unique_improving_argmax(self, onemax3):
        dist = HillClimbing().action_distribution(onemax3, 0b011, 0)
        assert distribution_dict(dist) == {0b111: 1.0}
        assert dist.stay_probability == 0.0

    def test_strict_absorbs_at_optimum(self, onemax3):
        dist = HillClimbing().action_distribution(onemax3, 0b111, 0)
        assert dist.entries == ()
        assert dist.stay_probability == 1.0

    def test_strict_breaks_ties_uniformly(self, onemax3):
        dist = HillClimbing().action_distribution(onemax3, 0b000, 0)
        assert distribution_dict(dist) == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3),
                                           4: pytest.approx(1 / 3)}

    def test_literal_moves_even_at_optimum(self, onemax3):
        dist = HillClimbing("literal").action_distribution(onemax3, 0b111, 0)
        assert dist.stay_probability == 0.0
        assert set(distribution_dict(dist)) == {0b011, 0b101, 0b110}

    def test_is_terminal(self, onemax3):
        hc = HillClimbing()
        assert absorbed_at(hc, onemax3, 0b111)
        assert not absorbed_at(hc, onemax3, 0b011)
        assert not absorbed_at(HillClimbing("literal"), onemax3, 0b111)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            HillClimbing("greedy")


class TestSimulatedAnnealing:
    def test_distribution_hand_computed(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        dist = sa.action_distribution(onemax3, 0b011, 0)
        probs = distribution_dict(dist)
        assert probs[0b111] == pytest.approx(1 / 3, abs=1e-15)
        assert probs[0b001] == pytest.approx(math.exp(-1) / 3, abs=1e-15)
        assert probs[0b010] == pytest.approx(math.exp(-1) / 3, abs=1e-15)
        assert dist.stay_probability == pytest.approx(1 - 1 / 3 - 2 * math.exp(-1) / 3,
                                                      abs=1e-12)

    def test_cooled_acceptance_at_t1(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        dist = sa.action_distribution(onemax3, 0b011, 1)
        probs = distribution_dict(dist)
        assert probs[0b001] == pytest.approx(math.exp(-2) / 3, abs=1e-15)

    def test_acceptance_monotone_in_time(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        previous = None
        for t in range(60):
            p = distribution_dict(sa.action_distribution(onemax3, 0b011, t)).get(0b001, 0.0)
            if previous is not None:
                assert p <= previous
                if previous > 0.0 and p > 0.0:
                    assert p < previous
            previous = p

    def test_freezes_to_improving_only(self, onemax3):
        sa = SimulatedAnnealing(1.0, 0.5)
        dist = sa.action_distribution(onemax3, 0b011, 2000)
        assert distribution_dict(dist) == {0b111: pytest.approx(1 / 3)}

    def test_never_terminal(self, onemax3):
        # Even when cooled until acceptance underflows to 0 off the improving
        # moves, annealing is never absorbed.
        sa = SimulatedAnnealing(1.0, 0.5)
        assert not absorbed_at(sa, onemax3, 0b111)
        assert sa.action_distribution(onemax3, 0b111, 10_000).stay_probability == 1.0

    @pytest.mark.parametrize("t0,rate", [(0.0, 0.5), (-1.0, 0.5), (1.0, 1.0), (1.0, -0.1),
                                         (math.inf, 0.5), (math.nan, 0.5)])
    def test_rejects_bad_parameters(self, t0, rate):
        with pytest.raises(ValueError):
            SimulatedAnnealing(t0, rate)


class TestMetropolis:
    def test_equals_annealing_at_time_zero(self):
        mdp = LocalSearchMdp(make_nk_landscape(4, 2, seed=9))
        fixed = Metropolis(1.3)
        cooled = SimulatedAnnealing(1.3, 0.5)
        for state in range(16):
            assert fixed.action_distribution(mdp, state, 0) == \
                cooled.action_distribution(mdp, state, 0)

    def test_time_invariant(self, onemax3):
        m = Metropolis(0.7)
        assert m.action_distribution(onemax3, 0b011, 0) == \
            m.action_distribution(onemax3, 0b011, 17)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            Metropolis(0.0)


class TestRandomWalk:
    def test_uniform_no_stay(self, onemax3):
        dist = RandomWalk().action_distribution(onemax3, 0b011, 0)
        assert dist.stay_probability == 0.0
        assert all(p == pytest.approx(1 / 3) for p in distribution_dict(dist).values())


@pytest.mark.parametrize("policy", [HillClimbing(), HillClimbing("literal"), RandomWalk(),
                                    SimulatedAnnealing(2.0, 0.9), Metropolis(1.0)])
@pytest.mark.parametrize("n", [5, 8])
def test_mass_sums_to_one(policy, n):
    mdp = LocalSearchMdp(make_onemax(n))
    times = range(51) if not policy.stationary else (0,)
    for state in range(1 << n):
        for t in times:
            assert abs(policy.action_distribution(mdp, state, t).total_mass() - 1.0) <= 1e-12


@pytest.mark.parametrize("policy", [HillClimbing(), RandomWalk(),
                                    SimulatedAnnealing(1.0, 0.5), Metropolis(1.0)])
def test_negative_time_rejected(policy):
    mdp = LocalSearchMdp(make_onemax(2))
    with pytest.raises(ValueError):
        policy.action_distribution(mdp, 0, -1)


class TestStep:
    def test_deterministic_hill_climb(self, onemax3):
        for seed in (0, 1, 99):
            rng = np.random.default_rng(seed)
            assert step(HillClimbing(), onemax3, 0b011, 0, rng) == (0b111, Move(0b011, 0b111), 1.0)

    def test_absorbed_state_stays(self, onemax3):
        rng = np.random.default_rng(5)
        assert step(HillClimbing(), onemax3, 0b111, 0, rng) == (0b111, None, 0.0)

    def test_single_action_always_taken(self):
        mdp = LocalSearchMdp(make_onemax(1))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert step(RandomWalk(), mdp, 0, 0, rng) == (1, Move(0, 1), 1.0)

    def test_same_seed_same_path(self, onemax3):
        sa = SimulatedAnnealing(2.0, 0.9)

        def roll(seed):
            rng = np.random.default_rng(seed)
            state, path = 0, []
            for t in range(30):
                state, move, reward = step(sa, onemax3, state, t, rng)
                path.append((state, move, reward))
            return path

        assert roll(42) == roll(42)
        assert roll(42) != roll(43)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_hill_climbing_trajectories_monotone(seed):
    mdp = LocalSearchMdp(make_leading_ones(6))
    hc = HillClimbing()
    rng = np.random.default_rng(seed)
    state = 0
    previous = mdp.value(state)
    for t in range(12):
        if absorbed_at(hc, mdp, state):
            break
        state, move, _ = step(hc, mdp, state, t, rng)
        assert move is not None
        assert mdp.value(state) > previous
        previous = mdp.value(state)


class TestParsing:
    def test_descriptors_round_trip(self):
        for descriptor, kind in [("hc", HillClimbing), ("hc:literal", HillClimbing),
                                 ("walk", RandomWalk), ("sa:T0=10,rate=0.95", SimulatedAnnealing),
                                 ("metropolis:T=1", Metropolis)]:
            policy = parse_policy(descriptor)
            assert isinstance(policy, kind)
            again = parse_policy(policy.descriptor)
            assert again.descriptor == policy.descriptor

    def test_sa_parameters(self):
        sa = parse_policy("sa:T0=10,rate=0.95")
        assert sa.t0 == 10.0 and sa.cooling_rate == 0.95

    def test_unknown_policy_names_descriptor(self):
        with pytest.raises(ValueError) as err:
            parse_policy("bogus")
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize("bad", ["sa:T0=10", "sa:rate=0.9", "metropolis", "walk:x=1"])
    def test_malformed_parameters(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)
