import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsmdp import search_space
from lsmdp.objectives import make_leading_ones, make_nk_landscape, make_onemax
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp, parse_criterion


@pytest.fixture
def onemax3():
    return LocalSearchMdp(make_onemax(3))


class TestNeighbors:
    def test_single_bit_flips_sorted(self, onemax3):
        assert onemax3.neighbors(0b011) == (0b001, 0b010, 0b111)

    def test_origin(self, onemax3):
        assert onemax3.neighbors(0b000) == (0b001, 0b010, 0b100)

    def test_full_distance(self):
        mdp = LocalSearchMdp(make_onemax(3), HammingNeighborhood(3))
        assert mdp.neighbors(0b000) == (0b111,)

    def test_distance_two_counts(self):
        mdp = LocalSearchMdp(make_onemax(4), HammingNeighborhood(2))
        assert len(mdp.neighbors(0)) == 6

    def test_out_of_range_state(self, onemax3):
        with pytest.raises(ValueError):
            onemax3.neighbors(8)

    def test_numpy_integer_state(self, onemax3):
        assert onemax3.neighbors(np.int64(3)) == onemax3.neighbors(3) == (0b001, 0b010, 0b111)
        with pytest.raises(ValueError, match="out of range"):
            onemax3.neighbors(np.int64(8))


class TestValue:
    @pytest.mark.parametrize("make", [make_onemax, lambda n: make_nk_landscape(n, 2, 1)])
    @pytest.mark.parametrize("bad", [-1, 16, np.int64(16), 2**70, 1.0, "3"])
    def test_out_of_range_rejected(self, make, bad):
        with pytest.raises(ValueError, match="out of range"):
            LocalSearchMdp(make(4)).value(bad)

    def test_in_range_states(self):
        mdp = LocalSearchMdp(make_onemax(4))
        assert [mdp.value(s) for s in (0, 15, np.int64(7), np.uint8(3))] == [0.0, 4.0, 3.0, 2.0]


def gain_of(mdp, i, j):
    """The reward of move i -> j, read off the move-gain table of i."""
    nbr, gain, _ = mdp.move_gains([i])
    return float(gain[0, nbr[0].tolist().index(j)])


class TestActions:
    # The actions of a state are the moves of its row of the move-gain table.
    def test_action_per_neighbor(self, onemax3):
        nbr, gain, reached = onemax3.move_gains([0b011])
        assert nbr.shape == gain.shape == reached.shape == (1, 3)
        assert tuple(nbr[0].tolist()) == onemax3.neighbors(0b011)

    def test_single_bit_space(self):
        nbr, gain, _ = LocalSearchMdp(make_onemax(1)).move_gains([0])
        assert nbr.tolist() == [[1]] and gain.tolist() == [[1.0]]

    def test_total_action_count(self, onemax3):
        assert onemax3.move_gains(np.arange(8))[0].size == 24


class TestReward:
    def test_gain(self, onemax3):
        assert gain_of(onemax3, 0b011, 0b111) == 1.0

    def test_loss(self, onemax3):
        assert gain_of(onemax3, 0b011, 0b001) == -1.0

    def test_plateau(self):
        mdp = LocalSearchMdp(make_leading_ones(4))
        # 1100 -> 1101 flips a bit after the broken prefix
        assert gain_of(mdp, 0b1100, 0b1101) == 0.0


@given(st.integers(1, 8), st.integers(1, 3), st.data())
def test_symmetry_and_reward_antisymmetry(n, distance, data):
    if distance > n:
        return
    mdp = LocalSearchMdp(make_onemax(n), HammingNeighborhood(distance))
    i = data.draw(st.integers(0, (1 << n) - 1))
    for j in mdp.neighbors(i):
        assert i in mdp.neighbors(j)
        assert gain_of(mdp, i, j) == -gain_of(mdp, j, i)


def test_the_masks_cache_is_bounded():
    cache = search_space._hamming_masks
    bound = cache.cache_info().maxsize
    for n in range(1, bound + 3):  # more distinct (n, distance) shapes than the bound
        HammingNeighborhood(1).masks(n)
    assert cache.cache_info().currsize == bound


def test_exhaustive_symmetry_up_to_twelve_bits():
    for n in list(range(1, 7)) + [12]:
        mdp = LocalSearchMdp(make_onemax(n))
        for i in range(1 << n):
            for j in mdp.neighbors(i):
                assert i in mdp.neighbors(j)


class TestCriterionParsing:
    def test_default_distance(self):
        assert parse_criterion("hamming:1") == HammingNeighborhood(1)
        assert parse_criterion("hamming") == HammingNeighborhood(1)

    def test_distance(self):
        assert parse_criterion("hamming:2").distance == 2

    @pytest.mark.parametrize("bad", ["manhattan:1", "hamming:x", "hamming:0"])
    def test_rejects_bad(self, bad):
        with pytest.raises(ValueError):
            parse_criterion(bad)
