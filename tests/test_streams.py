"""`lsmdp.streams` against `numpy.random`, bit for bit: seed sequences,
PCG64 draws over rows, blocks and slabs, power-of-two integers and the NK
tables drawn from them."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp import streams
from lsmdp.objectives import make_nk_landscape
from lsmdp.simulator import derive_seed
from lsmdp.streams import Streams, Uniforms, seed_state

seeds64 = st.integers(0, 2**64 - 1)
# Seeds of one to five 32-bit words: zero, word edges and beyond 2**128.
big_seeds = st.one_of(seeds64, st.integers(0, 2**160),
                      st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128]))


def numpy_state(entropy, n):
    return np.random.SeedSequence(entropy).generate_state(n, np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.lists(big_seeds, min_size=1, max_size=4), st.integers(1, 5))
def test_seed_state_is_numpy_seed_sequence(entropy, n):
    # Up to 20 words: past the pool's four, every word is mixed in.
    assert seed_state(entropy, 1, n)[0].tolist() == numpy_state(entropy, n).tolist()


@settings(max_examples=100, deadline=None)
@given(big_seeds, st.lists(seeds64, min_size=1, max_size=20), st.integers(0, 3))
def test_derived_seeds_are_numpy_seed_sequences(base, indices, stream):
    # Row by row, an index below 2**32 gives one entropy word, a larger one two.
    got = derive_seed(base, indices, stream)
    assert got.dtype == np.uint64
    assert got.tolist() == [int(numpy_state([base, i, stream], 1)[0]) for i in indices]


def test_no_rows_read_no_entropy():
    assert derive_seed(-1, []).shape == (0,)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_seed(-1, [0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence([-1, 0, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Streams(-1)


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds64, min_size=1, max_size=6),
       st.lists(st.integers(0, 600), min_size=1, max_size=4),
       st.sampled_from([streams.SLAB, 64, 7, 1]), st.data())
def test_rows_draw_what_numpy_generators_draw(seeds, widths, slab, data):
    # Widths 0-600 cross the 256-step blocks and, with small slabs, the
    # slab edges in rows and in steps; after each block some rows stop
    # drawing, and the rest draw on from where they stand.
    rows = Streams(np.array(seeds, dtype=np.uint64))
    generators = [np.random.default_rng(seed) for seed in seeds]
    running = np.arange(len(seeds))
    for width in widths:
        with mock.patch.object(streams, "SLAB", slab):
            block = rows.random(width, running)
        assert block.shape == (width, running.size)
        for column, row in enumerate(running.tolist()):
            assert block[:, column].tolist() == generators[row].random(width).tolist()
        running = np.array(sorted(data.draw(st.sets(st.sampled_from(running.tolist())))),
                           dtype=np.intp)
        if not running.size:
            break


def test_taken_rows_are_copies():
    rows = Streams(np.array([3, 4], dtype=np.uint64))
    copies = rows.take(np.array([1, 1, 0]))
    first = copies.random(5)
    assert first[:, 0].tolist() == first[:, 1].tolist() == np.random.default_rng(4).random(5).tolist()
    assert rows.random(5)[:, 0].tolist() == first[:, 2].tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds64, min_size=1, max_size=8), st.integers(1, 63))
def test_power_of_two_integers_are_numpy_integers(seeds, bits):
    got = Streams(np.array(seeds, dtype=np.uint64)).integers(bits)
    assert got.dtype == np.int64
    assert got.tolist() == [int(np.random.default_rng(s).integers(2**bits)) for s in seeds]


@settings(max_examples=30, deadline=None)
@given(big_seeds, st.integers(0, 3000))
def test_one_stream_of_any_seed_is_numpy_default_rng(seed, width):
    assert Streams(seed).random(width)[:, 0].tolist() == \
        np.random.default_rng(seed).random(width).tolist()


def test_uniforms_are_numpy_scalar_draws_across_buffers():
    numpy_rng = np.random.default_rng(2**70 + 9)
    uniforms = Uniforms(2**70 + 9)
    for _ in range(3 * streams.DRAW_BLOCK + 5):
        value = uniforms.random()
        assert type(value) is float and value == numpy_rng.random()


@pytest.mark.parametrize("n,k,seed", [(6, 2, 0), (16, 11, 7), (12, 11, 2**64 + 1)])
def test_nk_tables_are_numpy_draws(n, k, seed):
    # n·2**(k+1) = 65,536 draws at (16, 11): two slabs of one stream.
    tables = np.random.default_rng(seed).random((n, 1 << (k + 1)))
    states = np.arange(0, 1 << n, 37, dtype=np.int64)
    expected = np.zeros(states.shape)
    for i in range(n):
        idx = np.zeros(states.shape, dtype=np.int64)
        for j in range(k + 1):
            idx |= ((states >> ((i + j) % n)) & 1) << j
        expected += tables[i, idx]
    assert make_nk_landscape(n, k, seed).values(states).tolist() == expected.tolist()
