"""numpy's `default_rng` streams, bit for bit, without `numpy.random`.

Every random number lsmdp draws is one numpy's `np.random.default_rng`
would draw, but `numpy.random` loads OpenSSL on import (its seeding reaches
`secrets` and `hashlib`), about 6 MiB and 20 ms a command.  This module
replays the three pieces lsmdp uses, over many generators at once, from
numpy arrays alone:

* SeedSequence.  The entropy is the little-endian 32-bit words of its ints
  (0 gives the one word 0), joined in order.  They are hashed into a pool
  of four words (zeros past the entropy's end), every ordered pair of pool
  words is mixed, and words past the fourth are mixed into every pool word.
  `generate_state(n, np.uint64)` hashes the pool words in turn into 2n
  words, the low word first in each uint64.
* PCG64.  From the words (w0, w1, w2, w3) of `generate_state(4)`, the
  128-bit LCG state is ((inc + initstate)·M + inc) mod 2**128, with
  initstate = w0·2**64 + w1 and inc = 2(w2·2**64 + w3) + 1.  Each output
  steps the state s to s·M + inc and returns rotr64(hi ^ lo, hi >> 58).
* Generator.  `random()` is (output >> 11)·2**-53.  `integers(2**n)`,
  which Lemire's method never rejects for a power-of-two bound, is the top
  n bits of the output's low 32 bits for n <= 32, else of the whole output.

`Streams` holds rows of generators as [4, rows] uint64 arrays and draws a
block time-major, `[steps, rows]`, by doubling the steps taken at once:
s[t + k] = M**k·s[t] + (1 + M + ... + M**(k-1))·inc, 128-bit products
built from 32-bit limbs.  Blocks are made in slabs of at most `SLAB`
entries, so their scratch memory stays bounded.  `tests/test_streams.py`
holds every piece to `numpy.random`.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's pool size and its hash and mix constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645

SLAB = 1 << 15  # entries of one generation slab, [steps, rows]: 256 KiB a scratch array
DRAW_BLOCK = 1 << 8  # uniforms a stream draws at a time, for `Uniforms` and a rollout's row


def _jumps(count: int) -> list[tuple[int, int]]:
    """(M**k, 1 + M + ... + M**(k-1)) mod 2**128 for k = 1, 2, 4, ...:
    k LCG steps at once take s to M**k·s + that sum·inc."""
    out = [(_PCG_MULT, 1)]
    for _ in range(count - 1):
        mult, plus = out[-1]
        out.append((mult * mult & _M128, plus * (1 + mult) & _M128))
    return out


_JUMPS = _jumps(SLAB.bit_length())  # enough for a slab of SLAB steps


def _int_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's `hashmix` over uint32 arrays; the hash constant, the
    same for every row, steps by `mult` on every call."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value *= const
        value ^= value >> 16
        return value
    return hashmix


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    value ^= value >> 16
    return value


def seed_state(parts, rows: int, n: int) -> np.ndarray:
    """[rows, n] uint64: row i is `SeedSequence(entropy).generate_state(n,
    np.uint64)` for the entropy list of every part's entry i, where an int
    part (of any size) is the same entry on every row and a uint64 array
    part has one entry a row.  No rows read no entropy."""
    if not rows:
        return np.zeros((0, n), dtype=np.uint64)
    columns = []  # (word of every row, rows that have it)
    for part in parts:
        if isinstance(part, np.ndarray):
            high = (part >> 32).astype(np.uint32)
            columns += [((part & _M32).astype(np.uint32), True), (high, high != 0)]
        else:
            columns += [(word, True) for word in _int_words(int(part))]
    # A row without a word gets it as 0 where the next one goes: past the
    # pool words zeros are masked, and in them a zero is what is hashed.
    words = np.zeros((max(len(columns), _POOL), rows), dtype=np.uint32)
    count = np.zeros(rows, dtype=np.intp)
    every = np.arange(rows)
    for word, present in columns:
        words[count, every] = word
        count += present
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for i in range(_POOL, int(count.max())):
        live = count > i
        for dst in range(_POOL):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(words[i])), pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * n)]
    return np.stack([state[2 * i] | state[2 * i + 1] << 32 for i in range(n)], axis=1)


def _mul_add(hi, lo, mult: int, add_hi, add_lo):
    """(hi, lo)·mult + (add_hi, add_lo) mod 2**128, arrays of 64-bit
    halves times a 128-bit int; the high half of lo·mult's low 64 bits is
    summed from 32-bit limbs."""
    m_hi, m_lo = mult >> 64, mult & _M64
    m0, m1 = m_lo & _M32, m_lo >> 32
    x0, x1 = lo & _M32, lo >> 32
    low = x0 * m0
    cross = x1 * m0
    x0 *= m1
    x1 *= m1
    mid = low >> 32
    mid += cross & _M32
    mid += x0 & _M32
    top = x1
    top += cross >> 32
    top += x0 >> 32
    top += mid >> 32
    del low, cross, x0, mid
    top += lo * m_hi
    top += hi * m_lo
    top += add_hi
    low = lo * m_lo
    low += add_lo
    top += low < add_lo
    return top, low


class Streams:
    """Rows of numpy PCG64 generators: row i draws what
    `np.random.default_rng(seeds[i])` draws.  `seeds` is a uint64 array, or
    one int of any size for one row."""

    def __init__(self, seeds):
        rows = seeds.size if isinstance(seeds, np.ndarray) else 1
        w0, w1, w2, w3 = seed_state([seeds], rows, 4).T
        inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
        start_lo = w1 + inc_lo
        start_hi = w0 + inc_hi + (start_lo < inc_lo)
        self.state = np.stack(_mul_add(start_hi, start_lo, _PCG_MULT, inc_hi, inc_lo)
                              + (inc_hi, inc_lo))  # rows of (hi, lo, inc hi, inc lo)

    def take(self, rows) -> Streams:
        """Copies of the streams `rows`, where these stand now."""
        out = object.__new__(Streams)
        out.state = self.state[:, rows]
        return out

    def _outputs(self, steps: int, rows):
        """[steps, rows] uint64: the next `steps` outputs of the streams
        `rows` (one slab), which then stand after them."""
        hi, lo, inc_hi, inc_lo = self.state[:, rows]
        state_hi = np.empty((steps, hi.size), dtype=np.uint64)
        state_lo = np.empty_like(state_hi)
        state_hi[0], state_lo[0] = _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)
        k = 1
        for mult, plus in _JUMPS:
            if k >= steps:
                break
            n = min(k, steps - k)
            off_hi, off_lo = _mul_add(inc_hi, inc_lo, plus, 0, 0)
            state_hi[k:k + n], state_lo[k:k + n] = _mul_add(state_hi[:n], state_lo[:n], mult,
                                                            off_hi, off_lo)
            k += n
        self.state[0, rows], self.state[1, rows] = state_hi[-1], state_lo[-1]
        out = np.bitwise_xor(state_hi, state_lo, out=state_lo)
        state_hi >>= 58  # the rotation
        left = 64 - state_hi
        left &= 63
        np.left_shift(out, left, out=left)
        out >>= state_hi
        out |= left
        return out

    def random(self, width: int, rows=None) -> np.ndarray:
        """[width, len(rows)] float64: column j holds the next `width`
        `random()` draws of stream rows[j] (every stream when None), made
        in slabs of rows and of steps, at most SLAB entries each."""
        rows = np.arange(self.state.shape[1]) if rows is None else np.asarray(rows)
        out = np.empty((width, rows.size))
        steps = max(1, min(width, SLAB))
        span = SLAB // steps
        for a in range(0, rows.size, span):
            for t in range(0, width, steps):
                block = self._outputs(min(steps, width - t), rows[a:a + span])
                block >>= 11
                out[t:t + block.shape[0], a:a + span] = block  # below 2**53: exact
        out *= 2.0**-53
        return out

    def integers(self, bits: int) -> np.ndarray:
        """int64 [rows]: each stream's `integers(2**bits)` draw, 1 <= bits
        <= 63.  For bits <= 32 numpy would serve a stream's next such draw
        from the unused high half of the same output, so this holds a stream
        to numpy as its one draw of that kind."""
        out = self._outputs(1, np.arange(self.state.shape[1]))[0]
        if bits <= 32:
            out &= _M32
            out >>= 32 - bits
        else:
            out >>= 64 - bits
        return out.astype(np.int64)


class Uniforms:
    """`np.random.default_rng(seed).random()`, one float a call, drawn
    `DRAW_BLOCK` at a time from one stream."""

    def __init__(self, seed: int):
        self._stream = Streams(seed)
        self._buffer = iter(())

    def random(self) -> float:
        for value in self._buffer:
            return value
        self._buffer = iter(self._stream.random(DRAW_BLOCK)[:, 0].tolist())
        return next(self._buffer)
