"""The local-search decision process: states, neighborhoods, moves, rewards.

States are plain ints in [0, 2**n).  A move i -> j is available exactly when
j lies in the neighborhood of i; executing it has deterministic effect and
pays the objective gain f(j) - f(i).  One builder, `move_table`, makes the
move-gain table of a set of states: every move and its reward.  States pass
`check_state` (`check_states`: an array in one pass), and every sweep of all
states `check_exhaustive`, before anything is priced or evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .objectives import Objective, ResourceLimitError, check_memory

EXHAUSTIVE_CAP = 20  # exhaustive analyses enumerate all 2**n states


class Move(NamedTuple):
    src: int
    dst: int


@lru_cache(maxsize=8)  # the few (n, distance) shapes a process reuses
def _hamming_masks(n: int, distance: int) -> np.ndarray:
    masks = np.fromiter((sum(1 << b for b in bits) for bits in combinations(range(n), distance)),
                        dtype=np.int64, count=math.comb(n, distance))
    masks.flags.writeable = False  # one array serves every MDP of the shape
    return masks


@dataclass(frozen=True)
class HammingNeighborhood:
    """All states at Hamming distance exactly `distance` (symmetric)."""

    distance: int = 1

    def __post_init__(self):
        if isinstance(self.distance, bool) or not isinstance(self.distance, int) or self.distance < 1:
            raise ValueError(f"hamming distance must be a positive int, got {self.distance!r}")

    @property
    def descriptor(self) -> str:
        return f"hamming:{self.distance}"


def parse_criterion(descriptor: str) -> HammingNeighborhood:
    """Build a neighborhood criterion from a descriptor like 'hamming:1'."""
    head, _, argstr = descriptor.partition(":")
    if head == "hamming":
        try:
            distance = int(argstr) if argstr else 1
        except ValueError:
            raise ValueError(f"bad neighborhood descriptor {descriptor!r}") from None
        return HammingNeighborhood(distance)
    raise ValueError(f"unknown neighborhood descriptor {descriptor!r}")


class LocalSearchMdp:
    """Immutable pairing of an objective with a neighborhood criterion.

    It keeps one thing, the `landscape`, and reads every value it hands out
    from it once it is built; before, it evaluates the states it touches.
    `move_table` builds every move-gain table, from the neighborhood's masks.
    """

    def __init__(self, objective: Objective, criterion=None):
        self.objective = objective
        self.criterion = criterion if criterion is not None else HammingNeighborhood(1)
        self.n = objective.n
        self.num_states = 1 << objective.n
        self.degree = math.comb(self.n, self.criterion.distance)  # moves per state, no mask built

    def check_exhaustive(self) -> None:
        """ResourceLimitError past EXHAUSTIVE_CAP, the cap of every sweep of all states."""
        if self.n > EXHAUSTIVE_CAP:
            raise ResourceLimitError(f"exhaustive sweep is capped at n <= {EXHAUSTIVE_CAP} "
                                     f"(got n={self.n})")

    @cached_property
    def landscape(self) -> np.ndarray:
        """f[2**n], read-only, from one batch objective call, refused past EXHAUSTIVE_CAP."""
        self.check_exhaustive()
        f = self.objective.values(np.arange(self.num_states))
        f.flags.writeable = False  # one array serves every caller of this MDP
        return f

    def check_state(self, state: int) -> int:
        """`state` as a Python int; ValueError unless it is an int (numpy
        integers included, bool not) in [0, 2**n)."""
        if (isinstance(state, bool) or not isinstance(state, (int, np.integer))
                or not 0 <= state < self.num_states):
            raise ValueError(f"state {state!r} out of range [0, 2**{self.n})")
        return int(state)

    def check_states(self, states) -> np.ndarray:
        """`states` as int64: one pass over a 1-D int array in range, else
        `check_state` state by state (its error)."""
        if not (isinstance(states, np.ndarray) and states.ndim == 1 and states.dtype.kind in "iu"
                and states.size and states.min() >= 0 and states.max() < self.num_states):
            states = np.array([self.check_state(state) for state in states], dtype=np.int64)
        return states.astype(np.int64, copy=False)

    def value(self, state: int) -> float:
        """f(state), read from the landscape once it is built, else one objective call."""
        state, f = self.check_state(state), vars(self).get("landscape")
        return self.objective(state) if f is None else float(f[state])

    def neighbors(self, state: int) -> tuple[int, ...]:
        """Neighbor states in ascending integer order (canonical tie-break order)."""
        return tuple(self.neighbor_rows(np.array([self.check_state(state)]))[0].tolist())

    def neighbor_rows(self, states: np.ndarray) -> np.ndarray:
        """The neighbors of each unchecked int64 state, one ascending row each."""
        nbr = states[:, None] ^ _hamming_masks(self.n, self.criterion.distance)
        nbr.sort(axis=1)
        return nbr

    def reachable_states(self, start: int) -> np.ndarray:
        """The states that flips of exactly k of n bits reach from `start`, in
        ascending order: `start` and its complement if k = n, else every state of
        odd k, or of `start`'s popcount parity for even k (two k-flips that differ
        in one bit make any 2-bit flip).  Refused and priced before any is built."""
        start, k = self.check_state(start), self.criterion.distance
        if k >= self.n:  # the one move, to the complement, or none
            return np.array(sorted({start, start ^ (self.num_states - 1) if k == self.n else start}))
        count = self.num_states >> (1 - k % 2)
        if count > 1 << EXHAUSTIVE_CAP:
            raise ResourceLimitError(f"the states reachable from {start} exceed the cap of "
                                     f"2**{EXHAUSTIVE_CAP}")
        # 3 words a state for even k and 1.5 for odd k, over tracemalloc peaks
        # of 2.13 (the states and even k's parity bits) and 1.0 (the states).
        check_memory(f"the {count} states reachable from {start}", words=3 * count >> k % 2)
        states = np.arange(count)
        if k % 2 == 0:  # state 2i + b, b the bit that gives it start's popcount parity
            parity = (np.bitwise_count(states) & 1 ^ start.bit_count() & 1).astype(np.int64)
            states <<= 1
            states |= parity
        return states

    def _values(self, states: np.ndarray) -> np.ndarray:
        """f of unchecked int64 `states`, by the rule of `value`, in one batch."""
        f = vars(self).get("landscape")
        return self.objective.values(states) if f is None else f[states]

    def move_table(self, states: np.ndarray, current: np.ndarray):
        """The move-gain table (nbr, gain, reached), each [k, d], of unchecked
        int64 `states` whose values are `current`: each state's ascending
        neighbors, their values and the move gains f(nbr) - f(state)."""
        nbr = self.neighbor_rows(states)
        reached = self._values(nbr.ravel()).reshape(nbr.shape)
        return nbr, reached - current[:, None], reached

    def move_gains(self, states=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`move_table` of checked `states`, every state when None (the
        landscape built first), with the values `_values` gives them."""
        if states is None:
            self.landscape  # refused past EXHAUSTIVE_CAP before any state is built
            states = np.arange(self.num_states)
        states = self.check_states(states)
        return self.move_table(states, self._values(states))
