"""The local-search decision process: states, neighborhoods, moves, rewards.

States are plain ints in [0, 2**n).  A move i -> j is available exactly when
j lies in the neighborhood of i; executing it has deterministic effect and
pays the objective gain f(j) - f(i).  The move-gain table of `move_gains`
holds every move of a set of states and its reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .objectives import Objective, ResourceLimitError

EXHAUSTIVE_CAP = 20  # exhaustive analyses enumerate all 2**n states


class Move(NamedTuple):
    src: int
    dst: int


@lru_cache(maxsize=8)  # the few (n, distance) shapes a process reuses
def _hamming_masks(n: int, distance: int) -> tuple[int, ...]:
    return tuple(sum(1 << b for b in bits) for bits in combinations(range(n), distance))


@dataclass(frozen=True)
class HammingNeighborhood:
    """All states at Hamming distance exactly `distance` (symmetric)."""

    distance: int = 1

    def __post_init__(self):
        if not isinstance(self.distance, int) or self.distance < 1:
            raise ValueError(f"hamming distance must be a positive int, got {self.distance!r}")

    def masks(self, n: int) -> np.ndarray:
        """The bit flips of one move, one entry per neighbor: state ^ mask."""
        return np.array(_hamming_masks(n, self.distance), dtype=np.int64)

    def neighbor_array(self, states: np.ndarray, n: int) -> np.ndarray:
        """The neighbors of every state in `states`, one ascending row each."""
        return np.sort(states[:, None] ^ self.masks(n), axis=1)

    def degree(self, n: int) -> int:
        return math.comb(n, self.distance)  # neighbors per state, no row built

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

    It keeps one thing, the `landscape`: every full move-gain table is read
    from it; samples, rollouts and the per-state accessors evaluate what they touch.
    """

    def __init__(self, objective: Objective, criterion=None):
        self.objective = objective
        self.criterion = criterion if criterion is not None else HammingNeighborhood(1)
        self.n = objective.n
        self.num_states = 1 << objective.n

    @cached_property
    def landscape(self) -> np.ndarray:
        """f[2**n], read-only, from one batch objective call, refused past EXHAUSTIVE_CAP."""
        if self.n > EXHAUSTIVE_CAP:
            raise ResourceLimitError(f"exhaustive sweep is capped at n <= {EXHAUSTIVE_CAP} "
                                     f"(got n={self.n})")
        f = self.objective.values(np.arange(self.num_states))
        f.flags.writeable = False  # one array serves every caller of this MDP
        return f

    def check_state(self, state: int) -> int:
        """`state` as a Python int; ValueError unless it is an int (numpy
        integers included) in [0, 2**n)."""
        if not isinstance(state, (int, np.integer)) or not 0 <= state < self.num_states:
            raise ValueError(f"state {state!r} out of range [0, 2**{self.n})")
        return int(state)

    def value(self, state: int) -> float:
        return float(self.objective(self.check_state(state)))

    def neighbors(self, state: int) -> tuple[int, ...]:
        """Neighbor states in ascending integer order (canonical tie-break order)."""
        row = np.array([self.check_state(state)], dtype=np.int64)
        return tuple(self.criterion.neighbor_array(row, self.n)[0].tolist())

    def move_gains(self, states=None, f=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The move-gain table of `states`: (nbr, gain, reached), each [k, d].

        Row i of `nbr` lists the neighbors of states[i] in ascending order,
        `reached` holds their objective values and `gain` the move gains
        f(nbr) - f(state).  Values are gathered from the landscape `f` when
        given, and for every state (`states` None); else one batch objective
        call covers a sample of a huge space or one lockstep rollout step.
        """
        if states is None:
            states, f = np.arange(self.num_states), self.landscape
        states = np.asarray(states)
        if states.ndim != 1 or (states.size and states.dtype.kind not in "iu"):
            raise ValueError("states must be a flat sequence of ints")
        if states.size and not (states.min() >= 0 and states.max() < self.num_states):
            bad = states[(states < 0) | (states >= self.num_states)][0]
            raise ValueError(f"state {int(bad)} out of range [0, 2**{self.n})")
        states = states.astype(np.int64)
        nbr = self.criterion.neighbor_array(states, self.n)
        involved = np.concatenate([states, nbr.ravel()])
        values = self.objective.values(involved) if f is None else f[involved]
        current, reached = values[:len(states)], values[len(states):].reshape(nbr.shape)
        return nbr, reached - current[:, None], reached
