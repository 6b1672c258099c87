"""Move-selection rules: hill climbing, simulated annealing, random walk, and
fixed-temperature Metropolis.

Each policy maps (space, state, time) to an explicit distribution over moves
plus a stay-in-place mass; rejected proposals and absorbed states self-loop.
The rule itself is one acceptance kernel per policy over arrays of move
gains, shared by the per-state distribution and the exact analyses.
Policies are immutable and hold no RNG state; sampling goes through `step`
with a caller-owned generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import _descriptor_params, _float_param
from .search_space import LocalSearchMdp, Move


@dataclass(frozen=True)
class ActionDistribution:
    """Distribution over outgoing moves; the remaining mass stays in place."""

    entries: tuple[tuple[Move, float], ...]
    stay_probability: float

    def move_mass(self) -> float:
        return math.fsum(p for _, p in self.entries)

    def total_mass(self) -> float:
        return math.fsum([p for _, p in self.entries] + [self.stay_probability])


def _check_time(t: int) -> None:
    if t < 0:
        raise ValueError(f"time index must be >= 0, got {t}")


class Policy:
    """Interface: a stationary flag plus a per-(state, time) move distribution.

    Each policy states its rule once, as the acceptance kernel
    `move_probabilities`; `action_distribution` applies it to one state and
    the exact analyses apply it to a whole move-gain table at once.
    """

    stationary: bool = True

    def move_probabilities(self, gain: np.ndarray, t: int, reached: np.ndarray) -> np.ndarray:
        """Probability of each move at time t, over the last axis of `gain`
        (the move gains) and `reached` (the objective values the moves reach);
        the rest of each row's mass stays in place."""
        raise NotImplementedError

    def action_distribution(self, mdp: LocalSearchMdp, state: int, t: int = 0) -> ActionDistribution:
        raise NotImplementedError

    def is_terminal(self, mdp: LocalSearchMdp, state: int, t: int = 0) -> bool:
        """True when the policy keeps all mass on `state` at every time >= t."""
        _check_time(t)
        return False

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}<{self.descriptor}>"


def _gain_distribution(policy: Policy, mdp: LocalSearchMdp, state: int, t: int) -> ActionDistribution:
    """The policy's kernel applied to the moves out of one state."""
    nbrs = mdp.neighbors(state)
    current = mdp.value(state)
    reached = np.array([mdp.value(j) for j in nbrs])
    return _distribution(state, nbrs, policy.move_probabilities(reached - current, t, reached))


def _distribution(state: int, nbrs: tuple[int, ...], probabilities: np.ndarray) -> ActionDistribution:
    probs = probabilities.tolist()
    entries = tuple((Move(state, j), p) for j, p in zip(nbrs, probs) if p > 0.0)
    return ActionDistribution(entries, max(0.0, 1.0 - math.fsum(probs)))


class HillClimbing(Policy):
    """Uniform choice among the best neighbors.

    The default 'strict' variant moves only on strict improvement and absorbs
    at local optima; the 'literal' variant always moves to the argmax
    neighbors, even when none improves.
    """

    def __init__(self, variant: str = "strict"):
        if variant not in ("strict", "literal"):
            raise ValueError(f"unknown hill-climbing variant {variant!r}")
        self.variant = variant

    def move_probabilities(self, gain, t, reached):
        _check_time(t)
        # Ties come from the reached values, because distinct values can round
        # to equal gains; the sign of a gain is exact, so the strict test may
        # read gains.
        chosen = reached == reached.max(axis=-1, keepdims=True)
        if self.variant == "strict":
            chosen &= gain.max(axis=-1, keepdims=True) > 0
        return chosen / np.maximum(chosen.sum(axis=-1, keepdims=True), 1)

    def action_distribution(self, mdp, state, t=0):
        return _gain_distribution(self, mdp, state, t)

    def is_terminal(self, mdp, state, t=0):
        _check_time(t)
        if self.variant != "strict":
            return False
        return max(mdp.value(j) for j in mdp.neighbors(state)) <= mdp.value(state)

    @property
    def descriptor(self):
        return "hc" if self.variant == "strict" else "hc:literal"


def _metropolis_probabilities(gain: np.ndarray, temperature: float) -> np.ndarray:
    """Uniform proposal over all neighbors; improving moves always accepted,
    others kept with probability exp(gain/temperature).  A temperature of
    exactly 0 (cooling rate 0, or underflow) accepts improving moves only; it
    is handled apart because the division would give 0/0 = NaN at gain 0."""
    if temperature == 0.0:
        accept = (gain > 0).astype(float)
    else:
        accept = np.exp(np.minimum(gain, 0.0) / temperature)  # exactly 1 where gain > 0
    return (1.0 / gain.shape[-1]) * accept


class SimulatedAnnealing(Policy):
    """Metropolis acceptance under geometric cooling T_t = cooling_rate**t * t0.

    `is_terminal` is always False: at any finite time the mathematical
    acceptance probability is positive (float underflow of the temperature is
    not modeled as absorption).
    """

    stationary = False

    def __init__(self, t0: float, cooling_rate: float):
        if not t0 > 0:
            raise ValueError(f"initial temperature must be positive, got {t0!r}")
        if not 0.0 <= cooling_rate < 1.0:
            raise ValueError(f"cooling rate must lie in [0, 1), got {cooling_rate!r}")
        self.t0 = float(t0)
        self.cooling_rate = float(cooling_rate)

    def temperature(self, t: int) -> float:
        _check_time(t)
        return self.t0 * self.cooling_rate ** t

    def move_probabilities(self, gain, t, reached):
        return _metropolis_probabilities(gain, self.temperature(t))

    def action_distribution(self, mdp, state, t=0):
        return _gain_distribution(self, mdp, state, t)

    @property
    def descriptor(self):
        return f"sa:T0={self.t0!r},rate={self.cooling_rate!r}"


class Metropolis(Policy):
    """Annealing acceptance at one fixed temperature (no cooling)."""

    def __init__(self, temperature: float):
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, got {temperature!r}")
        self.fixed_temperature = float(temperature)

    def move_probabilities(self, gain, t, reached):
        _check_time(t)
        return _metropolis_probabilities(gain, self.fixed_temperature)

    def action_distribution(self, mdp, state, t=0):
        return _gain_distribution(self, mdp, state, t)

    @property
    def descriptor(self):
        return f"metropolis:T={self.fixed_temperature!r}"


class RandomWalk(Policy):
    """Uniform over all neighbors; never stays."""

    def move_probabilities(self, gain, t, reached):
        _check_time(t)
        return np.full(gain.shape, 1.0 / gain.shape[-1])

    def action_distribution(self, mdp, state, t=0):
        # The kernel reads only the number of moves, so no objective value is
        # computed on this per-step path.
        nbrs = mdp.neighbors(state)
        no_gains = np.zeros(len(nbrs))
        return _distribution(state, nbrs, self.move_probabilities(no_gains, t, no_gains))

    @property
    def descriptor(self):
        return "walk"


def step(policy: Policy, mdp: LocalSearchMdp, state: int, t: int, rng):
    """Sample one transition.

    Returns (next_state, move or None, reward); the reward is the objective
    gain, zero when staying.  `rng` needs a `random()` method; identical
    seeds give identical outputs.
    """
    dist = policy.action_distribution(mdp, state, t)
    draw = rng.random()
    cumulative = 0.0
    for move, p in dist.entries:
        cumulative += p
        if draw < cumulative:
            return move.dst, move, mdp.value(move.dst) - mdp.value(state)
    return state, None, 0.0


def parse_policy(descriptor: str) -> Policy:
    """Build a policy from 'hc', 'hc:literal', 'sa:T0=..,rate=..', 'walk' or
    'metropolis:T=..'."""
    head, _, argstr = descriptor.partition(":")
    if head == "hc":
        return HillClimbing(argstr) if argstr else HillClimbing()
    if head == "walk":
        if argstr:
            raise ValueError(f"policy descriptor {descriptor!r} takes no parameters")
        return RandomWalk()
    if head == "sa":
        params = _descriptor_params(argstr, descriptor)
        return SimulatedAnnealing(_float_param(params, "T0", descriptor),
                                  _float_param(params, "rate", descriptor))
    if head == "metropolis":
        params = _descriptor_params(argstr, descriptor)
        return Metropolis(_float_param(params, "T", descriptor))
    raise ValueError(f"unknown policy descriptor {descriptor!r}")
