"""Move-selection rules: hill climbing, simulated annealing, random walk, and
fixed-temperature Metropolis.

Each policy maps (space, state, time) to an explicit distribution over moves
plus a stay-in-place mass; rejected proposals and absorbed states self-loop.
The rule itself is one acceptance kernel per policy over arrays of move
gains, shared by the per-state distribution, the exact analyses and the
rollouts.  Policies are immutable and hold no RNG state; sampling goes
through `choose` with caller-owned uniform draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .objectives import _descriptor_params, _float_param
from .search_space import LocalSearchMdp, Move


@dataclass(frozen=True)
class ActionDistribution:
    """Distribution over outgoing moves; the remaining mass stays in place."""

    entries: tuple[tuple[Move, float], ...]
    stay_probability: float

    def total_mass(self) -> float:
        return math.fsum([p for _, p in self.entries] + [self.stay_probability])


class SeriesCertificate(NamedTuple):
    """The closed form of the balance series (per-step exploration mass over
    exploitation mass, summed over t) of each row of a gain table.

    Every term is at least `floor` for ever (+inf: a term is +inf).  When
    `floor` is 0 the terms vanish for good and the series converges;
    otherwise `limit` is +inf.  The true sum of the first `horizon` terms
    lies in [`partial`, `partial` + `tail_bound`], and a finite true limit
    in [`limit`, `limit` + `tail_bound`].  `floor_rule` and `limit_rule`
    name the argument behind a positive floor and behind a finite limit.
    """

    floor: np.ndarray
    partial: np.ndarray
    limit: np.ndarray
    tail_bound: np.ndarray
    floor_rule: str
    limit_rule: str


# Exponentials one annealing certificate may evaluate (about 4 s), counting
# 1,000 for the overhead of each time step: past it the explicit sum is cut
# off and the tail bound covers the rest (on onemax n=10 at T0 = 10, a
# cooling rate above about 0.99996).  The cut-off step depends on every
# entry still alive, so a cut-off row's limit and tail bound depend on the
# other rows of its table.
CERTIFICATE_WORK_CAP = 1 << 28


def _check_time(t: int) -> None:
    if t < 0:
        raise ValueError(f"time index must be >= 0, got {t}")


class Policy:
    """Interface: a stationary flag plus a per-(state, time) move distribution.

    Each policy states its rule once, as the acceptance kernel
    `move_probabilities` (plus `absorbed` where it can stop for good);
    `action_distribution` applies it to one state, and the exact analyses
    and the rollouts apply it to a whole move-gain table at once.
    """

    stationary: bool = True

    def move_probabilities(self, gain: np.ndarray, t: int, reached: np.ndarray) -> np.ndarray:
        """Probability of each move at time t, over the last axis of `gain`
        (the move gains) and `reached` (the objective values the moves reach);
        the rest of each row's mass stays in place."""
        raise NotImplementedError

    def absorbed(self, gain: np.ndarray) -> np.ndarray:
        """Per row of `gain`: True when the policy keeps all mass on that
        state at every time from now on."""
        return np.zeros(gain.shape[:-1], dtype=bool)

    def balance_certificate(self, gain: np.ndarray, horizon: int) -> SeriesCertificate | None:
        """The closed form of the balance series of each row of `gain` (a
        table of sorted, distinct gain rows), or None when the policy has
        none: its series are then inconclusive.  Stationary policies need
        none, since their terms are constant."""
        return None

    def action_distribution(self, mdp: LocalSearchMdp, state: int, t: int = 0) -> ActionDistribution:
        """The kernel applied to the moves out of one state, as (move,
        probability) entries of positive probability plus the stay mass.

        Each subclass binds this method in its own namespace
        (`action_distribution = Policy.action_distribution`), where
        bench/tracer.py finds and times it per policy class.
        """
        nbr, gain, reached = mdp.move_gains([state])
        probs = self.move_probabilities(gain[0], t, reached[0]).tolist()
        entries = tuple((Move(state, j), p) for j, p in zip(nbr[0].tolist(), probs) if p > 0.0)
        return ActionDistribution(entries, max(0.0, 1.0 - math.fsum(probs)))

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}<{self.descriptor}>"


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
        # to equal gains; the sign of a gain is exact, so `absorbed` may read
        # gains.
        chosen = reached == reached.max(axis=-1, keepdims=True)
        chosen &= ~self.absorbed(gain)[..., None]
        return chosen / np.maximum(chosen.sum(axis=-1, keepdims=True), 1)

    def absorbed(self, gain):
        """The strict variant stops at local optima: no move improves."""
        if self.variant != "strict":
            return super().absorbed(gain)
        return gain.max(axis=-1) <= 0

    action_distribution = Policy.action_distribution

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
        with np.errstate(over="ignore"):  # a subnormal temperature: exp(-inf) = 0
            accept = np.exp(np.minimum(gain, 0.0) / temperature)  # exactly 1 where gain > 0
    return (1.0 / gain.shape[-1]) * accept


class SimulatedAnnealing(Policy):
    """Metropolis acceptance under geometric cooling T_t = cooling_rate**t * t0.

    `absorbed` is always False: at any finite time the mathematical
    acceptance probability is positive (float underflow of the temperature is
    not modeled as absorption).
    """

    stationary = False

    def __init__(self, t0: float, cooling_rate: float):
        if not 0 < t0 < math.inf:  # at T0 = inf the schedule never cools: a random walk
            raise ValueError(f"initial temperature must be positive and finite, got {t0!r}")
        if not 0.0 <= cooling_rate < 1.0:
            raise ValueError(f"cooling rate must lie in [0, 1), got {cooling_rate!r}")
        self.t0 = float(t0)
        self.cooling_rate = float(cooling_rate)

    def temperature(self, t: int) -> float:
        _check_time(t)
        return self.t0 * self.cooling_rate ** t

    def move_probabilities(self, gain, t, reached):
        return _metropolis_probabilities(gain, self.temperature(t))

    def balance_certificate(self, gain, horizon):
        """A row with u improving moves, z plateau moves and negative gains g
        has the term (z + sum_g exp(g / T_t)) / u at time t, each move
        weighted 1/d as the kernel weighs it.  So:

        * u = 0 and exploration at t = 0: every term is +inf;
        * z > 0 (rate > 0): the terms never fall below z / u, since T_t > 0;
        * otherwise the series converges.  The exponential part is summed
          explicitly, exponentiating only the entries still above 0, until
          every one underflows or `CERTIFICATE_WORK_CAP` cuts the sum off;
          each term shrinks by at most q_t = exp(g_max (1/r - 1) / T_t) a
          step, and q_t only falls as T_t falls, which bounds the rest by
          last term * q / (1 - q) at any cut-off.  At rate 0, T_t = 0 from
          t = 1 on and the first term is the whole series.

        The sums are compensated: the terms of a row never grow, so each
        step is a Fast2Sum.
        """
        k, d = gain.shape
        w = 1.0 / d
        exploit = np.count_nonzero(gain > 0, axis=1) * w
        plateau = np.count_nonzero(gain == 0, axis=1) * w
        stuck = exploit == 0.0
        exploit[stuck] = 1.0  # their terms are all +inf or all 0; set below
        rows, cols = np.nonzero((gain < 0) & ~stuck[:, None])
        g = gain[rows, cols]
        r = self.cooling_rate
        with np.errstate(divide="ignore"):
            top = np.where(stuck, gain.max(axis=1), -math.inf)
            degenerate = w * np.exp(top / self.t0) > 0.0
        if not r:
            first = (plateau + np.bincount(rows, w * np.exp(g / self.t0), k)) / exploit
            first[degenerate] = math.inf
            floor = np.where(degenerate, math.inf, 0.0)
            return SeriesCertificate(floor, first, first, np.zeros(k), "plateau-floor",
                                     "explicit-sum")
        floor = plateau / exploit
        hi, lo = np.zeros(k), np.zeros(k)  # compensated running sum of the rest
        last, last_t = np.zeros(k), np.ones(k)  # last nonzero term and its temperature
        head = None
        t = 0
        while g.size and t < CERTIFICATE_WORK_CAP // (g.size + 1000):
            if t == horizon:
                head = hi + lo
                keep = floor[rows] == 0.0  # a positive floor decides without the tail
                rows, g = rows[keep], g[keep]
            temperature = self.temperature(t)
            with np.errstate(divide="ignore", over="ignore"):
                p = w * np.exp(g / temperature)
            x = np.bincount(rows, p, k) / exploit
            total = hi + x
            lo += x - (total - hi)
            hi = total
            nonzero = x > 0.0
            np.copyto(last, x, where=nonzero)
            np.copyto(last_t, temperature, where=nonzero)
            alive = p > 0.0
            if not alive.all():
                rows, g = rows[alive], g[alive]
            t += 1
        total = hi + lo
        partial = floor * horizon + (total if head is None else head)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(gain < 0, gain, -math.inf).max(axis=1) * ((1.0 - r) / r) / last_t
            tail = np.where(last > 0.0, last * np.exp(a) / -np.expm1(a), 0.0)
        partial[degenerate] = math.inf
        floor[degenerate] = math.inf
        return SeriesCertificate(floor, partial, np.where(floor > 0.0, math.inf, total), tail,
                                 "plateau-floor", "explicit-sum")

    action_distribution = Policy.action_distribution

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

    action_distribution = Policy.action_distribution

    @property
    def descriptor(self):
        return f"metropolis:T={self.fixed_temperature!r}"


class RandomWalk(Policy):
    """Uniform over all neighbors; never stays."""

    def move_probabilities(self, gain, t, reached):
        _check_time(t)
        return np.full(gain.shape, 1.0 / gain.shape[-1])

    action_distribution = Policy.action_distribution

    @property
    def descriptor(self):
        return "walk"


def choose(cum: np.ndarray, draws: np.ndarray, base: np.ndarray):
    """(flat index, moved) of each row's move: row i of `cum` holds the
    running sums of its move probabilities (`np.cumsum` adds in index
    order) and starts at flat index base[i]; the move is the first j with
    draws[i] < cum[i, j], and a row without one, whose draw is at least its
    whole move mass, stays (moved False) with j = 0."""
    hit = draws[:, None] < cum
    flat = base + hit.argmax(axis=1)
    return flat, hit.take(flat)


def step(policy: Policy, mdp: LocalSearchMdp, state: int, t: int, rng):
    """Sample one transition.

    Returns (next_state, move or None, reward); the reward is the objective
    gain, zero when staying.  `rng` needs a `random()` method; identical
    seeds give identical outputs.
    """
    nbr, gain, reached = mdp.move_gains([state])
    cum = policy.move_probabilities(gain, t, reached).cumsum(axis=1)
    (j,), (moved,) = choose(cum, np.array([rng.random()]), np.zeros(1, dtype=np.intp))
    if not moved:
        return state, None, 0.0
    dst = int(nbr[0, j])
    return dst, Move(state, dst), float(gain[0, j])


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
