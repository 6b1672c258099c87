"""Scalar reference implementations: the oracle for the array-backed paths.

This is the per-move code the library ran before the move-gain table: every
distribution is built one move at a time from `LocalSearchMdp.value`, the
balance series is summed state by state with `math.fsum`, transition
matrices are filled entry by entry, finite-horizon values are pushed
forward through products of the frozen matrices, and rollouts advance one
trajectory and one step at a time, one `rng.random()` call per step.  It
shares no arithmetic with the library except the series judge, which both
paths call unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from lsmdp.coefficients import _judge_series
from lsmdp.policies import (ActionDistribution, HillClimbing, Metropolis, RandomWalk,
                            SimulatedAnnealing)
from lsmdp.search_space import Move
from lsmdp.simulator import TrajectoryRecord, TrajectoryStep


def hill_climbing_distribution(mdp, state, variant):
    nbrs = mdp.neighbors(state)
    best = max(mdp.value(j) for j in nbrs)
    if variant == "strict" and best <= mdp.value(state):
        return ActionDistribution((), 1.0)
    chosen = [j for j in nbrs if mdp.value(j) == best]
    p = 1.0 / len(chosen)
    return ActionDistribution(tuple((Move(state, j), p) for j in chosen), 0.0)


def metropolis_distribution(mdp, state, temperature):
    nbrs = mdp.neighbors(state)
    base = 1.0 / len(nbrs)
    current = mdp.value(state)
    entries = []
    for j in nbrs:
        gain = mdp.value(j) - current
        if gain > 0:
            accept = 1.0
        elif temperature == 0.0:
            accept = 0.0
        else:
            accept = math.exp(gain / temperature)
        if accept > 0.0:
            entries.append((Move(state, j), base * accept))
    stay = max(0.0, 1.0 - math.fsum(p for _, p in entries))
    return ActionDistribution(tuple(entries), stay)


def walk_distribution(mdp, state):
    nbrs = mdp.neighbors(state)
    p = 1.0 / len(nbrs)
    return ActionDistribution(tuple((Move(state, j), p) for j in nbrs), 0.0)


def action_distribution(policy, mdp, state, t):
    if isinstance(policy, HillClimbing):
        return hill_climbing_distribution(mdp, state, policy.variant)
    if isinstance(policy, SimulatedAnnealing):
        return metropolis_distribution(mdp, state, policy.temperature(t))
    if isinstance(policy, Metropolis):
        return metropolis_distribution(mdp, state, policy.fixed_temperature)
    if isinstance(policy, RandomWalk):
        return walk_distribution(mdp, state)
    raise TypeError(f"no reference distribution for {policy!r}")


def count_fractions(mdp, state):
    """(improving, total) neighbor counts of `state`."""
    current = mdp.value(state)
    nbrs = mdp.neighbors(state)
    return sum(mdp.value(j) > current for j in nbrs), len(nbrs)


def exploration_ratio(policy, mdp, state, t):
    dist = action_distribution(policy, mdp, state, t)
    current = mdp.value(state)
    explore, exploit = [], []
    for move, p in dist.entries:
        (explore if mdp.value(move.dst) <= current else exploit).append(p)
    explore, exploit = math.fsum(explore), math.fsum(exploit)
    if exploit > 0.0:
        return explore / exploit
    return math.inf if explore > 0.0 else 0.0


def balance_series(policy, mdp, state, horizon, tail_tolerance):
    if policy.stationary:
        terms = [exploration_ratio(policy, mdp, state, 0)] * horizon
    else:
        terms = [exploration_ratio(policy, mdp, state, t) for t in range(horizon)]
    return _judge_series(terms, tail_tolerance)


def freeze(policy, mdp, t):
    """(P, r) filled one move at a time."""
    size = mdp.num_states
    P = np.zeros((size, size))
    r = np.zeros(size)
    for i in range(size):
        dist = action_distribution(policy, mdp, i, t)
        P[i, i] += dist.stay_probability
        current = mdp.value(i)
        gain = 0.0
        for move, p in dist.entries:
            P[i, move.dst] += p
            gain += p * (mdp.value(move.dst) - current)
        r[i] = gain
    return P, r


def evaluate_nonstationary(policy, mdp, horizon, discount):
    """Finite-horizon values by forward accumulation through the products of
    the earlier transition matrices."""
    size = mdp.num_states
    v = np.zeros(size)
    occupancy = np.eye(size)
    for t in range(horizon):
        P, r = freeze(policy, mdp, t)
        v += (discount ** t) * (occupancy @ r)
        occupancy = occupancy @ P
    return v


def run_trajectory(policy, mdp, start, horizon, seed):
    """One trajectory, one step at a time; strict hill climbing stops (without
    drawing) once no neighbor improves."""
    rng = np.random.default_rng(seed)
    state = start
    best = mdp.value(start)
    steps = []
    best_curve = [(0, best)]
    terminated_at = None
    for t in range(horizon):
        current = mdp.value(state)
        if (isinstance(policy, HillClimbing) and policy.variant == "strict"
                and max(mdp.value(j) for j in mdp.neighbors(state)) <= current):
            terminated_at = t
            break
        draw = rng.random()
        cumulative = 0.0
        move = None
        for candidate, p in action_distribution(policy, mdp, state, t).entries:
            cumulative += p
            if draw < cumulative:
                move = candidate
                break
        if move is None:
            steps.append(TrajectoryStep(t, state, None, 0.0, None))
        else:
            reward = mdp.value(move.dst) - current
            kind = "exploration" if reward <= 0 else "exploitation"
            steps.append(TrajectoryStep(t, state, move, reward, kind))
            state = move.dst
        best = max(best, mdp.value(state))
        best_curve.append((t + 1, best))
    return TrajectoryRecord(seed=seed, start=start, steps=steps, best_so_far=best_curve,
                            terminated_at=terminated_at)


def generate_records(policy, mdp, start_rule, horizon, num_trajectories, base_seed):
    """Trajectory k walks on seed (base_seed, k, 0) and, for uniform starts,
    draws its start from seed (base_seed, k, 1)."""
    def seed(index, stream):
        return int(np.random.SeedSequence([base_seed, index, stream])
                   .generate_state(1, np.uint64)[0])

    records = []
    for index in range(num_trajectories):
        start = start_rule
        if start_rule == "uniform":
            start = int(np.random.default_rng(seed(index, 1)).integers(mdp.num_states))
        records.append(run_trajectory(policy, mdp, start, horizon, seed(index, 0)))
    return records
