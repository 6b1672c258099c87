"""Scalar reference implementations: the oracle for the array-backed paths.

This is the per-move code the library ran before the move-gain table: every
distribution is built one move at a time from values read by one objective
call per state's neighborhood (see `neighborhoods`), the balance series is
summed state by state with `math.fsum`, transition matrices are filled
entry by entry, finite-horizon values are pushed forward through products
of the frozen matrices, optimal values are swept state by state and move by
move, and rollouts advance one trajectory and one step at a time, one
`rng.random()` call per step, and are reduced to a `Rollouts` batch from
their per-step records.  `hill_climbing_probabilities`
is hill climbing's table kernel as it was while it asked `absorbed` twice,
`choose_moves` the row-wise running-sum scan the engine's flat-index chooser
must equal, `hamming_neighbors` a state's neighbors found by a scan of every
state, `reachable_states` the breadth-first closure the closed-form
`LocalSearchMdp.reachable_states` must equal, and `sample_states` the
states a `classify` sample sweeps, each checked alone and kept once.
`onemax`, `leading_ones`, `trap`, `nk_landscape` and `maxsat` are
the scalar objectives that each built-in batch objective must equal bit for
bit, nk's tables drawn by numpy's own `default_rng`.  It shares no
arithmetic with the library.  The balance series of the first H terms is
decided by a heuristic judge, an independent check on the library's
certificates.

The output writers are kept too: every value is converted by `to_jsonable`
and written by `json.dumps` and `csv.writer`, and the classify report and
trajectory records are turned into per-state and per-step dicts first.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from lsmdp.coefficients import (CONVERGED, DEGENERATE, DIVERGING, INCONCLUSIVE, ZERO,
                                BalanceSeries)
from lsmdp.policies import (ActionDistribution, HillClimbing, Metropolis, Policy,
                            RandomWalk, SimulatedAnnealing)
from lsmdp.search_space import Move
from lsmdp.simulator import Rollouts, Steps, TrajectoryRecord, TrajectoryStep


class UncertifiedAnnealing(SimulatedAnnealing):
    """Annealing without its balance certificate: a nonstationary policy
    whose series the library leaves inconclusive."""

    balance_certificate = Policy.balance_certificate


def onemax(n):
    return lambda x: float(x.bit_count())


def leading_ones(n):
    def fn(x):
        run = 0
        for b in range(n - 1, -1, -1):
            if not (x >> b) & 1:
                break
            run += 1
        return float(run)

    return fn


def trap(n, k):
    block_mask = (1 << k) - 1

    def fn(x):
        total = 0
        for lo in range(0, n, k):
            u = ((x >> lo) & block_mask).bit_count()
            total += k if u == k else k - 1 - u
        return float(total)

    return fn


def nk_landscape(n, k, seed):
    tables = np.random.default_rng(seed).random((n, 1 << (k + 1)))

    def fn(x):
        total = 0.0
        for i in range(n):
            idx = 0
            for j in range(k + 1):
                idx |= ((x >> ((i + j) % n)) & 1) << j
            total += tables[i, idx]
        return float(total)

    return fn


def maxsat(instance):
    def fn(x):
        satisfied = 0
        for clause in instance.clauses:
            for lit in clause:
                if ((x >> (lit - 1)) & 1) if lit > 0 else not ((x >> (-lit - 1)) & 1):
                    satisfied += 1
                    break
        return float(satisfied)

    return fn


def neighborhoods(mdp):
    """state -> (f(state), ((j, f(j)) for each neighbor j in ascending
    order)), the neighbors read through `mdp.neighbors` and the values by one
    objective call per state, then reused, so time loops do not evaluate
    again."""
    @functools.cache
    def hood(state):
        nbrs = mdp.neighbors(state)
        values = mdp.objective.values([state, *nbrs]).tolist()
        return values[0], tuple(zip(nbrs, values[1:]))

    return hood


def hill_climbing_probabilities(gain, reached, variant):
    """Hill climbing's kernel over a move-gain table as the library wrote it
    while it asked `absorbed` again: the moves of each row's largest reached
    value, none in a row the strict variant is absorbed in."""
    chosen = reached == reached.max(axis=-1, keepdims=True)
    if variant == "strict":  # `absorbed`: no move improves
        chosen &= ~(gain.max(axis=-1) <= 0)[..., None]
    return chosen / np.maximum(chosen.sum(axis=-1, keepdims=True), 1)


def hill_climbing_distribution(state, hood, variant):
    current, moves = hood
    best = max(f for _, f in moves)
    if variant == "strict" and best <= current:
        return ActionDistribution((), 1.0)
    chosen = [j for j, f in moves if f == best]
    p = 1.0 / len(chosen)
    return ActionDistribution(tuple((Move(state, j), p) for j in chosen), 0.0)


def metropolis_distribution(state, hood, temperature):
    current, moves = hood
    base = 1.0 / len(moves)
    entries = []
    for j, f in moves:
        gain = f - current
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


def walk_distribution(state, hood):
    moves = hood[1]
    p = 1.0 / len(moves)
    return ActionDistribution(tuple((Move(state, j), p) for j, _ in moves), 0.0)


def action_distribution(policy, state, hood, t):
    if isinstance(policy, HillClimbing):
        return hill_climbing_distribution(state, hood, policy.variant)
    if isinstance(policy, SimulatedAnnealing):
        return metropolis_distribution(state, hood, policy.temperature(t))
    if isinstance(policy, Metropolis):
        return metropolis_distribution(state, hood, policy.fixed_temperature)
    if isinstance(policy, RandomWalk):
        return walk_distribution(state, hood)
    raise TypeError(f"no reference distribution for {policy!r}")


def count_fractions(mdp, state):
    """(improving, total) neighbor counts of `state`."""
    current, moves = neighborhoods(mdp)(state)
    return sum(f > current for _, f in moves), len(moves)


def exploration_ratio(policy, state, hood, t):
    current, moves = hood
    reached = dict(moves)
    explore, exploit = [], []
    for move, p in action_distribution(policy, state, hood, t).entries:
        (explore if reached[move.dst] <= current else exploit).append(p)
    explore, exploit = math.fsum(explore), math.fsum(exploit)
    if exploit > 0.0:
        return explore / exploit
    return math.inf if explore > 0.0 else 0.0


def balance_series(policy, mdp, state, horizon, tail_tolerance):
    hood = neighborhoods(mdp)(state)
    if policy.stationary:
        terms = [exploration_ratio(policy, state, hood, 0)] * horizon
    else:
        terms = [exploration_ratio(policy, state, hood, t) for t in range(horizon)]
    return judge_series(terms, tail_tolerance)


def certified(certificate, horizon):
    """The balance series of each row of a `SeriesCertificate`, one row at a
    time: an infinite floor is degenerate, a zero limit zero, a positive
    floor diverging, anything else converged."""
    series = []
    for floor, partial, limit, tail_bound in zip(*(a.tolist() for a in certificate[:4])):
        if floor == math.inf:
            series.append(BalanceSeries(math.inf, DEGENERATE, None, None, horizon,
                                        "no-improving-move"))
        elif limit == 0.0:
            series.append(BalanceSeries(0.0, ZERO, 0.0, 0.0, horizon, "no-exploration"))
        elif floor > 0.0:
            series.append(BalanceSeries(partial, DIVERGING, None, None, horizon,
                                        certificate.floor_rule))
        else:
            series.append(BalanceSeries(partial, CONVERGED, limit, tail_bound, horizon,
                                        certificate.limit_rule))
    return series


def orientation(states, series):
    """(classification kind, constant, series max, degenerate states,
    inconclusive states) of the swept `states` with balance series `series`,
    by the rules of `classify`."""
    degenerate = [i for i, s in zip(states, series) if s.verdict == DEGENERATE]
    inconclusive = [i for i, s in zip(states, series) if s.verdict == INCONCLUSIVE]
    limits = [s.limit for s in series if s.verdict == CONVERGED]
    series_max = None if inconclusive else max(
        0.0 if s.verdict == ZERO else s.limit if s.verdict == CONVERGED else math.inf
        for s in series)
    if any(s.verdict == DIVERGING for s in series):
        kind, constant = "exploration-oriented", None
    elif inconclusive:
        kind, constant = "inconclusive", None
    elif limits:
        kind, constant = "balanced", max(limits)
    elif degenerate and len(degenerate) == len(states):
        kind, constant = "exploration-oriented", None
    else:
        kind, constant = "exploitation-oriented", None
    return kind, constant, series_max, degenerate, inconclusive


_EXTINCT_SUFFIX = 10      # this many trailing exact zeros count as a dead tail
_DIVERGENCE_WINDOW = 20   # moving-average window of the divergence rule
_DIVERGENCE_SPAN = 100    # trailing span over which the average must not fall


def judge_series(terms, tail_tolerance):
    """The heuristic verdict on a truncated series: an exact-zero tail or a
    geometric tail bound under `tail_tolerance` converges, a trailing moving
    average that never falls diverges, anything else is inconclusive."""
    horizon = len(terms)
    if any(math.isinf(term) for term in terms):
        return BalanceSeries(math.inf, DEGENERATE, None, None, horizon, "infinite-term")
    if all(term == 0.0 for term in terms):
        return BalanceSeries(0.0, ZERO, 0.0, 0.0, horizon, "zero-terms")
    partial = math.fsum(terms)
    live = horizon
    while live > 0 and terms[live - 1] == 0.0:
        live -= 1
    if horizon - live >= _EXTINCT_SUFFIX:
        return BalanceSeries(partial, CONVERGED, partial, 0.0, horizon, "extinct-tail")
    ratios = [b / a for a, b in zip(terms, terms[1:]) if a > 0.0]
    window = min(len(ratios), max(5, horizon // 10))
    if window:
        recent = max(ratios[-window:])
        if recent < 1.0:
            bound = terms[-1] * recent / (1.0 - recent)
            if bound < tail_tolerance:
                return BalanceSeries(partial, CONVERGED, partial, bound, horizon, "ratio-test")
    if _trailing_average_nondecreasing(terms):
        return BalanceSeries(partial, DIVERGING, None, None, horizon, "trailing-average")
    return BalanceSeries(partial, INCONCLUSIVE, None, None, horizon, "undecided")


def _trailing_average_nondecreasing(terms):
    horizon = len(terms)
    window = min(_DIVERGENCE_WINDOW, max(1, horizon // 6))
    span = min(_DIVERGENCE_SPAN, max(2, horizon // 2))
    averages = []
    for end in range(horizon - span, horizon):
        lo = end - window + 1
        if lo < 0:
            return False  # horizon too short for the rule
        averages.append(math.fsum(terms[lo:end + 1]) / window)
    return all(b >= a - 1e-15 * max(1.0, abs(a)) for a, b in zip(averages, averages[1:]))


def freeze(policy, mdp, t, hoods=None):
    """(P, r) filled one move at a time."""
    hoods = hoods or neighborhoods(mdp)
    size = mdp.num_states
    P = np.zeros((size, size))
    r = np.zeros(size)
    for i in range(size):
        hood = hoods(i)
        current, moves = hood
        reached = dict(moves)
        dist = action_distribution(policy, i, hood, t)
        P[i, i] += dist.stay_probability
        gain = 0.0
        for move, p in dist.entries:
            P[i, move.dst] += p
            gain += p * (reached[move.dst] - current)
        r[i] = gain
    return P, r


def evaluate_nonstationary(policy, mdp, horizon, discount):
    """Finite-horizon values by forward accumulation through the products of
    the earlier transition matrices."""
    hoods = neighborhoods(mdp)
    size = mdp.num_states
    v = np.zeros(size)
    occupancy = np.eye(size)
    for t in range(horizon):
        P, r = freeze(policy, mdp, t, hoods)
        v += (discount ** t) * (occupancy @ r)
        occupancy = occupancy @ P
    return v


def value_iteration(mdp, discount, tolerance=1e-10):
    """Optimal values with a stay action, one state and one move at a time,
    and the state each greedy action leads to (the state itself for stay);
    ties prefer stay, then the lowest-numbered neighbor."""
    size = mdp.num_states
    values = [mdp.value(i) for i in range(size)]
    nbrs = [mdp.neighbors(i) for i in range(size)]
    v = [0.0] * size
    threshold = tolerance * (1.0 - discount) / discount
    delta = 0.0
    for _ in range(1_000_000):
        new = [0.0] * size
        delta = 0.0
        for i in range(size):
            fi = values[i]
            best = discount * v[i]  # stay
            for j in nbrs[i]:
                q = values[j] - fi + discount * v[j]
                if q > best:
                    best = q
            new[i] = best
            diff = abs(best - v[i])
            if diff > delta:
                delta = diff
        v = new
        if delta <= threshold:
            break
    else:
        raise RuntimeError("value iteration failed to converge")
    next_state = []
    for i in range(size):
        fi = values[i]
        best_q = discount * v[i]
        best_next = i
        for j in nbrs[i]:
            q = values[j] - fi + discount * v[j]
            if q > best_q:
                best_q = q
                best_next = j
        next_state.append(best_next)
    return v, delta, next_state


def run_trajectory(policy, mdp, start, horizon, seed, hoods=None):
    """One trajectory, one step at a time; strict hill climbing stops (without
    drawing) once no neighbor improves."""
    hoods = hoods or neighborhoods(mdp)
    rng = np.random.default_rng(seed)
    state = start
    best = mdp.value(start)
    steps = []
    best_curve = [(0, best)]
    terminated_at = None
    for t in range(horizon):
        hood = hoods(state)
        current, moves = hood
        if (isinstance(policy, HillClimbing) and policy.variant == "strict"
                and max(f for _, f in moves) <= current):
            terminated_at = t
            break
        draw = rng.random()
        cumulative = 0.0
        move = None
        for candidate, p in action_distribution(policy, state, hood, t).entries:
            cumulative += p
            if draw < cumulative:
                move = candidate
                break
        if move is None:
            steps.append(TrajectoryStep(t, state, None, 0.0, None))
        else:
            reached = dict(moves)[move.dst]
            reward = reached - current
            kind = "exploration" if reward <= 0 else "exploitation"
            steps.append(TrajectoryStep(t, state, move, reward, kind))
            state, current = move.dst, reached
        best = max(best, current)
        best_curve.append((t + 1, best))
    return TrajectoryRecord(seed=seed, start=start, steps=steps, best_so_far=best_curve,
                            terminated_at=terminated_at)


def choose_moves(probabilities, draws):
    """The move each row's uniform draw selects: the first index j with
    draw < p[0] + ... + p[j], or -1 (stay) when the draw is at least the
    row's whole move mass.  `np.cumsum` adds in index order, so this is the
    running-sum scan over the moves, row by row."""
    hit = draws[:, None] < np.cumsum(probabilities, axis=-1)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def reachable_states(n, distance, start):
    """The states that flips of exactly `distance` of n bits reach from
    `start`, ascending: a breadth-first closure, one frontier at a time."""
    masks = [sum(1 << bit for bit in bits)
             for bits in itertools.combinations(range(n), distance)]
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {state ^ mask for state in frontier for mask in masks} - seen
        seen |= frontier
    return sorted(seen)


def hamming_neighbors(n, distance, state):
    """The states at Hamming distance exactly `distance` from `state`, by a
    scan of all 2**n states, ascending."""
    return [j for j in range(2**n) if (state ^ j).bit_count() == distance]


def sample_states(mdp, states):
    """The states of a `classify` sample: each checked by `check_state`, in
    order of first occurrence, a repeated state once."""
    return list(dict.fromkeys(mdp.check_state(i) for i in states))


def generate_records(policy, mdp, start_rule, horizon, num_trajectories, base_seed):
    """Trajectory k walks on seed (base_seed, k, 0) and, for uniform starts,
    draws its start from seed (base_seed, k, 1)."""
    def seed(index, stream):
        return int(np.random.SeedSequence([base_seed, index, stream])
                   .generate_state(1, np.uint64)[0])

    hoods = neighborhoods(mdp)
    records = []
    for index in range(num_trajectories):
        start = start_rule
        if start_rule == "uniform":
            start = int(np.random.default_rng(seed(index, 1)).integers(mdp.num_states))
        records.append(run_trajectory(policy, mdp, start, horizon, seed(index, 0), hoods))
    return records


def rollouts_from_records(records, horizon):
    """The batch reduction of `simulate_batch`, computed from per-step
    records: running bests held after absorption, per-step counts of each
    record's tagged exploration and exploitation moves, and the steps."""
    count = len(records)
    best = np.empty((count, horizon + 1))
    explore = np.zeros(horizon, dtype=np.int64)
    exploit = np.zeros(horizon, dtype=np.int64)
    steps = Steps(np.zeros((count, horizon), dtype=np.int64),
                  np.full((count, horizon), -1, dtype=np.int64),
                  np.zeros((count, horizon)), np.zeros(count, dtype=np.int64))
    for k, record in enumerate(records):
        series = [b for _, b in record.best_so_far]
        best[k, :len(series)] = series
        best[k, len(series):] = series[-1]
        steps.taken[k] = len(record.steps)
        for s in record.steps:
            steps.state[k, s.t] = s.state
            steps.dst[k, s.t] = s.move.dst if s.move is not None else -1
            steps.reward[k, s.t] = s.reward
            if s.kind is not None:
                (explore if s.kind == "exploration" else exploit)[s.t] += 1
    return Rollouts(horizon, [r.seed for r in records], [r.start for r in records],
                    best, explore, exploit, steps)


# ---------------------------------------------------------------- writers

def to_jsonable(value):
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, np.integer):
        return int(value)
    return value


def dumps_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def dumps_json_line(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_cell(cell) for cell in row])
    return buf.getvalue()


def report_json_dict(report) -> dict:
    """`report.json`'s object, one dict per state, from the report's views."""
    per_state = {}
    for i in report.states:
        alpha, beta = report.fractions[i]
        s = report.series[i]
        per_state[str(i)] = {
            "alpha": float(alpha),
            "beta": float(beta),
            "gamma": report.convergence[i],
            "delta_partial": s.partial_sum,
            "delta_limit": s.limit,
            "tail_bound": s.tail_bound,
            "verdict": s.verdict,
            "rule": s.rule,
        }
    return {
        "classification": {"kind": report.classification.kind,
                           "constant": report.classification.constant},
        "delta_star": report.series_max,
        "horizon": report.horizon,
        "degenerate_states": report.degenerate_states,
        "inconclusive_states": report.inconclusive_states,
        "states": per_state,
    }


def report_csv_rows(report):
    """`report.csv`'s rows, in sweep order."""
    for i in report.states:
        alpha, beta = report.fractions[i]
        s = report.series[i]
        yield (i, float(alpha), float(beta), report.convergence[i], s.partial_sum, s.verdict)


def trajectory_json_dict(record) -> dict:
    """One `trajectories.jsonl` object (without its policy), one dict per step."""
    return {
        "seed": record.seed,
        "start": record.start,
        "terminated_at": record.terminated_at,
        "steps": [
            {"t": s.t, "state": s.state,
             "move": list(s.move) if s.move is not None else None,
             "reward": s.reward, "kind": s.kind}
            for s in record.steps
        ],
        "best_so_far": [[t, b] for t, b in record.best_so_far],
    }
