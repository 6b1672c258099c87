"""Seeded Monte-Carlo rollouts for instances beyond exact reach.

Trajectories are independent and reproducible: trajectory k of a batch draws
its generator seed from the entropy triple (base_seed, k, stream) through
numpy's SeedSequence, replayed by `streams`, so batches replay identically
across machines.

One lockstep engine runs every batch.  A run of G policies over K seeds
has G·K rows, row g·K + k being trajectory k of policy g, and all rows of a
chunk advance together: one move-gain table per time step covers every
running row, each policy's acceptance kernel reads its own contiguous block
of rows, and one running-sum scan picks every row's move.  Each row draws
its uniforms, in time-major blocks, from its own stream, so its path depends
neither on the batch it runs in nor on the other policies.  The engine
reduces online, to per-step move counts per policy and a rows x
(horizon + 1) running-best matrix, keeps per-step arrays only when asked
to, and hands each policy its block of rows as views.  Aggregation is a
commutative reduction, independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .coefficients import SWEEP_CHUNK, extended_ratio, improving
from .objectives import check_at_least, check_memory
from .policies import Policy, choose
from .search_space import LocalSearchMdp, Move
from .serialize import Rows, Table
from .streams import DRAW_BLOCK, Streams, seed_state

_KINDS = ("exploration", "exploitation")  # a move's kind, indexed by `improving`


def derive_seed(base_seed: int, indices, stream: int = 0) -> np.ndarray:
    """Portable per-trajectory seeds (uint64, shaped as `indices`) of
    (base_seed, index): numpy's `SeedSequence([base_seed, index,
    stream]).generate_state(1, np.uint64)[0]`; stream 0 drives the walk,
    stream 1 the start-state draw."""
    indices = np.asarray(indices, dtype=np.uint64)
    return seed_state([base_seed, indices.ravel(), stream], indices.size, 1).reshape(indices.shape)


@dataclass(frozen=True)
class TrajectoryStep:
    t: int
    state: int           # state occupied at time t, before acting
    move: Move | None    # None = stayed in place
    reward: float
    kind: str | None     # "exploration"/"exploitation"; None when staying


@dataclass
class TrajectoryRecord:
    seed: int
    start: int
    steps: list[TrajectoryStep]
    best_so_far: list[tuple[int, float]]
    terminated_at: int | None


class Steps(NamedTuple):
    """The per-step arrays of a batch that kept its steps: trajectory k took
    `taken[k]` steps; at step t < taken[k] it occupied `state[k, t]`, moved
    to `dst[k, t]` (-1: stayed) and earned `reward[k, t]`."""

    state: np.ndarray
    dst: np.ndarray
    reward: np.ndarray
    taken: np.ndarray


@dataclass
class Rollouts:
    """A batch of trajectories, reduced online.

    `best[k, t]` is trajectory k's running best at time t, held after the
    trajectory is absorbed; `explore[t]` and `exploit[t]` count the
    exploration and exploitation moves the batch took at step t.  `steps`
    holds the per-step arrays when the batch kept them, else None.  A batch
    from `simulate_batches` holds views into the arrays of its whole run.
    """

    horizon: int
    seeds: list[int]
    starts: list[int]
    best: np.ndarray
    explore: np.ndarray
    exploit: np.ndarray
    steps: Steps | None = None

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def records(self) -> list[TrajectoryRecord] | None:
        """Per-step records of every trajectory, built from `steps`."""
        if self.steps is None:
            return None
        return [self._record(k) for k in range(len(self))]

    def _record(self, k: int) -> TrajectoryRecord:
        end = int(self.steps.taken[k])
        rewards = self.steps.reward[k, :end]
        steps = [TrajectoryStep(t, state, None if dst < 0 else Move(state, dst), reward,
                                None if dst < 0 else _KINDS[up])
                 for t, (state, dst, reward, up)
                 in enumerate(zip(self.steps.state[k, :end].tolist(),
                                  self.steps.dst[k, :end].tolist(), rewards.tolist(),
                                  improving(rewards).tolist()))]
        return TrajectoryRecord(seed=int(self.seeds[k]), start=self.starts[k], steps=steps,
                                best_so_far=list(enumerate(self.best[k, :end + 1].tolist())),
                                terminated_at=end if end < self.horizon else None)

    def trajectory_json(self, k: int) -> dict:
        """The `trajectories.jsonl` object of trajectory k (without its
        policy), column by column from the per-step arrays: a step's kind
        is coded 0 (stay), 1 (exploration) or 2 (exploitation), and the
        steps' `t` and `best_so_far`'s index are the same range, formatted
        once."""
        end = int(self.steps.taken[k])
        state, dst = self.steps.state[k, :end], self.steps.dst[k, :end]
        reward = self.steps.reward[k, :end]
        moved = dst >= 0
        moves = list(zip(state.tolist(), dst.tolist()))
        for t in np.flatnonzero(~moved).tolist():
            moves[t] = None
        return {
            "seed": int(self.seeds[k]),
            "start": self.starts[k],
            "terminated_at": end if end < self.horizon else None,
            "steps": Table({"t": range(end), "state": state, "move": moves, "reward": reward,
                            "kind": Table((None,) + _KINDS,
                                          codes=moved.astype(np.int8) + improving(reward))}),
            "best_so_far": Rows((range(end + 1), self.best[k, :end + 1])),
        }


def _empty_steps(count: int, horizon: int) -> Steps:
    return Steps(np.zeros((count, horizon), dtype=np.int64),
                 np.full((count, horizon), -1, dtype=np.int64),
                 np.zeros((count, horizon)), np.zeros(count, dtype=np.int64))


def check_rollout(horizon: int, num_trajectories: int = 0, bucket_width: int = 1) -> None:
    """Raise ValueError for rollout numbers that no batch can run, before
    the objective is built or read."""
    check_at_least("horizon", horizon)
    check_at_least("bucket width", bucket_width, 1)
    check_at_least("num_trajectories", num_trajectories)


def _check_run(mdp: LocalSearchMdp, rows: int, horizon: int, keep_steps: bool,
               kept: int) -> None:
    """Price a run before its first mask or seed: [rows, horizon + 1]
    running bests, `kept` words more, three [rows, horizon] per-step arrays
    when kept, 8 words of stream state a row; for a chunk of min(rows,
    SWEEP_CHUNK) rows, the step's move table and the last step's, the running
    sums of the move probabilities, the masks and a block of uniforms."""
    d, chunk = mdp.degree, min(rows, SWEEP_CHUNK)
    steps = 3 * horizon if keep_steps else 0
    check_memory(f"rollout of {rows} trajectories of {d} moves a step over horizon {horizon}",
                 words=rows * (horizon + 1 + steps + 8) + kept + chunk * d,
                 entries=2 * chunk * d, masks=d, draws=min(horizon, DRAW_BLOCK) * chunk)


def simulate_batches(policies, mdp: LocalSearchMdp, start_rule, horizon: int,
                     num_trajectories: int, base_seed: int,
                     keep_steps: bool = False) -> list[Rollouts]:
    """Run one batch of independently seeded trajectories per policy, all
    policies in one lockstep.

    `start_rule` is either a fixed start state (int) or the string
    ``uniform`` for a uniformly random start per trajectory.  Every batch
    gets the same seeds and starts, and each is what `simulate_batch` gives
    for its policy alone.  The options are checked before any trajectory
    runs; per-step arrays are kept only with `keep_steps`.
    """
    check_rollout(horizon, num_trajectories)
    if start_rule != "uniform":
        mdp.check_state(start_rule)
    policies = list(policies)
    _check_run(mdp, len(policies) * num_trajectories, horizon, keep_steps,
               num_trajectories * (horizon + 1))  # a summary's sorted copy of one policy's bests
    indices = np.arange(num_trajectories, dtype=np.uint64)
    seeds = derive_seed(base_seed, indices, stream=0)
    if start_rule == "uniform":
        starts = Streams(derive_seed(base_seed, indices, stream=1)).integers(mdp.n).tolist()
    else:
        starts = [int(start_rule)] * num_trajectories
    return _lockstep(policies, mdp, starts, Streams(seeds), seeds.tolist(), horizon, keep_steps)


def simulate_batch(policy: Policy, mdp: LocalSearchMdp, start_rule, horizon: int,
                   num_trajectories: int, base_seed: int, keep_steps: bool = False) -> Rollouts:
    """Run a batch of independently seeded trajectories in lockstep: the
    batch `simulate_batches` gives for this one policy."""
    return simulate_batches([policy], mdp, start_rule, horizon, num_trajectories, base_seed,
                            keep_steps)[0]


class _Run(NamedTuple):
    """The arrays every row of a lockstep run writes into: row g·K + k is
    trajectory k of policy g, `streams` row k is trajectory k's stream, and
    `explore[g]`/`exploit[g]` are policy g's per-step move counts."""

    policies: list
    streams: Streams
    seeds: list[int]
    starts: np.ndarray
    start_values: np.ndarray
    best: np.ndarray
    explore: np.ndarray
    exploit: np.ndarray
    steps: Steps | None


def _lockstep(policies, mdp, starts, streams, seeds, horizon, keep_steps) -> list[Rollouts]:
    """Advance trajectory k of every policy together, in chunks of
    `SWEEP_CHUNK` rows, and return each policy's block of rows as views;
    trajectory k starts at starts[k] and draws from row k of `streams`,
    which seeds[k] seeded."""
    count, total = len(seeds), len(policies) * len(seeds)
    run = _Run(policies, streams, seeds, np.array(starts, dtype=np.int64),
               np.array([mdp.value(s) for s in starts], dtype=float),
               np.empty((total, horizon + 1)), np.zeros((len(policies), horizon), dtype=np.int64),
               np.zeros((len(policies), horizon), dtype=np.int64),
               _empty_steps(total, horizon) if keep_steps else None)
    for lo in range(0, total, SWEEP_CHUNK):
        _advance_chunk(run, mdp, lo, min(lo + SWEEP_CHUNK, total))
    blocks = [slice(g * count, (g + 1) * count) for g in range(len(policies))]
    return [Rollouts(horizon, list(seeds), list(starts), run.best[block], run.explore[g],
                     run.exploit[g], None if run.steps is None else
                     Steps(*(array[block] for array in run.steps)))
            for g, block in enumerate(blocks)]


def _policy_spans(policies, group):
    """(policy index, policy, first row, end row) of each policy with a row
    in `group`, the sorted policy index of every running row."""
    bounds = np.searchsorted(group, np.arange(len(policies) + 1)).tolist()
    return [(g, policies[g], a, b) for g, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]


def _stoppers(spans):
    """The spans whose policy can stop a row: it overrides `Policy.absorbed`."""
    return [span for span in spans if type(span[1]).absorbed is not Policy.absorbed]


def _advance_chunk(run, mdp, lo, hi) -> None:
    """Roll rows lo..hi-1 of `run` forward together for up to the horizon;
    a row stops once its policy is absorbed, which only the policies that
    can stop are asked.  The move-gain table is rebuilt only for the rows
    that moved in the last step (all of it when every row moved)."""
    horizon = run.best.shape[1] - 1
    rows = np.arange(lo, hi)                             # rows still running
    at = slice(lo, hi)                                   # `rows`, a slice while no row stopped
    group, trajectory = np.divmod(rows, len(run.seeds))
    spans = _policy_spans(run.policies, group)
    stoppers = _stoppers(spans)
    streams = run.streams.take(trajectory)
    base = np.arange(0, rows.size * mdp.degree, mdp.degree)  # each row's first flat index
    states = run.starts[trajectory]
    current = run.start_values[trajectory]
    running = current.copy()
    run.best[lo:hi, 0] = running
    if run.steps is not None:
        run.steps.taken[lo:hi] = horizon
    draws = moved = None
    for t in range(horizon):
        # A row that stayed keeps its state, so its table is still exact.
        if moved is None or moved.all():
            nbr, gain, reached = mdp.move_table(states, current)
        else:
            fresh = np.flatnonzero(moved)
            if fresh.size:
                nbr[fresh], gain[fresh], reached[fresh] = mdp.move_table(states[fresh],
                                                                         current[fresh])
        if stoppers:
            stop = np.zeros(rows.size, dtype=bool)
            for _, policy, a, b in stoppers:
                stop[a:b] = policy.absorbed(gain[a:b])
            if stop.any():
                run.best[rows[stop], t + 1:] = running[stop, None]
                if run.steps is not None:
                    run.steps.taken[rows[stop]] = t
                go = ~stop
                rows, group, states, current, running = (rows[go], group[go], states[go],
                                                         current[go], running[go])
                at = rows
                nbr, gain, reached = nbr[go], gain[go], reached[go]
                if draws is not None:
                    draws = draws[:, go]
                if not rows.size:
                    break
                base = base[:rows.size]
                spans = _policy_spans(run.policies, group)
                stoppers = _stoppers(spans)
        # A row's i-th uniform drives its i-th step, whatever the block.
        if t % DRAW_BLOCK == 0:
            width = min(DRAW_BLOCK, horizon - t)
            draws = streams.random(width, rows - lo)
        cum = np.empty(gain.shape)
        for _, policy, a, b in spans:
            policy.move_probabilities(gain[a:b], t, reached[a:b]).cumsum(axis=1, out=cum[a:b])
        flat, moved = choose(cum, draws[t % DRAW_BLOCK], base)
        taken = np.where(moved, gain.take(flat), 0.0)
        up = improving(taken)  # a stay takes gain 0, so it is never improving
        for g, _, a, b in spans:
            ups = np.count_nonzero(up[a:b])
            run.exploit[g, t] += ups
            run.explore[g, t] += np.count_nonzero(moved[a:b]) - ups
        picked = nbr.take(flat)
        if run.steps is not None:
            run.steps.state[at, t] = states
            run.steps.dst[at, t] = np.where(moved, picked, -1)
            run.steps.reward[at, t] = taken
        states = np.where(moved, picked, states)
        current = np.where(moved, reached.take(flat), current)
        np.copyto(running, current, where=current > running)
        run.best[at, t + 1] = running


def run_trajectory(policy: Policy, mdp: LocalSearchMdp, start: int, horizon: int,
                   seed: int) -> TrajectoryRecord:
    """Roll the policy forward for up to `horizon` steps; stops early (and
    records `terminated_at`) once the policy is absorbed.  Deterministic for
    a given seed: a batch of one."""
    check_at_least("horizon", horizon)
    start = mdp.check_state(start)
    _check_run(mdp, 1, horizon, True, 60 * horizon)  # a step's record: about 60 words of objects
    return _lockstep([policy], mdp, [start], Streams(int(seed)), [int(seed)], horizon,
                     keep_steps=True)[0].records[0]


def generate_records(policy: Policy, mdp: LocalSearchMdp, start_rule, horizon: int,
                     num_trajectories: int, base_seed: int) -> list[TrajectoryRecord]:
    """`simulate_batch` with every trajectory's per-step record kept."""
    return simulate_batch(policy, mdp, start_rule, horizon, num_trajectories, base_seed,
                          keep_steps=True).records


def _bucket_counts(batch: Rollouts, bucket_width: int) -> tuple[list[int], list[int]]:
    check_at_least("bucket width", bucket_width, 1)
    starts = np.arange(0, batch.horizon, bucket_width)
    if not starts.size:
        return [], []
    return (np.add.reduceat(batch.explore, starts).tolist(),
            np.add.reduceat(batch.exploit, starts).tolist())


def exploration_ratio_by_bucket(batch: Rollouts, bucket_width: int) -> list[float]:
    """Per-bucket (#exploration moves / #exploitation moves), extended-real;
    stays excluded."""
    return extended_ratio(*_bucket_counts(batch, bucket_width)).tolist()


def exploration_fraction_by_bucket(batch: Rollouts, bucket_width: int) -> list[float | None]:
    """Per-bucket fraction of moves that are exploration; None when the bucket
    contains no moves at all."""
    explore, exploit = _bucket_counts(batch, bucket_width)
    return [e / (e + x) if e + x > 0 else None for e, x in zip(explore, exploit)]


def _quantiles(ordered: np.ndarray, qs) -> dict[str, np.ndarray]:
    """`np.quantile(ordered, q, axis=0)` bit for bit, keyed "p<100q>", of an
    array sorted along axis 0, by numpy's default linear rule: the virtual
    index i = (n - 1)·q between a = ordered[floor(i)] and b, the next, both
    the last at i >= n - 1, weight g = i - the lower index (-1 for the last),
    value a + (b - a)·g, or b - (b - a)·(1 - g) where g >= 0.5; a column
    that holds NaN gives its last entry, a NaN.  `np.quantile` itself would
    call a bare `np.unique`, which imports numpy.ma."""
    n = ordered.shape[0]
    last = ordered[-1]
    nan = np.isnan(last)
    out = {}
    for q in qs:
        index = (n - 1) * q
        lo = -1 if index >= n - 1 else math.floor(index)
        a, b = ordered[lo], ordered[lo + 1 if lo >= 0 else -1]
        g = index - lo
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in np.quantile
            d = b - a
            value = b - d * (1 - g) if g >= 0.5 else a + d * g
        out[f"p{int(q * 100)}"] = np.where(nan, last, value)
    return out


def best_so_far_curve(batch: Rollouts):
    """Across-trajectory mean and quartiles (arrays) of the running best at
    each t; early-terminated trajectories hold their final best."""
    if not len(batch):
        return np.empty(0), {}
    quartiles = _quantiles(np.sort(batch.best, axis=0), (0.25, 0.5, 0.75))
    return batch.best.mean(axis=0), quartiles


@dataclass
class RunSummary:
    """Order-independent aggregate of a batch of trajectories."""

    num_trajectories: int
    horizon: int
    bucket_width: int
    hit_rate: float | None              # None without a known optimum or trajectories
    best_final_mean: float | None
    best_final_quantiles: dict[str, float] | None
    exploration_fraction: list[float | None]
    exploration_ratio: list[float]

    def to_json_dict(self) -> dict:
        """The fields by name, their values shared, not copied."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    CSV_HEADER = ("num_trajectories", "hit_rate", "best_final_mean",
                  "best_final_p0", "best_final_p25", "best_final_p50",
                  "best_final_p75", "best_final_p100")

    def csv_row(self):
        q = self.best_final_quantiles or {}
        return (self.num_trajectories, self.hit_rate, self.best_final_mean,
                q.get("p0"), q.get("p25"), q.get("p50"), q.get("p75"), q.get("p100"))


def summarize_records(batch: Rollouts, bucket_width: int = 1,
                      known_optimum: float | None = None) -> RunSummary:
    """Aggregate a batch (order-independent) over its horizon."""
    check_at_least("bucket width", bucket_width, 1)
    count = len(batch)
    if count == 0:
        return RunSummary(0, batch.horizon, bucket_width, None, None, None, [], [])
    finals = np.sort(batch.best[:, -1])
    quantiles = {key: float(value)
                 for key, value in _quantiles(finals, (0.0, 0.25, 0.5, 0.75, 1.0)).items()}
    hit_rate = (None if known_optimum is None
                else int(np.count_nonzero(finals >= known_optimum)) / count)
    return RunSummary(
        num_trajectories=count,
        horizon=batch.horizon,
        bucket_width=bucket_width,
        hit_rate=hit_rate,
        best_final_mean=float(np.mean(finals)),
        best_final_quantiles=quantiles,
        exploration_fraction=exploration_fraction_by_bucket(batch, bucket_width),
        exploration_ratio=exploration_ratio_by_bucket(batch, bucket_width),
    )


def run_batch(policy: Policy, mdp: LocalSearchMdp, start_rule, horizon: int,
              num_trajectories: int, base_seed: int, bucket_width: int = 1) -> RunSummary:
    """simulate_batch + summarize_records in one call."""
    check_rollout(horizon, num_trajectories, bucket_width)
    batch = simulate_batch(policy, mdp, start_rule, horizon, num_trajectories, base_seed)
    return summarize_records(batch, bucket_width, mdp.objective.known_optimum)
