"""Per-state analysis quantities for a policy on a local-search space.

Everything here reads the move-gain table of `LocalSearchMdp.move_gains`
and splits moves in one place, `improving`: a move is exploitation when its
objective gain is strictly positive and exploration otherwise (plateau
moves included); stay mass counts as neither.  The building blocks are the
improving / non-improving counts of each neighborhood and the per-step
exploration and exploitation masses of a policy.

Derived quantities:

* count fractions  alpha = |non-improving| / |all moves|,
                   beta  = |improving| / |all moves|   (exact rationals);
* convergence coefficient  gamma = |improving| / |non-improving|, which is 0
  exactly at local maxima (`improving_sweep` counts every state's moves);
* balance ratio  = exploration mass / exploitation mass at (state, t), and
  its time series whose summability classifies a policy as
  exploitation-oriented, balanced, or exploration-oriented.  Each series is
  decided in closed form, from a stationary policy's one constant term or a
  policy's `balance_certificate` (else inconclusive), by one array rule per
  chunk of states, and kept as report columns.

Every ratio is an extended real, divided by `extended_ratio`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .objectives import check_at_least, check_memory
from .policies import Policy, SeriesCertificate, step
from .search_space import EXHAUSTIVE_CAP, LocalSearchMdp
from .serialize import Table
from .streams import DRAW_BLOCK

# States per move-gain table in the sweeps, and trajectories per lockstep
# batch in the simulator: memory O(chunk * (d + horizon)).
SWEEP_CHUNK = 1 << 12

DEFAULT_HORIZON = 200

ZERO = "zero"
CONVERGED = "converged"
DIVERGING = "diverging"
DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"


class UndefinedCoefficientError(ValueError):
    """The state has no available moves, so count fractions are undefined."""


def improving(gain: np.ndarray) -> np.ndarray:
    """The split of moves by gain: True for exploitation (gain > 0), False
    for exploration (gain <= 0)."""
    return gain > 0


def improving_counts(gain: np.ndarray) -> np.ndarray:
    """Number of improving moves in each row of a move-gain table."""
    return np.count_nonzero(improving(gain), axis=-1)


class CountFractions(NamedTuple):
    """Exact fractions of non-improving (alpha) and improving (beta) moves."""

    non_improving: Fraction
    improving: Fraction


def count_fractions(mdp: LocalSearchMdp, state: int) -> CountFractions:
    """The (alpha, beta) pair for `state`; always sums to exactly 1."""
    _, gain, _ = mdp.move_gains([state])
    return _fractions(int(improving_counts(gain)[0]), gain.shape[1], state)


def _fractions(up: int, total: int, state: int) -> CountFractions:
    if total == 0:
        raise UndefinedCoefficientError(f"state {state} has no moves")
    return CountFractions(Fraction(total - up, total), Fraction(up, total))


def convergence_coefficient(mdp: LocalSearchMdp, state: int) -> float:
    """|improving| / |non-improving| as an extended real.

    Returns 0.0 exactly when there is no improving neighbor (local maxima,
    including the doubly-empty case) and +inf when every neighbor improves.
    """
    _, gain, _ = mdp.move_gains([state])
    return gamma_from_counts(int(improving_counts(gain)[0]), gain.shape[1])


def extended_ratio(num, den) -> np.ndarray:
    """num / den, elementwise over nonnegative arrays, as extended reals:
    x/0 = +inf for x > 0 and 0/0 = 0."""
    num = np.asarray(num, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num > 0.0, num / den, 0.0)


def gamma_from_counts(up: int, total: int) -> float:
    """|improving| / |non-improving| of `up` improving moves out of `total`."""
    return float(extended_ratio(up, total - up))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Convergence coefficient along one sampled trajectory (t = 0..t_max)."""

    states: tuple[int, ...]
    values: tuple[float, ...]
    first_zero: int | None


def price_trace(mdp: LocalSearchMdp, t_max: int) -> None:
    """Price a trace of t_max steps before its first step: the distinct visited
    states' table, 4 words an entry (no kernel), a block of uniforms, and the
    states and coefficients as Python objects (about 10 words a state)."""
    check_memory(f"trace of {t_max + 1} states", masks=mdp.degree, draws=min(t_max, DRAW_BLOCK),
                 words=4 * min(t_max + 1, mdp.num_states) * mdp.degree + 10 * (t_max + 1))


def convergence_trace(policy: Policy, mdp: LocalSearchMdp, start: int, t_max: int,
                      rng) -> ConvergenceTrace:
    """Roll the policy for t_max steps and record the convergence coefficient
    of every visited state; absorbed states simply repeat."""
    check_at_least("t_max", t_max)
    mdp.check_state(start)
    price_trace(mdp, t_max)
    states = [start]
    state = start
    for t in range(t_max):
        state, _, _ = step(policy, mdp, state, t, rng)
        states.append(state)
    distinct, index = np.unique(states, return_inverse=True)
    _, gain, _ = mdp.move_gains(distinct)
    ups = improving_counts(gain)
    values = tuple(extended_ratio(ups, mdp.degree - ups)[index].tolist())
    first_zero = next((t for t, g in enumerate(values) if g == 0.0), None)
    return ConvergenceTrace(tuple(states), values, first_zero)


def _masses(p: np.ndarray, gain: np.ndarray):
    """(exploration, exploitation) move mass of every row of move
    probabilities `p` over the moves of `gain`; stay mass is in neither."""
    up = improving(gain)
    return np.where(up, 0.0, p).sum(axis=-1), np.where(up, p, 0.0).sum(axis=-1)


def _ratios(policy: Policy, gain: np.ndarray, reached: np.ndarray, t: int) -> np.ndarray:
    """Exploration mass / exploitation mass of every row, extended-real."""
    return extended_ratio(*_masses(policy.move_probabilities(gain, t, reached), gain))


def exploration_masses(policy: Policy, mdp: LocalSearchMdp, state: int, t: int) -> tuple[float, float]:
    """(exploration, exploitation) move mass of the policy at (state, t);
    stay mass is excluded from both."""
    _, gain, reached = mdp.move_gains([state])
    explore, exploit = _masses(policy.move_probabilities(gain, t, reached), gain)
    return float(explore[0]), float(exploit[0])


def exploration_ratio(policy: Policy, mdp: LocalSearchMdp, state: int, t: int) -> float:
    """Exploration mass / exploitation mass at (state, t), extended-real."""
    _, gain, reached = mdp.move_gains([state])
    return float(_ratios(policy, gain, reached, t)[0])


@dataclass(frozen=True)
class BalanceSeries:
    """A per-state balance series: the per-step exploration/exploitation
    ratios summed over t, with its verdict and the rule that decided it.

    `partial_sum` stands for the sum of the first `horizon` terms (NaN when
    the policy has no certificate).  `limit` stands for the series value
    when the verdict is `converged`, and is 0.0 for `zero`; each true value
    lies between the one given and that plus `tail_bound`.
    """

    partial_sum: float
    verdict: str
    limit: float | None
    tail_bound: float | None
    horizon: int
    rule: str


def balance_series(policy: Policy, mdp: LocalSearchMdp, state: int,
                   horizon: int = DEFAULT_HORIZON) -> BalanceSeries:
    """The balance series of one state: the exploration ratio summed over
    t = 0..horizon-1, and its verdict.

    The ratio is a per-state quantity (identical for every available action),
    so the uniform action average of per-action series collapses to the
    per-state series.  Verdicts:

    * ``zero``         every term is 0;
    * ``degenerate``   some term is +inf (exploration mass with no improving
                       move available, i.e. the state is a local maximum);
    * ``converged``    the series has a finite sum;
    * ``diverging``    it has none;
    * ``inconclusive`` the policy has no certificate — never silently
                       classified.

    A stationary policy's terms are one constant c, which decides ``zero``,
    ``degenerate`` or ``diverging``; a policy with a `balance_certificate`
    states its series in closed form.  A nonstationary policy without one
    gets ``inconclusive`` with the rule ``no-certificate``.
    """
    return classify(policy, mdp, horizon, [state]).series[state]


def _chunk_series(policy: Policy, gain: np.ndarray, reached: np.ndarray,
                  horizon: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(inverse, columns): row i of a move-gain table has series inverse[i]
    of the report columns `columns`.  A stationary policy is decided once
    per distinct constant term, any other once per distinct sorted gain row."""
    if policy.stationary:
        c, inverse = np.unique(_ratios(policy, gain, reached, 0), return_inverse=True)
        # c * horizon is the correctly rounded sum of `horizon` copies of c.
        certificate = SeriesCertificate(c, c * horizon, np.where(c > 0.0, math.inf, 0.0),
                                        np.zeros_like(c), "constant-term", "")
    else:
        profiles = np.sort(gain, axis=1)
        first, inverse = _distinct_rows(profiles)
        certificate = policy.balance_certificate(profiles[first], horizon)
        if certificate is None:  # one series, whose NaN floor fails the first four tests
            inverse = np.zeros(len(gain), dtype=np.intp)
            certificate = SeriesCertificate(*[np.full(1, math.nan)] * 4, "", "")
    floor, partial, limit, tail_bound = certificate[:4]
    # The first test that holds decides: a term is +inf, every term is 0,
    # the terms never fall below a positive floor, they vanish for good.
    code = np.select([floor == math.inf, limit == 0.0, floor > 0.0, floor <= 0.0], range(4), 4)
    verdict, rule = np.array([(DEGENERATE, ZERO, DIVERGING, CONVERGED, INCONCLUSIVE),
                              ("no-improving-move", "no-exploration", certificate.floor_rule,
                               certificate.limit_rule, "no-certificate")], dtype=object)[:, code]
    zero, converged = verdict == ZERO, verdict == CONVERGED
    partial = np.where(verdict == DEGENERATE, math.inf, np.where(zero, 0.0, partial))
    limit, tail_bound = np.where(zero, 0.0, np.where(converged, [limit, tail_bound], None))
    return inverse, {"delta_partial": partial, "delta_limit": limit, "tail_bound": tail_bound,
                     "verdict": verdict, "rule": rule}


def _distinct_rows(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the rows of `terms`, keyed by their bytes: row i
    equals row first[inverse[i]].  Equal bytes give equal verdicts."""
    rows = np.ascontiguousarray(terms)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


@dataclass(frozen=True)
class Classification:
    kind: str                 # exploitation-oriented | balanced | exploration-oriented | inconclusive
    constant: float | None    # the balanced limit C, None otherwise

    def describe(self) -> str:
        if self.kind == "balanced":
            return f"balanced (C={self.constant!r})"
        return self.kind


class _StateView(Mapping):
    """Read-only state -> value mapping over a report's columns, in sweep
    order; `value(k)` is the value of the k-th swept state."""

    def __init__(self, index: dict[int, int], value):
        self._index, self._value = index, value

    def __getitem__(self, state):
        return self._value(self._index[state])

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass
class CoefficientReport:
    """Per-state coefficients plus the aggregate orientation of a policy.

    Stored as columns: the k-th swept state, `states[k]`, has `up[k]`
    improving moves out of `moves` and balance series j = `series_id[k]`,
    whose `BalanceSeries` fields are `columns[name][j]` for "delta_partial"
    (float64), "verdict", "delta_limit", "tail_bound" and "rule" (objects).
    `fractions`, `convergence` and `series` are state -> value views.
    """

    states: list[int]
    moves: int
    up: np.ndarray
    series_id: np.ndarray
    columns: dict[str, np.ndarray]
    series_max: float | None
    classification: Classification
    horizon: int
    degenerate_states: list[int]
    inconclusive_states: list[int]

    CSV_HEADER = ("state", "alpha", "beta", "gamma", "delta_partial", "verdict")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {state: k for k, state in enumerate(self.states)}

    @property
    def fractions(self) -> Mapping[int, CountFractions]:
        return _StateView(self._index,
                          lambda k: _fractions(int(self.up[k]), self.moves, self.states[k]))

    @property
    def convergence(self) -> Mapping[int, float]:
        return _StateView(self._index, lambda k: gamma_from_counts(int(self.up[k]), self.moves))

    @property
    def series(self) -> Mapping[int, BalanceSeries]:
        def series(k):
            j, columns = self.series_id[k], self.columns
            return BalanceSeries(float(columns["delta_partial"][j]), columns["verdict"][j],
                                 columns["delta_limit"][j], columns["tail_bound"][j],
                                 self.horizon, columns["rule"][j])
        return _StateView(self._index, series)

    def table(self) -> Table:
        """The per-state rows keyed by state, one record per distinct
        (improving count, series) pair; `report.csv` and the `states` of
        `report.json` are written from it."""
        width = len(self.columns["rule"])
        pairs, codes = np.unique(self.up * width + self.series_id, return_inverse=True)
        ups, moves = pairs // width, self.moves
        # float(Fraction(a, b)) is a / b: both are a/b correctly rounded.
        return Table({"alpha": (moves - ups) / moves, "beta": ups / moves,
                      "gamma": extended_ratio(ups, moves - ups),
                      **{name: column[pairs % width] for name, column in self.columns.items()}},
                     codes=codes, keys=self.states)

    def to_json_dict(self) -> dict:
        return {
            "classification": {"kind": self.classification.kind,
                               "constant": self.classification.constant},
            "delta_star": self.series_max,
            "horizon": self.horizon,
            "degenerate_states": self.degenerate_states,
            "inconclusive_states": self.inconclusive_states,
            "states": self.table(),
        }


def improving_sweep(mdp: LocalSearchMdp) -> np.ndarray:
    """The improving-move count of every state, by move-gain tables of
    `SWEEP_CHUNK` states: the cap, then the price (a chunk's table at 4 words
    an entry, which no kernel reads, and 8 words a state), then the landscape."""
    mdp.check_exhaustive()
    size, d = mdp.num_states, mdp.degree
    check_memory(f"gamma of {size} states of {d} moves", masks=d,
                 words=4 * min(size, SWEEP_CHUNK) * d + 8 * size)
    mdp.landscape  # every chunk's table reads it
    chunks = (np.arange(lo, min(lo + SWEEP_CHUNK, size)) for lo in range(0, size, SWEEP_CHUNK))
    return np.concatenate([improving_counts(mdp.move_gains(chunk)[1]) for chunk in chunks])


def classify(policy: Policy, mdp: LocalSearchMdp,
             horizon: int = DEFAULT_HORIZON,
             states: Iterable[int] | None = None) -> CoefficientReport:
    """Sweep states, decide every balance series, and classify the policy.

    Orientation rules over the per-state verdicts:

    * any ``diverging``                      -> exploration-oriented;
    * else any ``inconclusive``              -> inconclusive (no verdict forced);
    * else any ``converged``                 -> balanced, C = max of the limits
      (``zero`` states contribute a limit of 0);
    * else all ``zero``                      -> exploitation-oriented.

    ``degenerate`` states (local maxima where exploration mass persists while
    no improving move exists, so the per-step ratio is +inf) are reported but
    excluded from the orientation; if every swept state is degenerate the
    policy explores by construction and is classified exploration-oriented.

    States are swept through move-gain tables of `SWEEP_CHUNK` states (read
    from the landscape when sweeping all), a state sampled twice once.  Each
    series is decided as in `balance_series`, once per chunk for all states
    with the same constant term (stationary policies) or the same sorted gain
    row (certified policies), so memory is O(chunk * moves) whatever the
    horizon.  Its horizon, cap, sample and price are checked, in that order,
    before the objective is evaluated.
    """
    check_at_least("horizon", horizon, 1)
    if states is None:
        mdp.check_exhaustive()  # before any state is built
        swept = np.arange(mdp.num_states)
    else:  # each state once, in order of first occurrence (a bare unique imports numpy.ma)
        swept = mdp.check_states(states)
        swept = swept[np.sort(np.unique(swept, return_index=True)[1])]
    if not swept.size:
        raise ValueError("empty state sample")
    rows, d = min(swept.size, SWEEP_CHUNK), mdp.degree
    if not d:
        raise UndefinedCoefficientError(f"state {swept[0]} has no moves")
    # A chunk's table and move probabilities (a policy decided per gain profile
    # also holds the sorted profiles, their byte keys and its certificate's
    # terms), and 12 words a state: the sample, its landscape, the columns and,
    # once the sweep is done, the report's list of states (4.5 words).
    certified = not policy.stationary
    check_memory(f"classify of {swept.size} states of {d} moves", entries=rows * d, masks=d,
                 words=rows * d * (4 if certified else 1) + 12 * swept.size)
    if swept.size == mdp.num_states and mdp.n <= EXHAUSTIVE_CAP:
        mdp.landscape  # a sample of every state is gathered as the full sweep is
    up, series_id, chunks = np.empty(swept.size, np.intp), np.empty(swept.size, np.intp), []
    for lo in range(0, swept.size, SWEEP_CHUNK):
        gain, reached = mdp.move_gains(swept[lo:lo + SWEEP_CHUNK])[1:]
        inverse, columns = _chunk_series(policy, gain, reached, horizon)
        up[lo:lo + SWEEP_CHUNK] = improving_counts(gain)
        series_id[lo:lo + SWEEP_CHUNK] = inverse + sum(len(c["rule"]) for c in chunks)
        chunks.append(columns)
        del gain, reached  # before the next chunk's table is built
    columns = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    del chunks  # before the report's list of states is built
    verdict = columns["verdict"]
    degenerate = swept[(verdict == DEGENERATE)[series_id]].tolist()
    inconclusive = swept[(verdict == INCONCLUSIVE)[series_id]].tolist()
    # Every series is some swept state's, so the rules can read the columns.
    found = set(verdict.tolist())
    converged_limits = columns["delta_limit"][verdict == CONVERGED].tolist()
    if DIVERGING in found:
        label = Classification("exploration-oriented", None)
    elif inconclusive:
        label = Classification("inconclusive", None)
    elif converged_limits:
        label = Classification("balanced", max(converged_limits))
    elif degenerate and len(degenerate) == swept.size:
        label = Classification("exploration-oriented", None)
    else:
        label = Classification("exploitation-oriented", None)
    if inconclusive:
        series_max = None
    elif found & {DIVERGING, DEGENERATE}:
        series_max = math.inf
    else:  # every limit is a float: zero's 0.0 or a converged limit
        series_max = max(columns["delta_limit"].tolist())
    return CoefficientReport(swept.tolist(), d, up, series_id, columns,
                             series_max, label, horizon, degenerate, inconclusive)


def decomposition_residual(policy: Policy, mdp: LocalSearchMdp, state: int, t: int) -> float:
    """Consistency residual of the exploration/exploitation mixture identity.

    The move-conditioned distribution must equal its exploration share times
    the conditional distribution over exploration moves plus the analogous
    exploitation part; stay mass is bookkeeping outside the decomposition.
    The exactness defect of the complementary count fractions is folded in,
    so a nonzero return flags either an inconsistent distribution or a broken
    partition.
    """
    _, gain, reached = mdp.move_gains([state])
    alpha, beta = _fractions(int(improving_counts(gain)[0]), gain.shape[1], state)
    residual = abs(float(alpha + beta - 1))
    p = policy.move_probabilities(gain, t, reached)
    explore, exploit = _masses(p, gain)
    move_mass = float(explore[0] + exploit[0])
    if move_mass == 0.0:
        return residual
    p = p[0]
    live = p > 0.0
    part = np.where(improving(gain[0]), exploit[0], explore[0])[live]  # mass of the move's kind
    rebuilt = (part / move_mass) * (p[live] / part)
    return residual + float(np.abs(p[live] / move_mass - rebuilt).sum())
