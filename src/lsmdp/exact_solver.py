"""Exact policy evaluation and optimal values on the move-gain table, with no
N x N matrix: a stationary sweep to its contraction bound, finite-horizon
backward induction and value iteration.  Dense `freeze`/`evaluate_stationary`
remain as the small-n oracle.  Every solver checks its arguments, then gets
its table from one gate, `_table`: the cap, its price, then the landscape."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import ResourceLimitError, check_at_least, check_memory
from .policies import Policy
from .search_space import LocalSearchMdp

ENUMERATION_LEAF_CAP = 10_000_000
STATIONARY_TOLERANCE = 2.0**-52  # relative sup-norm error of a table evaluation


def _table(mdp: LocalSearchMdp, what: str, kernel: bool = True, dense: bool = False):
    """The move-gain table of every state, once the exhaustive cap and the price
    pass: the [N, d] table, eight N-vectors, a kernel's probabilities if one
    reads it and, if dense, three N x N matrices (P, then I - discount * P)."""
    mdp.check_exhaustive()
    size, d = mdp.num_states, mdp.degree
    check_memory(f"{what} at n={mdp.n}", entries=size * d, masks=d,
                 words=size * ((d if kernel else 0) + 8 + (3 * size if dense else 0)))
    return mdp.move_gains()


@dataclass
class PolicyMatrices:
    """Row-stochastic transition matrix and expected one-step reward vector of
    a policy frozen at time t (stay mass lands on the diagonal)."""

    P: np.ndarray
    r: np.ndarray
    t: int


def _transitions(policy: Policy, gain: np.ndarray, reached: np.ndarray, t: int):
    """(p, stay, r) of the policy at time t: move probabilities, stay mass
    and expected one-step reward of every row of a move-gain table."""
    p = policy.move_probabilities(gain, t, reached)
    return p, np.maximum(0.0, 1.0 - p.sum(axis=1)), (p * gain).sum(axis=1)


def _backup(p, stay, r, nbr: np.ndarray, v: np.ndarray, discount: float) -> np.ndarray:
    """One backup r + discount * (sum(p * v[nbr]) + stay * v) of `_transitions`."""
    return r + discount * (np.einsum("ij,ij->i", p, v[nbr]) + stay * v)


def freeze(policy: Policy, mdp: LocalSearchMdp, t: int = 0) -> PolicyMatrices:
    """The policy's kernel applied to the move-gain table of every state."""
    check_at_least("time index", t)
    nbr, gain, reached = _table(mdp, "dense solve", dense=True)
    p, stay, r = _transitions(policy, gain, reached, t)
    P = np.zeros((mdp.num_states, mdp.num_states))
    np.put_along_axis(P, nbr, p, axis=1)
    np.fill_diagonal(P, stay)
    return PolicyMatrices(P=P, r=r, t=t)


@dataclass
class ValueVector:
    """Expected-total-reward vector over all states."""

    v: np.ndarray
    discount: float
    method: str
    residual: float | None = None
    horizon: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "discount": self.discount,
            "method": self.method,
            "residual": self.residual,
            "horizon": self.horizon,
            "values": self.v,
        }


def evaluate_stationary(matrices: PolicyMatrices, discount: float) -> ValueVector:
    """Total expected discounted reward of the frozen policy from every state:
    the linear fixed point v = r + discount*P*v for a discount in [0, 1),
    solved directly.  The sup-norm fixed-point residual is reported on the
    result.
    """
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {discount!r}")
    P, r = matrices.P, matrices.r
    a = np.eye(len(r))
    a -= discount * P  # in place: three N x N arrays at most, P included
    v = np.linalg.solve(a, r)
    residual = float(np.max(np.abs(v - (r + discount * (P @ v)))))
    return ValueVector(v=v, discount=discount, method="policy_eval", residual=residual)


def evaluate_stationary_table(policy: Policy, mdp: LocalSearchMdp,
                              discount: float) -> ValueVector:
    """Discounted value of a stationary policy by repeated backups from v = 0
    (Puterman 1994, sec. 6.3), stopping when the contraction bound discount *
    delta / (1 - discount) is STATIONARY_TOLERANCE * |v| or less (chains that
    keep moving seldom reach it) or after k sweeps with discount**k <=
    STATIONARY_TOLERANCE: that bounds the truncation error by
    STATIONARY_TOLERANCE * |v*|; rounding adds about 2**-52 * |v*| / (1 - discount)."""
    if not policy.stationary:
        raise ValueError("the table sweep evaluates stationary policies only")
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {discount!r}")
    nbr, gain, reached = _table(mdp, "table solve")
    frozen = _transitions(policy, gain, reached, 0)
    v = np.zeros(mdp.num_states)
    limit = math.ceil(math.log(STATIONARY_TOLERANCE) / math.log(discount)) if discount else 1
    for _ in range(limit):
        new = _backup(*frozen, nbr, v, discount)
        delta = float(np.max(np.abs(new - v)))
        v = new
        if discount * delta <= STATIONARY_TOLERANCE * (1.0 - discount) * np.max(np.abs(v)):
            break
    residual = float(np.max(np.abs(v - _backup(*frozen, nbr, v, discount))))
    return ValueVector(v=v, discount=discount, method="policy_eval", residual=residual)


def evaluate_nonstationary(policy: Policy, mdp: LocalSearchMdp, horizon: int,
                           discount: float) -> ValueVector:
    """Exact finite-horizon value by backward induction (Puterman 1994,
    ch. 4): with the policy frozen at each t, v_t = r_t + discount * P_t v_{t+1}
    from v_horizon = 0 down to t = 0.  P_t v is read off the move-gain
    table, built once: sum(p * v[nbr]) + stay * v, with no N x N matrix."""
    check_at_least("horizon", horizon)
    if not 0.0 <= discount <= 1.0:
        raise ValueError(f"discount must lie in [0, 1], got {discount!r}")
    nbr, gain, reached = _table(mdp, "table solve")
    v = np.zeros(mdp.num_states)
    frozen = _transitions(policy, gain, reached, 0) if policy.stationary else None
    for t in reversed(range(horizon)):
        v = _backup(*(frozen or _transitions(policy, gain, reached, t)), nbr, v, discount)
    return ValueVector(v=v, discount=discount, method="policy_eval_finite", horizon=horizon)


def value_iteration(mdp: LocalSearchMdp, discount: float,
                    tolerance: float = 1e-10) -> tuple[ValueVector, np.ndarray]:
    """Optimal values over all moves plus an explicit stay action (reward 0).

    The stay action realizes voluntary termination, so every randomization
    over moving and staying — hence every built-in policy — is dominated by
    the returned values.  Iterates until the contraction bound guarantees the
    sup-norm error is below `tolerance`.  Returns (values, next_state):
    next_state[i] is the state the greedy action moves i to, i itself for
    stay; ties prefer stay, then the lowest-numbered neighbor.
    """
    if not 0.0 < discount < 1.0:
        raise ValueError(f"value iteration needs discount in (0, 1), got {discount!r}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    nbr, gain = _table(mdp, "value iteration", kernel=False)[:2]
    v = np.zeros(mdp.num_states)
    threshold = tolerance * (1.0 - discount) / discount
    for _ in range(1_000_000):
        new = np.maximum(discount * v, (gain + discount * v[nbr]).max(axis=1, initial=-np.inf))
        delta = float(np.max(np.abs(new - v)))
        v = new
        if delta <= threshold:
            break
    else:
        raise RuntimeError("value iteration failed to converge")
    # The first maximal move in ascending neighbor order, and only when it
    # beats staying strictly.
    q = gain + discount * v[nbr]
    next_state = np.arange(mdp.num_states)  # stay
    if q.shape[1]:
        best = q.argmax(axis=1)
        move = q.max(axis=1) > discount * v
        next_state[move] = nbr[move, best[move]]
    vec = ValueVector(v=v, discount=discount, method="value_iteration", residual=delta)
    return vec, next_state


def enumerate_trajectories(policy: Policy, mdp: LocalSearchMdp, start: int,
                           horizon: int, discount: float = 1.0) -> float:
    """Exact expected total (discounted) reward by expanding every branch of
    the decision tree — no matrices, no memoization, so it serves as an
    independent oracle for both evaluators."""
    check_at_least("horizon", horizon)
    mdp.check_state(start)
    branching = mdp.degree + 1
    if branching ** horizon > ENUMERATION_LEAF_CAP:
        raise ResourceLimitError(
            f"enumeration would expand about {branching}**{horizon} leaves "
            f"(cap {ENUMERATION_LEAF_CAP})")

    def expand(state: int, t: int) -> float:
        if t == horizon:
            return 0.0
        dist = policy.action_distribution(mdp, state, t)
        total = 0.0
        if dist.stay_probability > 0.0:
            total += dist.stay_probability * discount * expand(state, t + 1)
        current = mdp.value(state)
        for move, p in dist.entries:
            total += p * (mdp.value(move.dst) - current + discount * expand(move.dst, t + 1))
        return total

    return expand(start, 0)
