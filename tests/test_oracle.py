"""The array-backed paths against the scalar reference in reference.py.

Objectives, neighborhoods and policies are drawn by hypothesis over n <= 7
(n <= 8 for rollouts, n <= 10 for reachable sets).  Counts (alpha, beta, gamma) and verdicts must agree
exactly (a certified series also decides where the heuristic judge is
inconclusive); sums may differ in the last bits because numpy and `math.fsum` add
in different orders, so they get tolerances fixed here: partial sums 1e-12
relative, P and r 1e-12, finite-horizon values 1e-10, table-swept stationary
values 1e-11 of their sup norm against the dense solve.  Optimal values,
batch objective values and lockstep rollouts must equal their scalar
counterparts exactly.
"""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

import reference
from lsmdp import coefficients, simulator
from lsmdp.cli import _reachable_states
from lsmdp.cli import main as cli_main
from lsmdp.coefficients import (CONVERGED, DIVERGING, INCONCLUSIVE, BalanceSeries,
                                balance_series, classify, exploration_ratio)
from lsmdp.exact_solver import (enumerate_trajectories, evaluate_nonstationary,
                                evaluate_stationary, evaluate_stationary_table, freeze,
                                value_iteration)
from lsmdp.objectives import (CnfInstance, Objective, cnf_objective, make_leading_ones,
                              make_nk_landscape, make_onemax, make_trap, parse_objective)
from lsmdp.policies import SeriesCertificate, SimulatedAnnealing, choose, parse_policy
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp
from lsmdp.serialize import csv_text, dumps_json
from lsmdp.simulator import (generate_records, run_trajectory, simulate_batch,
                             simulate_batches)
from lsmdp.streams import DRAW_BLOCK

POLICIES = ["hc", "hc:literal", "walk", "metropolis:T=1", "sa:T0=2,rate=0",
            "sa:T0=2,rate=0.5", "sa:T0=10,rate=0.9", "sa:T0=10,rate=0.99"]


@st.composite
def landscapes(draw, max_bits=7):
    n = draw(st.integers(1, max_bits))
    family = draw(st.sampled_from(["onemax", "trap", "leading_ones", "nk", "maxsat"]))
    if family == "onemax":
        objective = make_onemax(n)
    elif family == "trap":
        objective = make_trap(n, draw(st.sampled_from([k for k in range(1, n + 1)
                                                       if n % k == 0])))
    elif family == "leading_ones":
        objective = make_leading_ones(n)
    elif family == "nk":
        objective = make_nk_landscape(n, draw(st.integers(0, n - 1)),
                                      draw(st.integers(0, 2**16)))
    else:
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3).map(tuple),
                                min_size=1, max_size=8))
        objective = cnf_objective(CnfInstance(n, tuple(clauses)))
    distance = draw(st.sampled_from([1, 2] if n >= 2 else [1]))
    return LocalSearchMdp(objective, HammingNeighborhood(distance))


def uncertified(policy):
    if isinstance(policy, SimulatedAnnealing):
        return reference.UncertifiedAnnealing(policy.t0, policy.cooling_rate)
    return policy


def extinct_step(policy):
    """The first t at which an annealing temperature T0 * rate**t underflows
    to 0.0 (rate > 0), else inf.  From there on the float kernel accepts no
    plateau or worsening move, so the terms the judge sees die out, while
    the mathematical series the certificate states has T_t > 0 for every t:
    horizons past this step are outside the comparison."""
    if not isinstance(policy, SimulatedAnnealing) or policy.cooling_rate == 0.0:
        return math.inf
    hi = 1
    while policy.temperature(hi) > 0.0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if policy.temperature(mid) > 0.0 else (lo, mid)
    return hi


def assert_agrees_with_judge(series, expected):
    """A certified series against the heuristic judge on the same horizon:
    the certificate always decides, and wherever the judge decides too the
    verdicts are equal.  A converged limit lies within the judge's tail
    bound (plus a few ulps) of the judge's partial sum."""
    assert math.isclose(series.partial_sum, expected.partial_sum, rel_tol=1e-12)
    assert series.verdict != INCONCLUSIVE
    if expected.verdict == INCONCLUSIVE:
        return
    assert series.verdict == expected.verdict
    if expected.verdict == CONVERGED:
        assert (abs(series.limit - expected.partial_sum)
                <= expected.tail_bound + 4 * math.ulp(expected.partial_sum))


def assert_series_match_reference(report, policy, mdp, horizon):
    """Every state's series in `report` against the scalar judge: the same
    verdict, limit and tail bound for stationary policies wherever the judge
    decides (one constant term decides nothing at horizon 1), and the
    property above for certified annealing; annealing without its
    certificate is inconclusive by the rule `no-certificate`.  The masses
    are summed in another order, so partial sums agree to 1e-12."""
    for state in range(mdp.num_states):
        series = report.series[state]
        if isinstance(policy, reference.UncertifiedAnnealing):
            assert (series.verdict, series.rule) == (INCONCLUSIVE, "no-certificate")
            assert math.isnan(series.partial_sum)
            continue
        expected = reference.balance_series(policy, mdp, state, horizon, 1e-9)
        if policy.stationary:
            assert math.isclose(series.partial_sum, expected.partial_sum, rel_tol=1e-12)
            if expected.verdict == INCONCLUSIVE:
                assert (horizon, series.verdict) == (1, DIVERGING)
            else:
                assert (series.verdict, series.limit, series.tail_bound) == \
                    (expected.verdict, expected.limit, expected.tail_bound)
        else:
            assert_agrees_with_judge(series, expected)


@settings(max_examples=200, deadline=None)
@given(landscapes(), st.sampled_from(POLICIES), st.sampled_from([1, 2, 25, 120, 300]),
       st.booleans())
def test_classify_matches_scalar_sweep(mdp, descriptor, horizon, certified):
    # Certified annealing is held to `assert_agrees_with_judge`: wherever
    # the judge decides, the verdicts agree.
    policy = parse_policy(descriptor)
    assert horizon <= extinct_step(policy)
    if not certified:
        policy = uncertified(policy)
    report = classify(policy, mdp, horizon=horizon)
    if isinstance(policy, reference.UncertifiedAnnealing):
        assert report.classification.kind == "inconclusive"
    for state in range(mdp.num_states):
        up, total = reference.count_fractions(mdp, state)
        assert report.fractions[state] == (Fraction(total - up, total), Fraction(up, total))
        expected_gamma = (0.0 if up == 0 else math.inf if up == total else up / (total - up))
        assert report.convergence[state] == expected_gamma
    assert_series_match_reference(report, policy, mdp, horizon)


def scaled_onemax(n, scale):
    """onemax with every gain scaled: moves gain +-scale."""
    return Objective(n, lambda x: scale * x.bit_count(), f"onemax*{scale!r}", None)


@pytest.mark.parametrize("objective, policy", [
    # Cooling rate 0: T_t = 0 from t = 1 on, on plateaus too.
    (make_leading_ones(5), SimulatedAnnealing(2.0, 0.0)),
    (make_trap(6, 3), SimulatedAnnealing(2.0, 0.0)),
    (make_onemax(5), SimulatedAnnealing(2.0, 0.0)),
    # Plateaus: the floor z/u.
    (make_leading_ones(6), SimulatedAnnealing(2.0, 0.5)),
    (make_trap(6, 3), SimulatedAnnealing(10.0, 0.9)),
    (make_trap(6, 6), SimulatedAnnealing(1.0, 0.7)),
    # Local maxima: degenerate states.
    (make_nk_landscape(6, 2, 3), SimulatedAnnealing(1.0, 0.8)),
    (make_nk_landscape(7, 6, 11), SimulatedAnnealing(0.05, 0.95)),
    # exp(g / T0) around its underflow: subnormal terms, and terms that are
    # 0 from the start.
    (make_onemax(5), SimulatedAnnealing(1 / 740, 0.99)),
    (make_onemax(5), SimulatedAnnealing(1 / 720, 0.999)),
    (make_onemax(5), SimulatedAnnealing(1 / 700, 0.99)),
    (make_onemax(5), SimulatedAnnealing(1 / 746, 0.9)),
    (scaled_onemax(5, 730.0), SimulatedAnnealing(1.0, 0.99)),
    (scaled_onemax(5, 1e-300), SimulatedAnnealing(1e-303, 0.5)),
    (make_leading_ones(5), SimulatedAnnealing(1e-300, 0.5)),
], ids=lambda value: getattr(value, "descriptor", None))
def test_certificate_edges_agree_with_the_judge(objective, policy):
    mdp = LocalSearchMdp(objective)
    for horizon in [h for h in (1, 2, 12, 60, 400) if h <= extinct_step(policy)]:
        report = classify(policy, mdp, horizon=horizon)
        assert report.inconclusive_states == []
        assert_series_match_reference(report, policy, mdp, horizon)


def e1_bracket(policy, gains, m):
    """[lo, hi] around the balance series of a state with move gains `gains`
    and no plateau move, whose terms are sum_g exp(g / T_t) / u: the first
    m terms summed by `math.fsum`, and the rest bounded by an integral.
    With a = |g| / T0 and lambda = -ln r, exp(-a e^(lambda t)) falls in t,
    so its sum over t >= m lies in [E1(x) / lambda, E1(x) / lambda + exp(-x)]
    at x = a e^(lambda m)."""
    up = sum(g > 0 for g in gains)
    worse = [g for g in gains if g < 0]
    t0, r = policy.t0, policy.cooling_rate
    lam = -math.log(r)
    head = [math.exp(g / (t0 * r**t)) for t in range(m) for g in worse]
    x = [-g / t0 * math.exp(lam * m) for g in worse]
    integral = [float(exp1(v)) / lam for v in x]
    return (math.fsum(head + integral) / up,
            math.fsum(head + integral + [math.exp(-v) for v in x]) / up)


@pytest.mark.parametrize("objective", ["onemax:n=4", "onemax:n=5", "onemax:n=6",
                                       "trap:n=6,k=3", "leading_ones:n=5"])
@pytest.mark.parametrize("descriptor", ["sa:T0=10,rate=0.999", "sa:T0=1,rate=0.9999"])
def test_cut_off_sum_brackets_the_series(objective, descriptor):
    # With the work cap at 2**20 the explicit sum stops by step 2**20 // 1001,
    # long before the terms underflow; every verdict is still decided, and
    # each converged state's [limit, limit + tail_bound] holds the E1
    # bracket of the series from m = 2**20 // 1000 + 1 terms on.
    mdp = LocalSearchMdp(parse_objective(objective))
    policy = parse_policy(descriptor)
    cap = 1 << 20
    with mock.patch("lsmdp.policies.CERTIFICATE_WORK_CAP", cap):
        report = classify(policy, mdp)
        assert_series_match_reference(report, policy, mdp, 200)
    assert report.inconclusive_states == []
    _, gain, _ = mdp.move_gains()
    for state, series in report.series.items():
        if series.verdict != CONVERGED or series.rule == "no-exploration":
            continue
        lo, hi = e1_bracket(policy, gain[state].tolist(), cap // 1000 + 1)
        slack = 8 * math.ulp(hi)
        assert series.limit <= lo + slack
        assert hi <= series.limit + series.tail_bound + slack
    if objective.startswith("leading_ones"):
        assert report.classification.kind == "exploration-oriented"
        assert any((s.verdict, s.rule) == (DIVERGING, "plateau-floor")
                   for s in report.series.values())


@settings(max_examples=150, deadline=None)
@given(landscapes(), st.sampled_from(POLICIES), st.sampled_from([1, 25, 120]),
       st.sampled_from([1, 3, 7]))
def test_classify_series_equal_per_state_series(mdp, descriptor, horizon, chunk):
    # Small chunks put states with equal series in different chunks.
    policy = parse_policy(descriptor)
    with mock.patch.object(coefficients, "SWEEP_CHUNK", chunk):
        report = classify(policy, mdp, horizon=horizon)
    for state in range(mdp.num_states):
        assert report.series[state] == balance_series(policy, mdp, state, horizon)


@st.composite
def palette_landscapes(draw):
    """Landscapes over n <= 5 bits whose values come from a small palette,
    so one table mixes plateau moves, local maxima (no improving move) and
    gains of +-1000, whose annealing and Metropolis terms underflow to 0."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -1000.0, 1000.0]),
                           min_size=2**n, max_size=2**n))
    distance = draw(st.sampled_from([1, 2] if n >= 2 else [1]))
    return LocalSearchMdp(Objective(n, values.__getitem__, "palette"), HammingNeighborhood(distance))


def scalar_series(policy, mdp, state, horizon):
    """One state's balance series by the scalar verdict rule on that state's
    own certificate, or its constant term's."""
    if isinstance(policy, reference.UncertifiedAnnealing):
        return BalanceSeries(math.nan, INCONCLUSIVE, None, None, horizon, "no-certificate")
    if policy.stationary:
        c = np.array([exploration_ratio(policy, mdp, state, 0)])
        certificate = SeriesCertificate(c, c * horizon, np.where(c > 0.0, math.inf, 0.0),
                                        np.zeros(1), "constant-term", "")
    else:
        _, gain, _ = mdp.move_gains([state])
        certificate = policy.balance_certificate(np.sort(gain, axis=1), horizon)
    return reference.certified(certificate, horizon)[0]


@settings(max_examples=200, deadline=None)
@given(palette_landscapes(), st.sampled_from(POLICIES), st.sampled_from([1, 25, 120]),
       st.booleans())
def test_series_columns_equal_the_scalar_rule(mdp, descriptor, horizon, certified):
    # Reprs compare NaN partial sums and the sign of zeros exactly.
    policy = parse_policy(descriptor) if certified else uncertified(parse_policy(descriptor))
    report = classify(policy, mdp, horizon=horizon)
    states = list(range(mdp.num_states))
    expected = [scalar_series(policy, mdp, state, horizon) for state in states]
    for state in states:
        assert repr(report.series[state]) == repr(expected[state])
        assert repr(balance_series(policy, mdp, state, horizon)) == repr(expected[state])
    assert (report.classification.kind, report.classification.constant, report.series_max,
            report.degenerate_states, report.inconclusive_states) == \
        reference.orientation(states, expected)
    assert dumps_json(report.to_json_dict()) == \
        reference.dumps_json(reference.report_json_dict(report))
    assert csv_text(report.CSV_HEADER, report.table()) == \
        reference.csv_text(report.CSV_HEADER, reference.report_csv_rows(report))


@settings(max_examples=150, deadline=None)
@given(landscapes(), st.sampled_from(POLICIES), st.integers(0, 40))
def test_freeze_matches_per_move_loop(mdp, descriptor, t):
    policy = parse_policy(descriptor)
    frozen = freeze(policy, mdp, t)
    P, r = reference.freeze(policy, mdp, t)
    assert np.max(np.abs(frozen.P - P)) <= 1e-12
    assert np.max(np.abs(frozen.r - r)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(landscapes(), st.sampled_from(POLICIES), st.integers(0, 12),
       st.sampled_from([0.9, 1.0]), st.data())
def test_backward_values_match_forward_and_enumeration(mdp, descriptor, horizon,
                                                       discount, data):
    policy = parse_policy(descriptor)
    backward = evaluate_nonstationary(policy, mdp, horizon, discount).v
    forward = reference.evaluate_nonstationary(policy, mdp, horizon, discount)
    assert np.max(np.abs(backward - forward)) <= 1e-10
    branching = len(mdp.neighbors(0)) + 1
    short = min(horizon, 3 if branching <= 8 else 2)
    start = data.draw(st.integers(0, mdp.num_states - 1))
    expanded = enumerate_trajectories(policy, mdp, start, short, discount)
    assert abs(evaluate_nonstationary(policy, mdp, short, discount).v[start]
               - expanded) <= 1e-10


def assert_table_matches_dense(policy, mdp, discount):
    table = evaluate_stationary_table(policy, mdp, discount)
    dense = evaluate_stationary(freeze(policy, mdp, 0), discount)
    scale = max(1.0, float(np.max(np.abs(dense.v))))
    assert np.max(np.abs(table.v - dense.v)) <= 1e-11 * scale
    assert table.residual <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(landscapes(), st.sampled_from(["hc", "hc:literal", "walk", "metropolis:T=1"]),
       st.sampled_from([0.0, 0.5, 0.9, 0.99]))
def test_table_sweep_equals_dense_solve(mdp, descriptor, discount):
    assert_table_matches_dense(parse_policy(descriptor), mdp, discount)


def test_table_sweep_on_a_periodic_chain():
    # Literal hill climbing on trap plateaus alternates between states, so
    # the sweep converges no faster than discount**k and runs to its limit.
    assert_table_matches_dense(parse_policy("hc:literal"), LocalSearchMdp(make_trap(8, 4)),
                               0.999)


@settings(max_examples=100, deadline=None)
@given(landscapes(), st.sampled_from([0.5, 0.9, 0.99]))
def test_value_iteration_equals_scalar_sweep(mdp, discount):
    optimal, next_state = value_iteration(mdp, discount)
    v, residual, expected_next_state = reference.value_iteration(mdp, discount)
    assert optimal.v.tolist() == v
    assert optimal.residual == residual
    assert next_state.tolist() == expected_next_state


def test_zero_temperature_plateaus(tmp_path):
    # rate=0 leaves T_t = 0 for t >= 1; leading_ones has plateau moves, where a
    # naive exp(gain / T) is 0/0.
    mdp = LocalSearchMdp(make_leading_ones(4))
    policy = parse_policy("sa:T0=1,rate=0")
    report = classify(policy, mdp)
    for state in range(mdp.num_states):
        expected = reference.balance_series(policy, mdp, state, 200, 1e-9)
        assert report.series[state].verdict == expected.verdict
        assert math.isclose(report.series[state].partial_sum, expected.partial_sum,
                            rel_tol=1e-12)
    assert cli_main(["classify", "--objective", "leading_ones:n=4", "--policy",
                     "sa:T0=1,rate=0", "--out", str(tmp_path)]) == 0

    def reject(token):
        raise ValueError(f"report.json holds {token}")

    json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    for t in range(4):
        P = freeze(policy, mdp, t).P
        assert np.all(np.isfinite(P))
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(landscapes(), st.data())
def test_gathered_table_equals_evaluated_table(mdp, data):
    # The table gathered from the landscape, for a sample or for every state,
    # is bit for bit the table of one batch objective call.
    sample = data.draw(st.lists(st.integers(0, mdp.num_states - 1), max_size=20))
    for states, gathered in ((sample, mdp.move_gains(sample, mdp.landscape)),
                             (range(mdp.num_states), mdp.move_gains())):
        evaluated = mdp.move_gains(list(states))
        for mine, theirs in zip(gathered, evaluated):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("bad", [-1, 2**6])
def test_sample_states_checked_before_indexing(bad):
    mdp = LocalSearchMdp(make_onemax(6))
    with pytest.raises(ValueError):
        classify(parse_policy("hc"), mdp, states=[1, bad])


def test_sampled_states_beyond_the_sweep_cap():
    mdp = LocalSearchMdp(make_trap(40, 4))
    states = [int(s) for s in np.random.default_rng(3).integers(0, 2**40, 8)]
    policy = parse_policy("sa:T0=5,rate=0.9")
    report = classify(policy, mdp, states=states)
    assert report.states == states
    for state in states:
        expected = reference.balance_series(policy, mdp, state, 200, 1e-9)
        assert report.series[state].verdict == expected.verdict
        assert math.isclose(report.series[state].partial_sum, expected.partial_sum,
                            rel_tol=1e-12)


def test_hill_climbing_ties_use_values_not_rounded_gains():
    # From f = 1e16, the moves to f = 1.0 and f = 0.5 both round to gain -1e16;
    # only the first is an argmax neighbor.
    values = {0b00: 1e16, 0b01: 1.0, 0b10: 0.5, 0b11: 0.0}
    mdp = LocalSearchMdp(Objective(2, values.__getitem__, "rounding", None))
    _, gain, _ = mdp.move_gains([0])
    assert gain[0, 0] == gain[0, 1]
    literal = parse_policy("hc:literal")
    assert [(move.dst, p) for move, p in literal.action_distribution(mdp, 0, 0).entries] == \
        [(0b01, 1.0)]
    P, r = reference.freeze(literal, mdp, 0)
    frozen = freeze(literal, mdp, 0)
    assert np.array_equal(frozen.P, P) and np.array_equal(frozen.r, r)


@st.composite
def wide_objectives(draw):
    """Every objective family up to n = 63 (nk up to n = 10, where its
    tables stay small), with repeated and contradictory CNF literals."""
    family = draw(st.sampled_from(["onemax", "trap", "leading_ones", "nk", "maxsat"]))
    n = draw(st.integers(1, 10 if family == "nk" else 63))
    if family == "onemax":
        return make_onemax(n)
    if family == "trap":
        return make_trap(n, draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0])))
    if family == "leading_ones":
        return make_leading_ones(n)
    if family == "nk":
        k = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
        return make_nk_landscape(n, k, draw(st.integers(0, 2**16)))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4).map(tuple),
                            min_size=1, max_size=8))
    return cnf_objective(CnfInstance(n, tuple(clauses)))


def assert_batch_matches_scalar(objective, states):
    expected = np.array([objective.fn(s) for s in states], dtype=float)
    assert objective.values(np.array(states, dtype=np.int64)).tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(wide_objectives(), st.lists(st.integers(0, 2**63 - 1), max_size=30))
def test_batch_objective_equals_scalar(objective, raw):
    top = (1 << objective.n) - 1
    states = [s & top for s in raw] + [0, top]
    if objective.n == 63:
        states += [s | (1 << 62) for s in raw]
    assert_batch_matches_scalar(objective, states)


@pytest.mark.parametrize("objective", [
    make_onemax(63), make_leading_ones(63), make_trap(63, 1), make_trap(63, 7),
    make_trap(63, 9), make_trap(63, 63), make_trap(62, 31),
    cnf_objective(CnfInstance(63, ((63,), (-63, 1), (62, -62), (-1, -2, -63)))),
    make_nk_landscape(10, 9, 4), make_nk_landscape(1, 0, 4),
])
def test_batch_objective_edges(objective):
    rng = np.random.default_rng(11)
    n = objective.n
    top = (1 << n) - 1
    states = [int(s) & top for s in rng.integers(0, 2**63 - 1, 200, dtype=np.int64)]
    if n == 63:
        states += [s | (1 << 62) for s in states] + [1 << 62, top, top ^ 1]
    # Random states almost never fill a wide block, so add states made of
    # whole aligned blocks, for every width that divides n, alone and over
    # random bits.
    noisy = states[:20]
    for width in [w for w in range(1, n + 1) if n % w == 0]:
        for pick, noise in zip(rng.integers(0, 2, (20, n // width)), noisy):
            filled = sum(((1 << width) - 1) << (b * width) for b in np.flatnonzero(pick).tolist())
            states += [filled, filled | noise, filled ^ (1 << int(rng.integers(n)))]
    assert_batch_matches_scalar(objective, states + [0, top])


def test_plain_objective_calls_fn_once_per_distinct_state():
    calls = []

    def fn(x):
        calls.append(x)
        return x / 3

    objective = Objective(5, fn, "plain", None)
    assert objective.values([4, 1, 4, 31]).tolist() == [4 / 3, 1 / 3, 4 / 3, 31 / 3]
    assert sorted(calls) == [1, 4, 31]


ROLLOUT_POLICIES = ["hc", "hc:literal", "walk", "metropolis:T=1", "sa:T0=2,rate=0",
                    "sa:T0=2,rate=0.5", "sa:T0=10,rate=0.99"]


def assert_lockstep_equals_scalar_loop(mdp, descriptor, horizon, count, base_seed, data):
    start = data.draw(st.one_of(st.just("uniform"), st.integers(0, mdp.num_states - 1)))
    policy = parse_policy(descriptor)
    records = generate_records(policy, mdp, start, horizon, count, base_seed)
    expected = reference.generate_records(policy, mdp, start, horizon, count, base_seed)
    assert len(records) == count
    for record, oracle in zip(records, expected):
        assert (record.seed, record.start) == (oracle.seed, oracle.start)
        assert record.steps == oracle.steps
        assert record.best_so_far == oracle.best_so_far
        assert record.terminated_at == oracle.terminated_at
        # A batch of one walks the same path as the batch it came from.
        assert run_trajectory(policy, mdp, record.start, horizon, record.seed) == record


@settings(max_examples=150, deadline=None)
@given(landscapes(max_bits=8), st.sampled_from(ROLLOUT_POLICIES), st.integers(0, 40),
       st.integers(0, 6), st.integers(0, 2**32), st.data())
def test_lockstep_rollouts_equal_scalar_loop(mdp, descriptor, horizon, count, base_seed,
                                             data):
    assert_lockstep_equals_scalar_loop(mdp, descriptor, horizon, count, base_seed, data)


# Horizons at and past the block of uniforms drawn per trajectory at a time.
BLOCK_HORIZONS = [DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 8]


@settings(max_examples=12, deadline=None)
@given(landscapes(max_bits=8), st.sampled_from(ROLLOUT_POLICIES),
       st.sampled_from(BLOCK_HORIZONS), st.integers(1, 3), st.integers(0, 2**32), st.data())
def test_lockstep_rollouts_across_draw_blocks_equal_scalar_loop(mdp, descriptor, horizon, count,
                                                                base_seed, data):
    assert_lockstep_equals_scalar_loop(mdp, descriptor, horizon, count, base_seed, data)


# Cold metropolis and annealing reject most proposals and stay for long
# runs, zero-temperature annealing and hc:literal freeze on plateaus, hc
# stops, and the walk moves every step.
STAY_MIX = ["metropolis:T=0.05", "sa:T0=2,rate=0.9", "sa:T0=2,rate=0", "hc:literal", "hc",
            "walk"]


@pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
# nk n=40 is the landscape of the CI `stays` rerun, which checks only that
# a rerun reproduces its files.
@pytest.mark.parametrize("objective", ["trap:n=8,k=4", "nk:n=8,k=3,seed=2",
                                       "nk:n=40,k=3,seed=1"])
def test_stayed_rows_keep_their_table(objective, horizon):
    # One lockstep over rows that stay, move or stop: a row that stayed
    # reuses its move-gain table, which must leave every path as the
    # scalar loop walks it.
    mdp = LocalSearchMdp(parse_objective(objective))
    policies = [parse_policy(descriptor) for descriptor in STAY_MIX]
    batches = simulate_batches(policies, mdp, "uniform", horizon, 3, 11, keep_steps=True)
    for descriptor, policy, batch in zip(STAY_MIX, policies, batches):
        expected = reference.generate_records(policy, mdp, "uniform", horizon, 3, 11)
        assert batch.records == expected, descriptor
    stays = batches[0].steps.dst == -1
    assert np.count_nonzero(stays) > stays.size // 2  # the cold rows mostly stay


def assert_fused_equals_one_batch_per_policy(mdp, descriptors, keep_steps, horizon, count,
                                             base_seed, chunk, data):
    start = data.draw(st.one_of(st.just("uniform"), st.integers(0, mdp.num_states - 1)))
    policies = [parse_policy(descriptor) for descriptor in descriptors]
    policies += data.draw(st.sampled_from([[], policies[:1]]))  # the same object twice
    alone = [simulate_batch(policy, mdp, start, horizon, count, base_seed, keep_steps)
             for policy in policies]
    # Small chunks end inside a policy's block of rows.
    with mock.patch.object(simulator, "SWEEP_CHUNK", chunk):
        fused = simulate_batches(policies, mdp, start, horizon, count, base_seed, keep_steps)
    assert len(fused) == len(policies)
    for batch, expected in zip(fused, alone):
        assert (batch.seeds, batch.starts) == (expected.seeds, expected.starts)
        for name in ("best", "explore", "exploit"):
            assert np.array_equal(getattr(batch, name), getattr(expected, name)), name
        assert (batch.steps is None) == (not keep_steps)
        if keep_steps:
            for name, array, oracle in zip(batch.steps._fields, batch.steps, expected.steps):
                assert np.array_equal(array, oracle), name


@settings(max_examples=150, deadline=None)
@given(landscapes(max_bits=8), st.lists(st.sampled_from(ROLLOUT_POLICIES), min_size=1,
                                        max_size=4),
       st.booleans(), st.integers(0, 40), st.integers(0, 6), st.integers(0, 2**32),
       st.sampled_from([1, 3, 7, simulator.SWEEP_CHUNK]), st.data())
def test_fused_batches_equal_one_batch_per_policy(mdp, descriptors, keep_steps, horizon, count,
                                                  base_seed, chunk, data):
    assert_fused_equals_one_batch_per_policy(mdp, descriptors, keep_steps, horizon, count,
                                             base_seed, chunk, data)


@settings(max_examples=12, deadline=None)
@given(landscapes(max_bits=8), st.lists(st.sampled_from(ROLLOUT_POLICIES), min_size=1,
                                        max_size=4),
       st.booleans(), st.sampled_from(BLOCK_HORIZONS), st.integers(1, 3), st.integers(0, 2**32),
       st.sampled_from([1, 3, simulator.SWEEP_CHUNK]), st.data())
def test_fused_batches_across_draw_blocks_equal_one_batch_per_policy(
        mdp, descriptors, keep_steps, horizon, count, base_seed, chunk, data):
    assert_fused_equals_one_batch_per_policy(mdp, descriptors, keep_steps, horizon, count,
                                             base_seed, chunk, data)


@settings(max_examples=200, deadline=None)
@given(wide_objectives(), st.sampled_from([1, 2]), st.lists(st.integers(0, 2**63 - 1),
                                                           min_size=1, max_size=12))
def test_step_table_equals_move_gains(objective, distance, raw):
    # The engine's table, built from states it made and the values they
    # carry, is bit for bit the checked table of `move_gains`.
    mdp = LocalSearchMdp(objective, HammingNeighborhood(min(distance, objective.n)))
    states = np.array([s & (mdp.num_states - 1) for s in raw], dtype=np.int64)
    current = np.array([mdp.value(s) for s in states.tolist()])
    table = simulator._step_table(objective.values, mdp.criterion.masks(mdp.n), states, current)
    for mine, theirs in zip(table, mdp.move_gains(states)):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
# Ties, the infinities and NaN; zeros of one sign only, since a sort and
# numpy's partition may order equal zeros of both signs differently.
QUANTILE_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
                             st.floats(allow_nan=False).map(lambda x: x + 0.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.data())
def test_quantiles_equal_np_quantile(count, width, data):
    entries = data.draw(st.lists(QUANTILE_ENTRIES, min_size=count * width,
                                 max_size=count * width))
    matrix = np.array(entries).reshape(count, width)
    got = simulator._quantiles(np.sort(matrix, axis=0), QUANTILES)
    got_column = simulator._quantiles(np.sort(matrix[:, 0]), QUANTILES)
    with np.errstate(invalid="ignore"):
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            expected = np.quantile(matrix, q, axis=0)
            assert got[key].dtype == expected.dtype and got[key].shape == expected.shape
            assert got[key].tobytes() == expected.tobytes(), key
            assert got_column[key].tobytes() == np.quantile(matrix[:, 0], q).tobytes(), key


@st.composite
def move_probability_rows(draw):
    """Rows of move probabilities: NaN entries, rows of zero mass, rows of
    mass below, at and above 1, and draws that equal a running sum."""
    d = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.just(math.nan), st.just(1.0 / d),
                      st.floats(0.0, 1.0, allow_subnormal=False))
    probabilities = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                           min_size=1, max_size=8)))
    uniform = st.floats(0.0, 1.0, exclude_max=True)
    draws = []
    for row in np.cumsum(probabilities, axis=1).tolist():
        sums = [x for x in row if 0.0 <= x < 1.0]
        draws.append(draw(st.one_of(uniform, st.sampled_from(sums)) if sums else uniform))
    return probabilities, np.array(draws)


@settings(max_examples=300, deadline=None)
@given(move_probability_rows())
def test_engine_choice_equals_choose_moves(rows):
    probabilities, draws = rows
    k, d = probabilities.shape
    base = np.arange(0, k * d, d)
    flat, moved = choose(np.cumsum(probabilities, axis=1), draws, base)
    assert np.array_equal(np.where(moved, flat - base, -1),
                          reference.choose_moves(probabilities, draws))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, 2**n - 1))))
def test_reachable_states_equal_the_breadth_first_closure(case):
    n, distance, start = case
    mdp = LocalSearchMdp(make_onemax(n), HammingNeighborhood(distance))
    assert _reachable_states(mdp, start) == reference.reachable_states(n, distance, start)
