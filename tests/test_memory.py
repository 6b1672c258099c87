"""The one memory model against tracemalloc: on every path that prices its
arrays through `objectives.check_memory`, the bytes it prices lie within 1x
to 2x of the path's traced peak."""

import gc
import tracemalloc

import numpy.ma  # noqa: F401 -- a bare np.unique imports it on first use; no path prices imports
import pytest

from lsmdp import cli, coefficients, exact_solver, objectives, search_space, simulator
from lsmdp.objectives import check_memory as price
from lsmdp.objectives import make_nk_landscape, parse_objective
from lsmdp.policies import parse_policy
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp
from lsmdp.streams import Uniforms


def mdp(descriptor, distance=1):
    return LocalSearchMdp(parse_objective(descriptor), HammingNeighborhood(distance))


def solve(solver, descriptor, distance, policy):
    space, policy = mdp(descriptor, distance), parse_policy(policy)
    return {"freeze": lambda: exact_solver.evaluate_stationary(
                exact_solver.freeze(policy, space), 0.9),
            "stationary": lambda: exact_solver.evaluate_stationary_table(policy, space, 0.9),
            "nonstationary": lambda: exact_solver.evaluate_nonstationary(policy, space, 20, 0.9),
            "optimal": lambda: exact_solver.value_iteration(space, 0.9)}[solver]


def rollouts(descriptor, distance, policies, seeds, horizon, keep=False):
    space, policies = mdp(descriptor, distance), [parse_policy(p) for p in policies]

    def run():
        for batch in simulator.simulate_batches(policies, space, "uniform", horizon, seeds, 0,
                                                keep):
            simulator.summarize_records(batch, 1, space.objective.known_optimum)
            simulator.best_so_far_curve(batch)
    return run


def gamma(tmp_path, descriptor, distance):
    argv = ["gamma", "--objective", descriptor, "--neighborhood", f"hamming:{distance}",
            "--out", str(tmp_path)]
    resolved = cli._resolve(cli._build_parser().parse_args(argv))
    return lambda: cli.cmd_gamma(resolved, {"csv", "json"})


# Each path on two shapes: a thunk that builds its inputs and returns the run.
PATHS = {
    "freeze onemax:n=8": lambda tmp: solve("freeze", "onemax:n=8", 1, "sa:T0=10,rate=0.9"),
    "freeze nk:n=9": lambda tmp: solve("freeze", "nk:n=9,k=3,seed=1", 1, "walk"),
    "stationary onemax:n=12": lambda tmp: solve("stationary", "onemax:n=12", 1, "walk"),
    "stationary trap:n=12 hamming:2": lambda tmp: solve("stationary", "trap:n=12,k=4", 2,
                                                        "metropolis:T=1"),
    "nonstationary onemax:n=10 hamming:3": lambda tmp: solve("nonstationary", "onemax:n=10", 3,
                                                             "sa:T0=10,rate=0.9"),
    "nonstationary nk:n=12": lambda tmp: solve("nonstationary", "nk:n=12,k=3,seed=1", 1,
                                               "sa:T0=10,rate=0.9"),
    "optimal onemax:n=12": lambda tmp: solve("optimal", "onemax:n=12", 1, "walk"),
    "optimal trap:n=12 hamming:2": lambda tmp: solve("optimal", "trap:n=12,k=4", 2, "walk"),
    "classify onemax:n=14": lambda tmp: lambda: coefficients.classify(
        parse_policy("sa:T0=10,rate=0.9"), mdp("onemax:n=14")),
    "classify nk:n=13": lambda tmp: lambda: coefficients.classify(
        parse_policy("sa:T0=10,rate=0.9"), mdp("nk:n=13,k=3,seed=1")),
    "gamma onemax:n=14": lambda tmp: gamma(tmp, "onemax:n=14", 1),
    "gamma nk:n=13 hamming:2": lambda tmp: gamma(tmp, "nk:n=13,k=3,seed=1", 2),
    "trace onemax:n=12": lambda tmp: lambda: coefficients.convergence_trace(
        parse_policy("walk"), mdp("onemax:n=12"), 0, 5000, Uniforms(0)),
    "trace trap:n=12": lambda tmp: lambda: coefficients.convergence_trace(
        parse_policy("walk"), mdp("trap:n=12,k=4"), 0, 10000, Uniforms(0)),
    "rollout trap:n=40 H=10000": lambda tmp: rollouts("trap:n=40,k=4", 1,
                                                      ["sa:T0=5,rate=0.9999"], 100, 10000),
    "rollout onemax:n=12 hamming:3": lambda tmp: rollouts("onemax:n=12", 3, ["walk"], 100, 100),
    "rollout trap:n=40 kept steps": lambda tmp: rollouts(
        "trap:n=40,k=4", 1, ["hc", "walk", "sa:T0=5,rate=0.995", "metropolis:T=1"], 25, 1000,
        keep=True),
    "trajectory trap:n=40": lambda tmp: lambda: simulator.run_trajectory(
        parse_policy("walk"), mdp("trap:n=40,k=4"), 0, 1000, 1),
    "trajectory onemax:n=12 hamming:6": lambda tmp: lambda: simulator.run_trajectory(
        parse_policy("walk"), mdp("onemax:n=12", 6), 0, 100, 1),
    "nk tables n=12 k=9": lambda tmp: lambda: make_nk_landscape(12, 9, 1),
    "nk tables n=14 k=12": lambda tmp: lambda: make_nk_landscape(14, 12, 1),
    "reachable onemax:n=14": lambda tmp: lambda: cli._reachable_states(mdp("onemax:n=14"), 0),
    "reachable onemax:n=13 hamming:2": lambda tmp: lambda: cli._reachable_states(
        mdp("onemax:n=13", 2), 0),
}


@pytest.mark.parametrize("path", PATHS)
def test_the_price_bounds_the_peak(tmp_path, monkeypatch, path):
    priced = []

    def check_memory(what, **shapes):
        priced.append(price(what, **shapes))
        return priced[-1]

    for module in (objectives, coefficients, exact_solver, simulator, cli):
        monkeypatch.setattr(module, "check_memory", check_memory)
    run = PATHS[path](tmp_path / "out")
    priced.clear()
    search_space._hamming_masks.cache_clear()  # every path prices the masks it builds
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= 100_000
    assert peak <= max(priced) <= 2 * peak
