"""Outside-in span tracer: times lsmdp's layers without changing lsmdp.

`install` replaces each traced function or method with a timing wrapper, in
every lsmdp module namespace that bound it by name (`cli.freeze` and
`exact_solver.freeze` are two names for one function, and both are patched).
Spans nest on one stack, so a span's self time is its duration minus the
time of the spans it caused, and the wrappers' own bookkeeping is charged to
neither.  Spans are aggregated by name in memory and read out once, at the
end of the run.

Span names are `<module>.<function>`; several functions can share one span
name (`coefficients.partition` covers `count_fractions` and
`convergence_coefficient`).  Counters sum a quantity over the calls of a span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self._children = [0.0]                 # per open span: time its children took

    def wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(args, kwargs, result)` runs
        after the span closes and returns {counter: increment}."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            children.append(0.0)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children.pop()
                if returned and count is not None:
                    for key, value in count(args, kwargs, result).items():
                        counters[key] += value
                children[-1] += clock() - entered
            return result

        return functools.update_wrapper(traced, fn)

    def snapshot(self) -> dict:
        return {"spans": {name: {"calls": calls, "total_s": total, "self_s": own}
                          for name, (calls, total, own) in sorted(self.spans.items())},
                "counters": dict(sorted(self.counters.items()))}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _move_entries(args, kwargs, dist):
    return {"policies.move_entries": len(dist.entries)}


def _sweep(args, kwargs, report):
    return {"coefficients.states_swept": len(report.states),
            "coefficients.inconclusive_states": len(report.inconclusive_states)}


def _dense_bytes(args, kwargs, matrices):
    # Computed, not measured: one float64 N x N transition matrix per freeze.
    size = _arg(args, kwargs, 1, "mdp").num_states
    return {"exact_solver.dense_bytes": size * size * 8}


def _steps(args, kwargs, record):
    return {"simulator.steps": len(record.steps)}


def _bytes_written(args, kwargs, result):
    return {"serialize.bytes_written": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap every traced lsmdp function and method; import lsmdp.cli first."""
    from lsmdp import (cli, coefficients, exact_solver, objectives, policies, search_space,
                       serialize, simulator)

    methods = [("objectives.eval", objectives.Objective, "__call__", None),
               ("search_space.value", search_space.LocalSearchMdp, "value", None),
               ("search_space.neighbors", search_space.LocalSearchMdp, "neighbors", None)]
    pending = list(policies.Policy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if "action_distribution" in vars(cls):
            methods.append(("policies.action_distribution", cls, "action_distribution",
                            _move_entries))
    for name, cls, attr, count in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], count))

    functions = [
        ("policies.step", policies.step, None),
        ("coefficients.exploration_ratio", coefficients.exploration_ratio, None),
        ("coefficients.balance_series", coefficients.balance_series, None),
        ("coefficients.partition", coefficients.count_fractions, None),
        ("coefficients.partition", coefficients.convergence_coefficient, None),
        ("coefficients.classify", coefficients.classify, _sweep),
        ("exact_solver.freeze", exact_solver.freeze, _dense_bytes),
        ("exact_solver.evaluate_nonstationary", exact_solver.evaluate_nonstationary, None),
        ("exact_solver.evaluate_stationary", exact_solver.evaluate_stationary, None),
        ("exact_solver.value_iteration", exact_solver.value_iteration, None),
        ("simulator.generate_records", simulator.generate_records, None),
        ("simulator.run_trajectory", simulator.run_trajectory, _steps),
        ("simulator.summarize", simulator.summarize_records, None),
        ("simulator.summarize", simulator.best_so_far_curve, None),
        ("serialize.format", serialize.csv_text, None),
        ("serialize.format", serialize.dumps_json, None),
        ("serialize.format", serialize.dumps_json_line, None),
        ("serialize.write", serialize.atomic_write_text, _bytes_written),
        ("cli", cli.main, None),
    ]
    modules = [module for key, module in sys.modules.items()
               if key == "lsmdp" or key.startswith("lsmdp.")]
    for name, fn, count in functions:
        traced = tracer.wrap(name, fn, count)
        bound = [(module, attr) for module in modules
                 for attr, value in vars(module).items() if value is fn]
        if not bound:
            raise RuntimeError(f"{fn.__qualname__} is bound in no lsmdp module")
        for module, attr in bound:
            setattr(module, attr, traced)
