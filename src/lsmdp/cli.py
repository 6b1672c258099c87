"""Command-line experiment harness.

Wires objectives, neighborhoods, policies, analyses, and solvers into
reproducible runs: every command writes machine-readable outputs plus a
manifest.ini holding the full resolved configuration, seeds, and artifact
version.  Rerunning a command with ``--config <manifest.ini>`` reproduces
the outputs byte for byte.

Exit codes: 0 success, 1 usage/config error, 2 inconclusive analysis,
3 resource limit.
"""

from __future__ import annotations

import argparse
import atexit
import configparser
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import (classify, convergence_trace, extended_ratio, improving_sweep,
                           price_trace)
from .exact_solver import evaluate_nonstationary, evaluate_stationary_table, value_iteration
from .objectives import check_at_least, parse_objective
from .policies import parse_policy
from .search_space import LocalSearchMdp, ResourceLimitError, parse_criterion
from .serialize import (Table, atomic_write, atomic_write_text, csv_fragments, dumps_json_line,
                        json_fragments)
from .simulator import best_so_far_curve, check_rollout, simulate_batches, summarize_records
from .streams import Uniforms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_RESOURCE = 3

OUTPUT_DIR_ENV = "LSMDP_OUT"
_FORMATS = ("csv", "json", "both")


class UsageError(ValueError):
    pass


_POLICY_HELP = "policy descriptor: hc | hc:literal | sa:T0=10,rate=0.9 | walk | metropolis:T=1"
# Every option of every command as (name, default, help).  A None default
# marks a required option, "false" a switch, and () a required repeatable
# option whose i-th value is the [run] key `<name>_<i>`.  The flag is
# --<name> with dashes; --help adds each non-empty default to the help.
_SHARED = (
    ("objective", None, "objective descriptor: onemax:n=8 | leading_ones:n=8 | trap:n=8,k=4 | "
                        "nk:n=12,k=3,seed=7 | maxsat:path=f.cnf (bit b holds CNF variable b+1)"),
    ("neighborhood", "hamming:1", "neighborhood descriptor"),
    ("out", "lsmdp_out", f"output directory, ${OUTPUT_DIR_ENV} if set"),
    ("format", "both", "output formats: csv | json | both"),
)
_ROLLOUT = (
    ("start", "uniform", "fixed start state (int) or 'uniform'"),
    ("horizon", "1000", "steps per trajectory"),
    ("seeds", "100", "number of seeded trajectories"),
    ("base_seed", "0", "root seed for trajectory derivation"),
    ("bucket_width", "1", "time bucket width for the diagnostics"),
    ("emit_trajectories", "false", "also stream trajectories to trajectories.jsonl"),
)
_OPTIONS = {  # command: (help, options)
    "classify": ("orientation classification of a policy", _SHARED + (
        ("policy", None, _POLICY_HELP),
        ("horizon", "200", "series truncation horizon"),
        ("reachable_from", "", "restrict the sweep to states reachable from this start"))),
    "gamma": ("per-state convergence coefficient table", _SHARED + (
        ("policy", "", _POLICY_HELP),
        ("start", "", "also trace a trajectory from this state (needs --policy)"),
        ("t_max", "50", "trace length"),
        ("seed", "0", "trace RNG seed"))),
    "value": ("policy evaluation vs optimal values", _SHARED + (
        ("policy", None, _POLICY_HELP),
        ("discount", "0.9", "discount factor"),
        ("horizon", "200", "evaluation horizon for nonstationary policies"))),
    "simulate": ("seeded Monte-Carlo rollouts",
                 _SHARED + (("policy", None, _POLICY_HELP),) + _ROLLOUT),
    "compare": ("rollouts for several policies on one objective",
                _SHARED + (("policy", (), "policy descriptor (repeatable)"),) + _ROLLOUT),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap onto this CLI's contract.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    # No abbreviations: a prefix of one option (gamma's --seed for --seeds)
    # would otherwise run as that option.
    parser = _Parser(prog="lsmdp", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _OPTIONS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="INI file; [run] keys supply defaults, flags override")
        for name, default, text in options:
            action = {(): "append", "false": "store_true"}.get(default, "store")
            p.add_argument(_flag(name), action=action, default=None,
                           help=f"{text} (default {default})" if default else text)
    return parser


def _load_config(path: str) -> dict[str, str]:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    if not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    cfg.read(path, encoding="utf-8")
    if "run" not in cfg:
        raise UsageError(f"config file {path} has no [run] section")
    return dict(cfg["run"])


def _repeatable(name: str, values: list[str] | None, config: dict[str, str]) -> dict[str, str]:
    """The `<name>_<i>` keys of a repeatable option: its flags' values in
    argument order, else the config's `<name>_<i>` values in the order of i."""
    if not values:
        indices = {}
        for key in config:
            if key.startswith(name + "_"):
                if not key[len(name) + 1:].isdecimal():
                    raise UsageError(f"config key {key!r} is not {name}_<index>")
                indices[key] = int(key[len(name) + 1:])
        values = [config[key] for key in sorted(indices, key=indices.__getitem__)]
    if not values:
        raise UsageError(f"missing required option {_flag(name)}")
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise UsageError(f"{name} {repeated[0]!r} is given more than once")
    return {f"{name}_{i}": value for i, value in enumerate(values)}


def _resolve(args) -> dict[str, str]:
    """Merge flags over the [run] keys of --config over the table's defaults
    ($LSMDP_OUT, when set, over the default of `out`); a config key that is
    no option of the command is an error."""
    config = _load_config(args.config) if args.config else {}
    options = _OPTIONS[args.command][1]
    for key in config:
        if not any(key.startswith(name + "_") if default == () else key == name
                   for name, default, _ in options):
            raise UsageError(f"config key {key!r} is not an option of {args.command}")
    resolved = {}
    for name, default, _ in options:
        value = getattr(args, name)
        if default == ():
            resolved.update(_repeatable(name, value, config))
            continue
        if name == "out":
            default = os.environ.get(OUTPUT_DIR_ENV, default)
        if value is None:
            value = config.get(name, default)
        if value is None:
            raise UsageError(f"missing required option {_flag(name)}")
        resolved[name] = "true" if value is True else value
    return resolved


def _int_opt(resolved, key):
    try:
        value = int(resolved[key])
    except ValueError:
        raise UsageError(f"option {key} must be an integer, got {resolved[key]!r}") from None
    if value < 0 and key in ("seed", "base_seed"):  # the entropy of numpy's SeedSequence
        raise UsageError(f"option {key} must be a non-negative integer, got {resolved[key]!r}")
    return value


def _float_opt(resolved, key):
    try:
        return float(resolved[key])
    except ValueError:
        raise UsageError(f"option {key} must be a number, got {resolved[key]!r}") from None


def _formats(resolved) -> set[str]:
    fmt = resolved["format"]
    if fmt not in _FORMATS:
        raise UsageError(f"unknown format {fmt!r}, expected one of {', '.join(_FORMATS)}")
    return {"csv", "json"} if fmt == "both" else {fmt}


def _outdir(resolved) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_mdp(resolved) -> LocalSearchMdp:
    mdp = LocalSearchMdp(parse_objective(resolved["objective"]),
                         parse_criterion(resolved["neighborhood"]))
    if not mdp.degree:
        raise ValueError(f"neighborhood {mdp.criterion.descriptor} gives no moves at n={mdp.n}")
    return mdp


def _write_manifest(outdir: Path, command: str, resolved: dict[str, str]) -> None:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg["meta"] = {"artifact_version": __version__, "command": command}
    cfg["run"] = dict(sorted(resolved.items()))
    buf = io.StringIO()
    cfg.write(buf)
    atomic_write_text(outdir / "manifest.ini", buf.getvalue())


def cmd_classify(resolved, formats) -> int:
    horizon = _int_opt(resolved, "horizon")
    check_at_least("horizon", horizon, 1)
    mdp = _build_mdp(resolved)
    policy = parse_policy(resolved["policy"])
    states = None
    if resolved["reachable_from"]:
        states = mdp.reachable_states(_int_opt(resolved, "reachable_from"))
    report = classify(policy, mdp, horizon=horizon, states=states)
    outdir = _outdir(resolved)
    if "json" in formats:
        atomic_write(outdir / "report.json", json_fragments(report.to_json_dict()))
    if "csv" in formats:
        atomic_write(outdir / "report.csv", csv_fragments(report.CSV_HEADER, report.table()))
    _write_manifest(outdir, "classify", resolved)
    print(report.classification.describe())
    return EXIT_INCONCLUSIVE if report.classification.kind == "inconclusive" else EXIT_OK


def cmd_gamma(resolved, formats) -> int:
    policy = parse_policy(resolved["policy"]) if resolved["policy"] else None
    if resolved["start"] and policy is None:
        raise UsageError("option --start needs --policy")
    seed, t_max = _int_opt(resolved, "seed"), _int_opt(resolved, "t_max")
    check_at_least("t_max", t_max)
    mdp = _build_mdp(resolved)
    start = mdp.check_state(_int_opt(resolved, "start")) if resolved["start"] else None
    mdp.check_exhaustive()
    if start is not None:
        price_trace(mdp, t_max)
    ups = improving_sweep(mdp)  # its price, then the landscape the trace's steps read
    trace = None if start is None else convergence_trace(policy, mdp, start, t_max, Uniforms(seed))
    local_max, downs = (ups == 0).tolist(), mdp.degree - ups
    table = Table({"f": mdp.landscape, "improving": ups, "non_improving": downs,
                   "gamma": extended_ratio(ups, downs), "local_max": local_max},
                  keys=range(mdp.num_states))
    outdir = _outdir(resolved)
    header = ("state", "f", "improving", "non_improving", "gamma", "local_max")
    if "csv" in formats:
        atomic_write(outdir / "gamma.csv", csv_fragments(header, table))
    payload = {"states": table}
    if trace is not None:
        payload["trace"] = {"states": list(trace.states), "gamma": list(trace.values),
                            "first_zero": trace.first_zero, "seed": seed}
        if "csv" in formats:
            steps = Table({"state": trace.states, "gamma": trace.values},
                          keys=range(len(trace.states)))
            atomic_write(outdir / "trace.csv", csv_fragments(("t", "state", "gamma"), steps))
        print(f"trace first_zero={trace.first_zero}")
    else:
        print(f"{sum(local_max)} local maxima over {mdp.num_states} states")
    if "json" in formats:
        atomic_write(outdir / "gamma.json", json_fragments(payload))
    _write_manifest(outdir, "gamma", resolved)
    return EXIT_OK


def cmd_value(resolved, formats) -> int:
    discount = _float_opt(resolved, "discount")
    if not 0.0 < discount < 1.0:
        raise ValueError(f"value needs discount in (0, 1), got {discount!r}")
    horizon = _int_opt(resolved, "horizon")
    check_at_least("horizon", horizon)
    mdp = _build_mdp(resolved)
    policy = parse_policy(resolved["policy"])
    if policy.stationary:
        policy_values = evaluate_stationary_table(policy, mdp, discount)
    else:
        policy_values = evaluate_nonstationary(policy, mdp, horizon, discount)
    optimal_values, next_state = value_iteration(mdp, discount)
    states = range(mdp.num_states)
    gap = optimal_values.v - policy_values.v
    outdir = _outdir(resolved)
    if "csv" in formats:
        # One `mdp.value` a state, which reads the landscape the solves built:
        # bench/run.py --trace 1 divides by the count of these calls.
        values = Table({"f": [mdp.value(i) for i in states], "v_policy": policy_values.v,
                        "v_optimal": optimal_values.v, "gap": gap}, keys=states)
        atomic_write(outdir / "value.csv",
                     csv_fragments(("state", "f", "v_policy", "v_optimal", "gap"), values))
        atomic_write(outdir / "greedy.csv", csv_fragments(
            ("state", "next_state"), Table({"next_state": next_state}, keys=states)))
    if "json" in formats:
        greedy = [(i, j) if j != i else None for i, j in enumerate(next_state.tolist())]
        atomic_write(outdir / "value.json", json_fragments({
            "policy": policy_values.to_json_dict(),
            "optimal": optimal_values.to_json_dict(),
            "greedy": Table(greedy, keys=states),
        }))
    _write_manifest(outdir, "value", resolved)
    print(f"max optimality gap {max(gap.tolist())!r}")
    return EXIT_OK


def _policy_table(descriptors, blocks) -> Table:
    """Each policy's block of columns (a dict of equal-length arrays, ranges
    or lists), stacked in order into one array per column under a coded
    `policy` column, one record per policy."""
    lengths = [len(next(iter(block.values()))) for block in blocks]
    columns = {"policy": Table(descriptors, codes=np.repeat(np.arange(len(blocks)), lengths))}
    for name in blocks[0]:
        columns[name] = np.concatenate([block[name] for block in blocks])
    return Table(columns)


def _write_sim_outputs(outdir, formats, named_runs, emit):
    """named_runs: list of (descriptor, rollouts, summary)."""
    descriptors = [descriptor for descriptor, _, _ in named_runs]
    if "csv" in formats:
        summary_rows = [(descriptor,) + summary.csv_row() for descriptor, _, summary in named_runs]
        header = ("policy",) + named_runs[0][2].CSV_HEADER
        atomic_write(outdir / "summary.csv", csv_fragments(header, summary_rows))
        best, explore, seeds = [], [], []
        for _, batch, summary in named_runs:
            means, quartiles = best_so_far_curve(batch)
            best.append(dict(t=range(len(means)), mean=means, p25=quartiles.get("p25", ()),
                             p50=quartiles.get("p50", ()), p75=quartiles.get("p75", ())))
            ends = np.arange(1, len(summary.exploration_fraction) + 1) * summary.bucket_width
            explore.append(dict(bucket=range(ends.size), t_lo=ends - summary.bucket_width,
                                t_hi=np.minimum(ends, summary.horizon) - 1,
                                exploration_fraction=summary.exploration_fraction,
                                exploration_ratio=summary.exploration_ratio))
            # Seeds are 64-bit unsigned: a column of them must not fall back to float.
            seeds.append(dict(index=range(len(batch)), seed=np.array(batch.seeds, dtype=np.uint64),
                              start=batch.starts))
        for name, blocks in (("plot_best.csv", best), ("plot_explore.csv", explore),
                             ("seeds.csv", seeds)):
            atomic_write(outdir / name, csv_fragments(("policy",) + tuple(blocks[0]),
                                                      _policy_table(descriptors, blocks)))
    if "json" in formats:
        atomic_write(outdir / "summary.json", json_fragments(
            {descriptor: summary.to_json_dict() for descriptor, _, summary in named_runs}))
    if emit:  # one trajectory's line at a time
        atomic_write(outdir / "trajectories.jsonl",
                     (dumps_json_line(dict(batch.trajectory_json(k), policy=descriptor))
                      for descriptor, batch, _ in named_runs for k in range(len(batch))))


def cmd_rollouts(resolved, formats) -> int:
    """`simulate` (key `policy`) and `compare` (keys `policy_<i>`): the numbers
    are checked before the objective, the start before any trajectory runs."""
    single = "policy" in resolved
    descriptors = [value for key, value in resolved.items() if key.startswith("policy")]
    horizon, seeds, base_seed, bucket_width = (
        _int_opt(resolved, key) for key in ("horizon", "seeds", "base_seed", "bucket_width"))
    check_rollout(horizon, seeds, bucket_width)
    mdp = _build_mdp(resolved)
    policies = [parse_policy(descriptor) for descriptor in descriptors]
    start_rule = resolved["start"]
    if start_rule != "uniform":
        try:
            start_rule = int(start_rule)
        except ValueError:
            raise UsageError(f"start must be an int state or 'uniform', got {start_rule!r}") from None
    emit = resolved["emit_trajectories"] == "true"
    batches = simulate_batches(policies, mdp, start_rule, horizon, seeds, base_seed,
                               keep_steps=emit)
    named_runs = [(descriptor, batch, summarize_records(batch, bucket_width,
                                                         mdp.objective.known_optimum))
                  for descriptor, batch in zip(descriptors, batches)]
    outdir = _outdir(resolved)
    _write_sim_outputs(outdir, formats, named_runs, emit)
    _write_manifest(outdir, "simulate" if single else "compare", resolved)
    for descriptor, _, summary in named_runs:
        print(f"{'' if single else descriptor + ': '}hit_rate={summary.hit_rate!r} "
              f"best_final_mean={summary.best_final_mean!r}")
    return EXIT_OK


_COMMANDS = {"classify": cmd_classify, "gamma": cmd_gamma, "value": cmd_value,
             "simulate": cmd_rollouts, "compare": cmd_rollouts}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved = _resolve(args)
        return _COMMANDS[args.command](resolved, _formats(resolved))
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The console entry: `main`, the exit handlers, a flush of stdout and
    stderr, and `os._exit` with main's code, skipping interpreter teardown.
    A flush that fails ends the run through `sys.exit`, as before."""
    code = main()
    atexit._run_exitfuncs()  # the interpreter's order: handlers, then the flush
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None when its fd is closed
            stream.flush()
    except (OSError, ValueError):  # a full device, or a stream closed by the command
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
