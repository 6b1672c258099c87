"""Correctness checks on the files lsmdp writes, computed by the benchmark.

The checks recompute what they can from an independent implementation of
the objectives (onemax and the seeded NK landscape; hamming:1 moves), so a
wrong program output counts as a failed command however fast it was.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Command

# lsmdp memoizes values and neighbor lists only up to this many bits.
MEMO_MAX_BITS = 16

EXPECTED_FILES = {
    "classify": {"manifest.ini", "report.csv", "report.json"},
    "value": {"manifest.ini", "value.csv", "greedy.csv", "value.json"},
    "simulate": {"manifest.ini", "summary.csv", "summary.json", "plot_best.csv",
                 "plot_explore.csv", "seeds.csv"},
}
EXPECTED_FILES["compare"] = EXPECTED_FILES["simulate"]

# The paper's orientation of each policy family; `inconclusive` (exit 2) is
# the documented outcome when the horizon cannot decide, never a failure.
EXPECTED_VERDICT = {"hc": "exploitation-oriented", "sa": "balanced",
                    "walk": "exploration-oriented", "metropolis": "exploration-oriented"}

EXIT_OK, EXIT_INCONCLUSIVE = 0, 2


def _params(descriptor: str) -> tuple[str, dict[str, int]]:
    head, _, argstr = descriptor.partition(":")
    return head, {k: int(v) for k, v in (kv.split("=") for kv in argstr.split(",") if kv)}


def bits(descriptor: str) -> int:
    return _params(descriptor)[1]["n"]


def objective_values(descriptor: str) -> list[float]:
    """f over all 2**n states, for the objectives of the exact workloads."""
    head, p = _params(descriptor)
    n = p["n"]
    if head == "onemax":
        return [float(x.bit_count()) for x in range(1 << n)]
    if head == "nk":
        k = p["k"]
        tables = np.random.default_rng(p["seed"]).random((n, 1 << (k + 1))).tolist()
        values = []
        for x in range(1 << n):
            total = 0.0
            for i in range(n):
                idx = 0
                for j in range(k + 1):
                    idx |= ((x >> ((i + j) % n)) & 1) << j
                total += tables[i][idx]
            values.append(total)
        return values
    raise ValueError(f"no reference implementation for objective {descriptor!r}")


def improving_counts(f: list[float], n: int) -> list[int]:
    """Number of strictly improving hamming:1 neighbors of every state."""
    return [sum(f[x ^ (1 << b)] > f[x] for b in range(n)) for x in range(len(f))]


def gain_profiles(f: list[float], n: int) -> int:
    """Distinct sorted neighbor-gain vectors over all states."""
    return len({tuple(sorted(f[x ^ (1 << b)] - f[x] for b in range(n))) for x in range(len(f))})


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative path."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


class Checker:
    """Checks one workload's outputs; caches the reference objective values."""

    def __init__(self):
        self._values: dict[str, list[float]] = {}
        self._improving: dict[str, list[int]] = {}

    def values(self, descriptor: str) -> list[float]:
        if descriptor not in self._values:
            self._values[descriptor] = objective_values(descriptor)
        return self._values[descriptor]

    def improving(self, descriptor: str) -> list[int]:
        if descriptor not in self._improving:
            self._improving[descriptor] = improving_counts(self.values(descriptor),
                                                           bits(descriptor))
        return self._improving[descriptor]

    def check(self, command: Command, outdir: Path, returncode: int) -> tuple[list[str], dict]:
        """(problems, facts) for one invocation; facts carries the classify
        sweep counts behind decided_frac."""
        if not outdir.is_dir():
            return [f"exit {returncode}, no output directory"], {}
        files = {p.name for p in outdir.iterdir()}
        expected = set(EXPECTED_FILES[command.kind])
        if command.option("emit-trajectories") is not None:
            expected.add("trajectories.jsonl")
        if files != expected:
            return [f"output files {sorted(files)} != expected {sorted(expected)}"], {}
        check = getattr(self, f"_check_{command.kind}")
        return check(command, outdir, returncode)

    def _check_classify(self, command, outdir, returncode):
        problems = []
        n = bits(command.objective)
        f = self.values(command.objective)
        improving = self.improving(command.objective)
        rows = _rows(outdir / "report.csv")
        if [int(r["state"]) for r in rows] != list(range(1 << n)):
            return ["report.csv does not list every state once in order"], {}
        for r in rows:
            state = int(r["state"])
            up = improving[state]
            alpha, beta, gamma = float(r["alpha"]), float(r["beta"]), float(r["gamma"])
            if (alpha, beta) != (float(Fraction(n - up, n)), float(Fraction(up, n))):
                problems.append(f"state {state}: alpha, beta = {alpha!r}, {beta!r}; "
                                f"{up} of {n} neighbors improve")
            elif abs(alpha + beta - 1.0) > 2.0 ** -52:
                problems.append(f"state {state}: alpha + beta = {alpha + beta!r}")
            if (gamma == 0.0) != (up == 0):
                problems.append(f"state {state}: gamma {gamma!r} but {up} improving neighbors")
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        kind = report["classification"]["kind"]
        family = command.policies[0].partition(":")[0]
        if kind == "inconclusive":
            if returncode != EXIT_INCONCLUSIVE:
                problems.append(f"inconclusive verdict with exit {returncode}")
        else:
            if returncode != EXIT_OK:
                problems.append(f"verdict {kind} with exit {returncode}")
            if kind != EXPECTED_VERDICT[family]:
                problems.append(f"{command.policies[0]} classified {kind}, "
                                f"expected {EXPECTED_VERDICT[family]}")
        decided = sum(r["verdict"] != "inconclusive" for r in rows)
        if len(rows) - decided != len(report["inconclusive_states"]):
            problems.append("report.csv and report.json disagree on inconclusive states")
        return problems, {"swept": len(rows), "decided": decided}

    def _check_value(self, command, outdir, returncode):
        problems = [] if returncode == EXIT_OK else [f"exit {returncode}"]
        f = self.values(command.objective)
        rows = _rows(outdir / "value.csv")
        if [int(r["state"]) for r in rows] != list(range(len(f))):
            return problems + ["value.csv does not list every state once in order"], {}
        for r in rows:
            state = int(r["state"])
            if float(r["f"]) != f[state]:
                problems.append(f"state {state}: f {r['f']} != {f[state]!r}")
            if not float(r["gap"]) >= -1e-9:
                problems.append(f"state {state}: policy beats the optimum, gap {r['gap']}")
        return problems, {}

    def _check_simulate(self, command, outdir, returncode):
        problems = [] if returncode == EXIT_OK else [f"exit {returncode}"]
        seeds, horizon = int(command.option("seeds")), int(command.option("horizon"))
        seed_rows = _rows(outdir / "seeds.csv")
        if len(seed_rows) != seeds * len(command.policies):
            problems.append(f"seeds.csv has {len(seed_rows)} rows, expected "
                            f"{seeds} x {len(command.policies)}")
        summary = _rows(outdir / "summary.csv")
        if [r["policy"] for r in summary] != list(command.policies):
            problems.append("summary.csv does not list the policies in order")
        for r in summary:
            if not 0.0 <= float(r["hit_rate"]) <= 1.0:
                problems.append(f"{r['policy']}: hit_rate {r['hit_rate']} outside [0, 1]")
        jsonl = outdir / "trajectories.jsonl"
        if jsonl.exists():
            lines = jsonl.read_text(encoding="utf-8").splitlines()
            if len(lines) != seeds * len(command.policies):
                problems.append(f"trajectories.jsonl has {len(lines)} lines, expected "
                                f"{seeds} x {len(command.policies)}")
            for number, line in enumerate(lines):
                steps = len(json.loads(line)["steps"])
                if steps > horizon:
                    problems.append(f"trajectory {number} has {steps} steps > horizon {horizon}")
        return problems, {}

    _check_compare = _check_simulate
