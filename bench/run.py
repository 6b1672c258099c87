"""lsmdp benchmark: seeded workloads run through the real CLI, checked, timed.

    python3 bench/run.py --workload exact --seed 1 --seconds 60 --trace 0

Run it from anywhere inside a checkout; it imports lsmdp from the checkout's
src/ and writes only under .bench_work/ in the checkout, which it removes.

--trace 0 times the workload end to end.  It first starts the set-up child
several times, then runs the workload's commands round robin, each in its
own child process, for about --seconds.  Every output is checked; later
invocations must reproduce the first one's --out tree byte for byte.
--trace 1 ignores --seconds and runs the workload's commands in-process twice, through
lsmdp.cli.main: untraced, then with the span tracer on.  It reports
per-layer spans and counters.  The untraced run's outputs are checked, and
the traced run must reproduce them byte for byte.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md
for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import MEMO_MAX_BITS, Checker, bits, gain_profiles, tree_digest
from workloads import WORKLOADS, Command, commands, out_dir

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SETUP_FIRST = 3
DEADLINE_S = 175          # the whole run; a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Spans reported with their call counts, beside the self time every span gets.
COUNTED_SPANS = ("objectives.eval", "search_space.value", "search_space.neighbors",
                 "policies.action_distribution", "policies.step",
                 "coefficients.exploration_ratio", "exact_solver.freeze",
                 "simulator.run_trajectory")
SPANS = ("objectives.eval", "search_space.value", "search_space.neighbors",
         "policies.action_distribution", "policies.step",
         "coefficients.exploration_ratio", "coefficients.balance_series",
         "coefficients.partition", "coefficients.classify",
         "exact_solver.freeze", "exact_solver.evaluate_nonstationary",
         "exact_solver.evaluate_stationary", "exact_solver.value_iteration",
         "simulator.generate_records", "simulator.run_trajectory", "simulator.summarize",
         "serialize.format", "serialize.write", "cli")
COUNTERS = (("policies.move_entries", "count"), ("coefficients.states_swept", "count"),
            ("coefficients.inconclusive_states", "count"),
            ("exact_solver.dense_bytes", "B"), ("simulator.steps", "count"),
            ("serialize.bytes_written", "B"))
PER_LAYER = ([(f"{name}.calls", "count") for name in COUNTED_SPANS]
             + [(f"{name}.self_s", "s") for name in SPANS]
             + [("search_space.value.hit_frac", "fraction")] + list(COUNTERS)
             + [("trace.overhead_s", "s")])


def family(objective: str) -> str:
    """The objective's family: `nk` for `nk:n=11,k=3,seed=1`."""
    return objective.split(":", 1)[0]


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mib: float
    stdout: str
    stderr: str

    def json_line(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if self.returncode == 0 and lines else None
        except json.JSONDecodeError:
            return None


def child_env(run_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LSMDP_OUT", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # start-up as users see it: bytecode cached
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(run_dir), OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.commands = commands(workload, seed)
        self.env = child_env(run_dir)
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, tuple[dict, int]] = {}   # first --out tree and exit code
        self.swept: Counter[str] = Counter()     # classify sweep counts per objective family
        self.decided: Counter[str] = Counter()
        (run_dir / "logs").mkdir()

    def spawn(self, argv: list[str], tag: str) -> Child:
        """Run one child to completion; its peak RSS comes from wait4."""
        out_path = self.run_dir / "logs" / f"{tag}.out"
        err_path = self.run_dir / "logs" / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))

    def python_child(self, *args: str) -> Child:
        return self.spawn([sys.executable, str(BENCH / "child.py"), *args], tag=args[0])

    def clear_outputs(self) -> None:
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)

    def verify(self, index: int, command: Command, returncode: int, how: str) -> None:
        """Check one invocation's outputs; the first invocation of each command
        is checked in full, later ones must reproduce it byte for byte."""
        self.attempted += 1
        outdir = self.run_dir / out_dir(index, command)
        found = (tree_digest(outdir) if outdir.is_dir() else {}, returncode)
        if index not in self.reference:
            try:
                problems, facts = self.checker.check(command, outdir, returncode)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems, facts = [f"unreadable output: {exc!r}"], {}
            self.reference[index] = found
            if "swept" in facts:
                self.swept[family(command.objective)] += facts["swept"]
                self.decided[family(command.objective)] += facts["decided"]
        elif found != self.reference[index]:
            problems = ["--out tree or exit code differs from the first invocation"]
        else:
            problems = []
        if problems:
            self.failed += 1
            print(f"FAIL {how} {' '.join(command.argv(out_dir(index, command)))}", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)

    def run_command(self, index: int) -> Child:
        """The index-th command of a pass in its own child, in a fresh --out."""
        command = self.commands[index]
        out = out_dir(index, command)
        shutil.rmtree(self.run_dir / out, ignore_errors=True)
        argv = [sys.executable, "-m", "lsmdp.cli", *command.argv(out)]
        child = self.spawn(argv, tag=f"cmd{index}")
        self.verify(index, command, child.returncode, "cli")
        return child

    def inproc_pass(self, traced: bool) -> dict | None:
        self.clear_outputs()
        child = self.python_child("inproc", self.workload, str(self.seed), "1" if traced else "0")
        result = child.json_line()
        how = "traced" if traced else "in-process"
        if result is None:
            print(f"FAIL {how} run exited {child.returncode}\n{child.stderr[-2000:]}",
                  file=sys.stderr)
            self.attempted += len(self.commands)
            self.failed += len(self.commands)
            return None
        for index, command in enumerate(self.commands):
            self.verify(index, command, result["returncodes"][index], how)
        return result

    def setup_time(self) -> float:
        child = self.python_child("setup", self.workload, str(self.seed))
        if child.json_line() is None:
            raise RuntimeError(f"set-up child exited {child.returncode}:\n{child.stderr}")
        return child.wall_s

    def timed(self, seconds: float) -> dict:
        # Set-up children run before the first command and after every pass
        # over the commands, so their median samples the machine over the
        # whole run.
        setups = [self.setup_time() for _ in range(SETUP_FIRST)]
        walls: list[list[float]] = [[] for _ in self.commands]
        peak = 0.0
        start = time.perf_counter()
        # The commands run round robin.  After the first pass a command starts
        # only if, at its mean time so far, it ends within --seconds, so a run
        # lasts about --seconds and no time goes to a cut-off pass.
        for index in itertools.cycle(range(len(self.commands))):
            if walls[index] and (time.perf_counter() - start
                                 + statistics.fmean(walls[index])) > seconds:
                break
            child = self.run_command(index)
            walls[index].append(child.wall_s)
            peak = max(peak, child.maxrss_mib)
            if index == len(self.commands) - 1:
                setups.append(self.setup_time())
        # The host's speed wanders by tens of percent within seconds, so one
        # invocation is a noisy sample.  Each command's mean over the run
        # follows that more steadily than a median of a few does.  Set-up
        # children are many and short; their median resists the odd slow start.
        means = [statistics.fmean(samples) for samples in walls]
        print(f"{'setup_s':<14} {statistics.median(setups):.4f} s    "
              f"median of {len(setups)} set-up children, range {min(setups):.4f}-{max(setups):.4f}")
        groups: dict[str, list[int]] = defaultdict(list)
        for index, command in enumerate(self.commands):
            groups["wall"].append(index)
            groups[command.kind].append(index)
            groups[family(command.objective)].append(index)
        for name, members in groups.items():
            counts = sorted({len(walls[index]) for index in members})
            print(f"{name + '_s':<14} {sum(means[index] for index in members):.4f} s    "
                  f"sum over {len(members)} command(s) of each one's mean over "
                  f"{'-'.join(map(str, counts))} invocations")
        print(f"{'peak_rss_mib':<14} {peak:.1f} MiB  max over {sum(map(len, walls))} "
              f"command children")
        return {"wall_s": sum(means), "setup_s": statistics.median(setups),
                "peak_rss_mib": peak}

    def traced(self) -> dict:
        plain = self.inproc_pass(traced=False)
        traced = self.inproc_pass(traced=True)
        if plain is None or traced is None:
            return {}
        spans, counters = traced["spans"], traced["counters"]
        values = {f"{name}.calls": spans[name]["calls"] for name in COUNTED_SPANS}
        values.update((f"{name}.self_s", spans[name]["self_s"]) for name in SPANS)
        values["search_space.value.hit_frac"] = (
            1.0 - spans["objectives.eval"]["calls"] / spans["search_space.value"]["calls"])
        values.update((name, counters.get(name, 0)) for name, _ in COUNTERS)
        values["trace.overhead_s"] = sum(traced["wall_s"]) - sum(plain["wall_s"])
        print(f"traced in-process wall {sum(traced['wall_s']):.4f} s, "
              f"untraced {sum(plain['wall_s']):.4f} s")
        for name, unit in PER_LAYER:
            print(f"{name:<42} {values[name]!r} {unit}")
        return values

    def describe(self) -> None:
        machine = self.python_child("info").json_line() or {}
        print("machine " + " ".join(f"{key}={value}" for key, value in machine.items())
              + f" thread_cap={self.env['OPENBLAS_NUM_THREADS']}")
        for objective in dict.fromkeys(c.objective for c in self.commands):
            n = bits(objective)
            if n <= MEMO_MAX_BITS:
                profiles = gain_profiles(self.checker.values(objective), n)
                print(f"workload {self.workload} seed {self.seed} {objective}: {profiles} "
                      f"unique gain profiles over {1 << n} states; search_space memo on; "
                      f"{(1 << n) ** 2 * 8} dense bytes per freeze (computed)")
            else:
                print(f"workload {self.workload} seed {self.seed} {objective}: 2**{n} states, "
                      f"profiles not enumerated; search_space memo off (n > {MEMO_MAX_BITS}); "
                      f"no dense solve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "lsmdp" / "cli.py").is_file():
        print(f"error: no lsmdp sources at {ROOT / 'src' / 'lsmdp'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        bench.describe()
        values = bench.traced() if args.trace else bench.timed(args.seconds)
        print(f"{'error_rate':<14} {bench.failed / bench.attempted!r} fraction    "
              f"{bench.failed} failed of {bench.attempted} commands")
        for name, swept in bench.swept.items():
            decided = bench.decided[name]
            print(f"{'decided_frac':<14} {decided / swept!r} fraction    {decided}/{swept} "
                  f"swept {name} states not inconclusive")
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    units = dict(PER_LAYER if args.trace else END_TO_END)
    correct = bench.failed == 0 and set(values) == set(units)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units if name in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
