"""The pinned benchmark workloads: which lsmdp commands each one runs.

Every workload is a function of the benchmark seed that returns the ordered
list of CLI invocations of one pass.  The program only ever receives the
generated descriptors; nothing here imports lsmdp.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One `lsmdp <kind> ...` invocation, minus its --out directory."""

    kind: str
    objective: str
    policies: tuple[str, ...]
    options: tuple[str, ...] = ()

    def argv(self, out: str) -> list[str]:
        args = [self.kind, "--objective", self.objective]
        for policy in self.policies:
            args += ["--policy", policy]
        return args + list(self.options) + ["--out", out]

    def option(self, name: str) -> str | None:
        """Value of `--name` in the extra options, None when absent."""
        flag = f"--{name}"
        if flag not in self.options:
            return None
        index = self.options.index(flag)
        following = self.options[index + 1:index + 2]
        return following[0] if following and not following[0].startswith("--") else ""


def exact_onemax(seed: int) -> list[Command]:
    # Deterministic: onemax has no seed, so every seed runs the same pass.
    objective = "onemax:n=10"
    classify = [Command("classify", objective, (policy,)) for policy in
                ("hc", "metropolis:T=1", "sa:T0=10,rate=0.9", "sa:T0=10,rate=0.99")]
    return classify + [Command("value", objective, ("sa:T0=10,rate=0.9",), ("--horizon", "50"))]


def exact_rugged(seed: int) -> list[Command]:
    objective = f"nk:n=11,k=3,seed={seed}"
    return [Command("classify", objective, ("sa:T0=10,rate=0.9",)),
            Command("classify", objective, ("walk",)),
            Command("value", objective, ("metropolis:T=1",))]


def exact(seed: int) -> list[Command]:
    # Both exact paths in one pass: the nonstationary one on onemax, where 11
    # gain profiles cover every state, and the stationary one on a seeded NK
    # landscape, where every state has its own.
    return exact_onemax(seed) + exact_rugged(seed)


def rollout(seed: int) -> list[Command]:
    objective = "trap:n=40,k=4"
    return [Command("compare", objective, ("hc", "walk", "sa:T0=5,rate=0.995", "metropolis:T=1"),
                    ("--seeds", "25", "--horizon", "1000", "--base-seed", str(seed))),
            Command("simulate", objective, ("sa:T0=5,rate=0.995",),
                    ("--seeds", "20", "--horizon", "1000", "--base-seed", str(seed),
                     "--emit-trajectories"))]


WORKLOADS = {
    "exact": exact,
    "rollout": rollout,
}


def commands(workload: str, seed: int) -> list[Command]:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return WORKLOADS[workload](seed)


def out_dir(index: int, command: Command) -> str:
    """The --out path of a pass's index-th command, relative to the run
    directory.  It is the same string on every invocation, so manifest.ini
    and hence the whole tree must repeat byte for byte."""
    return f"out/{index}-{command.kind}"
