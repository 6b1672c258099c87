"""Benchmark objectives over fixed-length bit strings, plus a DIMACS CNF loader,
the descriptor grammar, and the one memory budget every size check reads
(this module imports no other lsmdp module but the leaf `streams`, so every
one can import it).

A candidate solution is a plain int in [0, 2**n).  Bit b (least significant
bit = bit 0) holds CNF variable b+1; written-out bit strings use ordinary
binary notation, most significant bit first.  All objectives are maximized
and all of them are total, deterministic, and immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .streams import SLAB, Streams

MAX_BITS = 63  # states are stored as unsigned 64-bit integers
MEMORY_BUDGET = 2 << 30  # bytes any one priced path may take
# The 8-byte words a unit costs at its path's peak, over tracemalloc peaks of
# every path (Python 3.11, numpy 2.4): 4.0-5.1 a move-table entry (nbr, gain,
# reached and the temporaries that build and read them), 6.0 a neighbor mask
# (its cached Python int and array entry), 4.0-5.3 a slab entry's scratch.
ENTRY_WORDS, MASK_WORDS, SCRATCH_WORDS = 5, 7, 7


class ResourceLimitError(RuntimeError):
    """An analysis would exceed its stated size cap."""


def check_memory(what: str, *, words: int = 0, entries: int = 0, masks: int = 0,
                 draws: int = 0) -> int:
    """The bytes `what` needs, ResourceLimitError if over MEMORY_BUDGET.
    Every path calls it once, before it allocates, with its shapes: the plain
    8-byte `words` it keeps, its move-table `entries`, the neighbor `masks` it
    builds and its block of `draws` uniforms (a word each, and the scratch of
    the largest slab that draws them)."""
    need = 8 * (words + ENTRY_WORDS * entries + MASK_WORDS * masks + draws
                + SCRATCH_WORDS * min(SLAB, draws))
    if need > MEMORY_BUDGET:
        raise ResourceLimitError(f"{what} needs {need / 2**30:.3g} GiB, over the "
                                 f"{MEMORY_BUDGET / 2**30:.3g} GiB budget")
    return need


@dataclass(frozen=True)
class Objective:
    """Total, deterministic function from n-bit states to real values.

    `batch`, when given, evaluates a whole int64 array of states with numpy
    and must equal `fn` on every state bit for bit; `values` falls back to
    calling `fn` once per distinct state.
    """

    n: int
    fn: Callable[[int], float]
    name: str
    known_optimum: float | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False,
                                                             compare=False)

    def __call__(self, state: int) -> float:
        return self.fn(state)

    def values(self, states) -> np.ndarray:
        """Objective value of every state in the flat int array `states`."""
        states = np.asarray(states, dtype=np.int64)
        if self.batch is not None:
            return self.batch(states)
        distinct, index = np.unique(states, return_inverse=True)
        return np.array([float(self.fn(s)) for s in distinct.tolist()], dtype=float)[index]


def _check_bits(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_BITS:
        raise ValueError(f"bit length must be an int in [1, {MAX_BITS}], got {n!r}")


def make_onemax(n: int) -> Objective:
    """Count of one-bits; maximum n at the all-ones string."""
    _check_bits(n)
    return Objective(n, lambda x: float(x.bit_count()), f"onemax:n={n}", float(n),
                     batch=lambda x: np.bitwise_count(x).astype(float))


def make_leading_ones(n: int) -> Objective:
    """Length of the run of ones starting at the most significant bit."""
    _check_bits(n)

    def fn(x: int) -> float:
        run = 0
        for b in range(n - 1, -1, -1):
            if not (x >> b) & 1:
                break
            run += 1
        return float(run)

    def batch(x):
        # The run of leading ones ends at the highest zero bit: smear the
        # complement's top bit downwards and count what it covers.
        zeros = ~x & ((1 << n) - 1)
        for shift in (1, 2, 4, 8, 16, 32):
            zeros |= zeros >> shift
        return (n - np.bitwise_count(zeros)).astype(float)

    return Objective(n, fn, f"leading_ones:n={n}", float(n), batch=batch)


def make_trap(n: int, k: int) -> Objective:
    """Concatenated deceptive traps over k-bit blocks.

    A block with u one-bits scores k-1-u, except the all-ones block which
    scores k, so the gradient points away from the global optimum.
    """
    _check_bits(n)
    if not isinstance(k, int) or not 1 <= k <= n or n % k != 0:
        raise ValueError(f"trap block size k={k!r} must divide n={n}")
    block_mask = (1 << k) - 1

    def fn(x: int) -> float:
        total = 0
        for lo in range(0, n, k):
            u = ((x >> lo) & block_mask).bit_count()
            total += k if u == k else k - 1 - u
        return float(total)

    blocks = n // k
    lows = sum(1 << lo for lo in range(0, n, k))  # the lowest bit of every block

    def batch(x):
        # A block with u one-bits scores k-1-u, plus k+1 when it is full, so
        # the B blocks sum to B(k-1) - popcount(x) + (k+1)·(full blocks).
        # Bit i of `full` is the AND of bits i..i+span-1, with span doubled
        # up to k, so a block is full exactly when `full` has its lowest bit
        # set.  Every term is a small integer, so the float sums are exact.
        full, span = x, 1
        while 2 * span <= k:
            full = full & (full >> span)
            span *= 2
        if span < k:
            full = full & (full >> (k - span))
        return ((k + 1.0) * np.bitwise_count(full & lows) - np.bitwise_count(x)
                + float(blocks * (k - 1)))

    return Objective(n, fn, f"trap:n={n},k={k}", float(n), batch=batch)


def make_nk_landscape(n: int, k: int, seed: int) -> Objective:
    """Rugged landscape: bit i contributes through a lookup table over itself
    and its k circular successors; the n tables of size 2**(k+1) are drawn
    once from the seed and cached on the objective."""
    _check_bits(n)
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise ValueError(f"epistasis k={k!r} must lie in [0, n-1] for n={n}")
    check_memory(f"nk lookup tables at n={n}, k={k}", draws=n << (k + 1))
    tables = Streams(seed).random(n << (k + 1)).reshape(n, 1 << (k + 1))

    def fn(x: int) -> float:
        total = 0.0
        for i in range(n):
            idx = 0
            for j in range(k + 1):
                idx |= ((x >> ((i + j) % n)) & 1) << j
            total += tables[i, idx]
        return float(total)

    def batch(x):
        # Same i = 0..n-1 accumulation order as `fn`, so the sums are bit-equal.
        total = np.zeros(x.shape)
        for i in range(n):
            idx = np.zeros(x.shape, dtype=np.int64)
            for j in range(k + 1):
                idx |= ((x >> ((i + j) % n)) & 1) << j
            total += tables[i, idx]
        return total

    return Objective(n, fn, f"nk:n={n},k={k},seed={seed}", None, batch=batch)


class DimacsParseError(ValueError):
    """Malformed DIMACS input; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CnfInstance:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.num_vars, int) or self.num_vars < 1:
            raise ValueError(f"num_vars must be a positive int, got {self.num_vars!r}")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")


def load_dimacs(path) -> CnfInstance:
    """Parse DIMACS CNF text: `c` comment lines, a `p cnf <vars> <clauses>`
    header, then whitespace-separated signed literals with every clause
    terminated by 0 (clauses may span lines)."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    lineno = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("c"):
                continue
            if text.startswith("p"):
                if header is not None:
                    raise DimacsParseError("duplicate problem header", lineno)
                parts = text.split()
                if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                    raise DimacsParseError(
                        f"malformed header {text!r}, expected 'p cnf <vars> <clauses>'", lineno)
                try:
                    num_vars, num_clauses = int(parts[2]), int(parts[3])
                except ValueError:
                    raise DimacsParseError(f"non-integer counts in header {text!r}", lineno) from None
                if num_vars < 1 or num_clauses < 0:
                    raise DimacsParseError(f"header counts out of range in {text!r}", lineno)
                header = (num_vars, num_clauses)
                continue
            if header is None:
                raise DimacsParseError("clause data before 'p cnf' header", lineno)
            for token in text.split():
                try:
                    literal = int(token)
                except ValueError:
                    raise DimacsParseError(f"non-integer token {token!r}", lineno) from None
                if literal == 0:
                    if not current:
                        raise DimacsParseError("empty clause (bare terminating 0)", lineno)
                    clauses.append(tuple(current))
                    current.clear()
                    if len(clauses) > header[1]:
                        raise DimacsParseError(
                            f"more clauses than the declared {header[1]}", lineno)
                else:
                    if abs(literal) > header[0]:
                        raise DimacsParseError(
                            f"literal {literal} outside 1..{header[0]}", lineno)
                    current.append(literal)
    if header is None:
        raise DimacsParseError("missing 'p cnf' header", max(lineno, 1))
    if current:
        raise DimacsParseError("unterminated clause at end of file", lineno)
    if len(clauses) != header[1]:
        raise DimacsParseError(
            f"header declares {header[1]} clauses, found {len(clauses)}", max(lineno, 1))
    return CnfInstance(header[0], tuple(clauses))


def cnf_to_dimacs(instance: CnfInstance) -> str:
    """Canonical DIMACS text for `instance` (round-trips through load_dimacs)."""
    lines = [f"p cnf {instance.num_vars} {len(instance.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in instance.clauses]
    return "\n".join(lines) + "\n"


def cnf_objective(instance: CnfInstance, name: str = "maxsat") -> Objective:
    """Number of satisfied clauses under the assignment encoded by the state."""
    _check_bits(instance.num_vars)
    clauses = instance.clauses

    def fn(x: int) -> float:
        satisfied = 0
        for clause in clauses:
            for lit in clause:
                if ((x >> (lit - 1)) & 1) if lit > 0 else not ((x >> (-lit - 1)) & 1):
                    satisfied += 1
                    break
        return float(satisfied)

    def batch(x):
        satisfied = np.zeros(x.shape, dtype=np.int64)
        for clause in clauses:
            positive = negative = 0     # masks of the clause's variables by sign
            for lit in clause:
                if lit > 0:
                    positive |= 1 << (lit - 1)
                else:
                    negative |= 1 << (-lit - 1)
            satisfied += ((x & positive) != 0) | ((~x & negative) != 0)
        return satisfied.astype(float)

    return Objective(instance.num_vars, fn, name, None, batch=batch)


def parse_params(descriptor: str, types: dict[str, type]) -> list:
    """The values of `descriptor` = ``head:key=value,...`` in the order of
    `types`, each key of `types` given exactly once and converted by its
    type; ValueError naming the descriptor for a malformed, unknown,
    repeated or missing key, before anything is built."""
    params = {}
    argstr = descriptor.partition(":")[2]
    for item in argstr.split(",") if argstr else ():
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"bad parameter {item!r} in descriptor {descriptor!r}")
        if key not in types:
            raise ValueError(f"unknown key {key}= in descriptor {descriptor!r}")
        if key in params:
            raise ValueError(f"repeated key {key}= in descriptor {descriptor!r}")
        try:
            params[key] = types[key](value)
        except ValueError:
            raise ValueError(f"descriptor {descriptor!r}: {key} must be "
                             f"{'an integer' if types[key] is int else 'a number'}") from None
    try:
        return [params[key] for key in types]
    except KeyError as missing:
        raise ValueError(f"descriptor {descriptor!r} is missing {missing.args[0]}=") from None


# Objective descriptor heads: (constructor, parameter types).  A maxsat
# objective is named by its descriptor, which holds its one key only.
_OBJECTIVES = {
    "onemax": (make_onemax, {"n": int}),
    "leading_ones": (make_leading_ones, {"n": int}),
    "leadingones": (make_leading_ones, {"n": int}),
    "trap": (make_trap, {"n": int, "k": int}),
    "nk": (make_nk_landscape, {"n": int, "k": int, "seed": int}),
    "maxsat": (lambda path: cnf_objective(load_dimacs(path), name=f"maxsat:path={path}"),
               {"path": str}),
}


def parse_objective(descriptor: str) -> Objective:
    """Build an objective from a descriptor string.

    Supported forms: ``onemax:n=10``, ``leading_ones:n=8``, ``trap:n=8,k=4``,
    ``nk:n=12,k=3,seed=7`` and ``maxsat:path=instance.cnf``, keys in any order.
    """
    head = descriptor.partition(":")[0]
    if head not in _OBJECTIVES:
        raise ValueError(f"unknown objective descriptor {descriptor!r}")
    make, types = _OBJECTIVES[head]
    return make(*parse_params(descriptor, types))
