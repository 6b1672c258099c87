"""Child processes of the benchmark; each prints one JSON line.

    child.py info                              machine and library versions
    child.py setup WORKLOAD SEED               import lsmdp.cli, build the workload's
                                               objectives, MDPs and policies, exit
    child.py inproc WORKLOAD SEED TRACE        run the workload's commands through
                                               lsmdp.cli.main in this process, with
                                               the span tracer when TRACE is 1

Run from the benchmark's run directory, with the checkout's src/ first on
PYTHONPATH; `inproc` writes each command's --out relative to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

from workloads import commands, out_dir

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    import lsmdp.cli

    if SRC not in Path(lsmdp.cli.__file__).resolve().parents:
        sys.exit(f"lsmdp imported from {lsmdp.cli.__file__}, not from {SRC}")
    return lsmdp.cli


def info() -> dict:
    import ctypes
    import platform

    import numpy
    import numpy.linalg._umath_linalg as umath_linalg
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library = ctypes.CDLL(umath_linalg.__file__)
    getter = next((getattr(library, symbol) for symbol in
                   ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
                   if hasattr(library, symbol)), None)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": getter() if getter is not None else None}


def setup(workload: str, seed: int) -> dict:
    _import_cli()
    from lsmdp.objectives import parse_objective
    from lsmdp.policies import parse_policy
    from lsmdp.search_space import LocalSearchMdp, parse_criterion

    built = 0
    for command in commands(workload, seed):
        LocalSearchMdp(parse_objective(command.objective), parse_criterion("hamming:1"))
        built += 1 + len([parse_policy(policy) for policy in command.policies])
    return {"built": built}


def inproc(workload: str, seed: int, traced: bool) -> dict:
    cli = _import_cli()
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    returncodes, walls = [], []
    for index, command in enumerate(commands(workload, seed)):
        argv = command.argv(out_dir(index, command))
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            returncodes.append(cli.main(argv))
            walls.append(time.perf_counter() - start)
    result = {"returncodes": returncodes, "wall_s": walls}
    if tracer is not None:
        result.update(tracer.snapshot())
    return result


def main(argv: list[str]) -> dict:
    mode, *rest = argv
    if mode == "info":
        return info()
    if mode == "setup":
        return setup(rest[0], int(rest[1]))
    if mode == "inproc":
        return inproc(rest[0], int(rest[1]), rest[2] == "1")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
