#!/usr/bin/env python3
"""Run one command and report its wall time and peak resident set size.

The peak comes from `os.wait4` on the child (Linux reports ru_maxrss in
KiB).  The command's own exit code is passed through; with --max-mib the
script also fails (exit 1) when the peak exceeds that many MiB.

Usage: python scripts/peak_rss.py [--max-mib 700] -- COMMAND [ARG ...]
"""

import argparse
import os
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-mib", type=float, help="fail above this peak RSS")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    start = time.perf_counter()
    child = subprocess.Popen(command)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    peak = usage.ru_maxrss / 1024
    print(f"wall_s={wall:.2f} peak_rss_mib={peak:.1f} exit={child.returncode}", file=sys.stderr)
    if child.returncode:
        return child.returncode
    if args.max_mib is not None and peak > args.max_mib:
        print(f"peak RSS {peak:.1f} MiB is over the {args.max_mib:g} MiB limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
