#!/usr/bin/env python3
"""Cold start of `roughmap analyze`: whole-process wall time on the bundled
sample, against a bare interpreter.

Each round starts ``python -c pass`` and then ``python -m roughmap analyze``
on data/'s sample once per checkout, in a rotating order, so a drift in the
host's speed falls on all of them alike.  Bytecode is compiled first, as an
installed package has it.  Prints the median and interquartile range (IQR)
of each command and of each round's analyze time minus its bare time, then,
under ``-X importtime``, the five imports with the largest own time among
those a bare interpreter does not make.

    python scripts/cold_start.py                    # this checkout, 31 rounds
    python scripts/cold_start.py --runs 51 OLD NEW  # interleave two checkouts

Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ["--teacher", str(ROOT / "data" / "teacher_map.json"),
          "--student", str(ROOT / "data" / "student_map.json")]
BARE = [sys.executable, "-c", "pass"]


def analyze_command(checkout: Path, *flags: str) -> tuple[list[str], dict[str, str]]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return [sys.executable, *flags, "-m", "roughmap", "analyze", *SAMPLE], env


def wall_ms(command: list[str], env: dict[str, str] | None = None) -> float:
    start = perf_counter()
    subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)
    return (perf_counter() - start) * 1000


def summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):9.1f} {q3 - q1:7.1f}"


def import_times(command: list[str], env: dict[str, str] | None = None) -> dict[str, int]:
    """Own import time (µs) of each module one run of `command` imports."""
    stderr = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, check=True).stderr
    times = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0])
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT],
                        help="roughmap checkouts to run (default: this one)")
    parser.add_argument("--runs", type=int, default=31, help="rounds (default: 31, at least 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    checkouts = [path.resolve() for path in args.checkouts]
    for checkout in checkouts:
        if not (checkout / "src" / "roughmap" / "__init__.py").is_file():
            parser.error(f"not a roughmap checkout: {checkout}")
        compileall.compile_dir(checkout / "src", quiet=1)
    commands = [(BARE, None), *(analyze_command(checkout) for checkout in checkouts)]
    for command in commands:  # warm the file cache; not timed
        wall_ms(*command)
    times: list[list[float]] = [[] for _ in commands]
    for run in range(args.runs):
        shift = run % len(commands)
        for i in [*range(shift, len(commands)), *range(shift)]:
            times[i].append(wall_ms(*commands[i]))

    print(f"cold start: Python {platform.python_version()} on {platform.system()} "
          f"{platform.machine()}, {args.runs} interleaved rounds")
    print(f"{'median ms':>9} {'IQR ms':>7}")
    print(f"{summary(times[0])}  python -c pass")
    for checkout, analyze in zip(checkouts, times[1:]):
        print(f"{summary(analyze)}  analyze, {checkout}")
        minus_bare = [a - b for a, b in zip(analyze, times[0])]
        print(f"{summary(minus_bare)}    minus python -c pass")
    bare = import_times([sys.executable, "-X", "importtime", "-c", "pass"])
    for checkout in checkouts:
        own = import_times(*analyze_command(checkout, "-X", "importtime"))
        top = sorted(((us, module) for module, us in own.items() if module not in bare),
                     reverse=True)[:5]
        print(f"\n-X importtime, the five largest own times of imports that python -c pass "
              f"does not make, {checkout}:")
        for us, module in top:
            print(f"  {us / 1000:7.2f} ms  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
