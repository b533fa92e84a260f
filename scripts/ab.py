"""A/B benchmark of two commits on every end-to-end metric of BENCHMARK.json, and cold start.

    python scripts/ab.py OLD NEW [--pairs 10] | tee ab.out; tail -n 1 ab.out > BENCH_<pr>.json

Each side of each pair runs in a new ``git archive`` tree with this checkout's perfbench/ (a tree
that ran ``cohort`` before runs it up to 2x slower).  See README "Scripts".  Standard library only.
"""

import argparse
import compileall
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COLD = {"name": "cold_start_ms", "better": "lower", "bound": None}
GIT = ["git", "-C", str(ROOT)]
# run.py's line of uncorrected figures: "raw (uncorrected): students_per_s 1.0, setup_s 2.0"
RAW = re.compile(r"^raw \(uncorrected\): (.*)$", re.M)


def run(command: list[str], what: str, tree: Path = ROOT) -> tuple[str, float]:
    """The stdout and wall ms of `command` run in `tree`; exit 1 with one line if it fails."""
    start = perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if done.returncode:
        sys.exit(f"ab.py: {what} exited {done.returncode}: {done.stderr.strip()!r:.200}")
    return done.stdout, (perf_counter() - start) * 1000


def raw_figures(stdout: str) -> dict[str, float]:
    """The figures of run.py's uncorrected line in `stdout`, as ``raw.<metric>`` -> value."""
    line = RAW.search(stdout)
    return {f"raw.{name}": float(value) for name, value in
            (figure.split() for figure in line[1].split(", "))} if line else {}


def side_orders(pairs: int) -> list[tuple[str, str]]:
    """Which side runs first in each pair: half the pairs OLD first, half NEW first (the odd
    pair either way), shuffled anew each campaign, so no host rhythm favours one side in every
    campaign.  The JSON line records the order."""
    orders = [("old", "new"), ("new", "old")] * ((pairs + 1) // 2)
    random.shuffle(orders)
    return orders[:pairs]


def draw_seeds(pairs: int) -> list[int]:
    """One distinct random seed per pair, drawn anew each campaign, so a fast or slow seed
    is not always the same pair's.  Both sides of a pair take its seed."""
    return random.sample(range(1, 2**31), pairs)


def side(commit: str, tree: Path, seed: int, what: str) -> dict[str, dict[str, float]]:
    """Extract `commit` into `tree`, add perfbench/, run it: workload -> metric -> value."""
    archive = subprocess.run([*GIT, "archive", commit, "--", ".", ":(exclude)perfbench"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    compileall.compile_dir(tree / "src", quiet=1)
    analyze = [sys.executable, "-m", "roughmap", "analyze", "--teacher", "data/teacher_map.json",
               "--student", "data/student_map.json"]
    cold = [run(analyze, f"{what}: cold start", tree)[1] -
            run([sys.executable, "-c", "pass"], f"{what}: cold start", tree)[1] for _ in range(12)]
    runs = {"sample": {COLD["name"]: median(cold[1:])}}  # round 1 warms the cache
    for workload in (w["name"] for w in BENCH["workloads"]):
        stdout = run([*BENCH["command"], "--workload", workload, "--seed", str(seed),
                      "--seconds", str(BENCH["run_seconds"])], f"{what}: {workload}", tree)[0]
        result = json.loads(stdout.splitlines()[-1])
        if result["correct"] is not True:
            sys.exit(f"ab.py: {what}: {workload}: not correct, {result['failed']} failed")
        runs[workload] = {**{name: metric["value"] for name, metric in result["metrics"].items()},
                          **raw_figures(stdout)}
    return runs


def file_system(path: str, mounts: Path = Path("/proc/self/mounts")) -> str:
    """The type and mount options of the file system that holds `path`: those of the longest
    mount point in `mounts` that `path` is under, the last such line winning; "unknown" where
    `mounts` cannot be read.  The table writes a space in a mount point as \\040."""
    try:
        table = [line.split() for line in mounts.read_text(errors="replace").splitlines()]
    except OSError:
        return "unknown"
    found, longest = "unknown", -1
    for _, point, kind, options, *_ in table:
        point = re.sub(r"\\([0-7]{3})", lambda escape: chr(int(escape[1], 8)), point)
        if Path(path).is_relative_to(point) and len(point) >= longest:
            found, longest = f"{kind} {options}", len(point)
    return found


def summary(commits: dict[str, str], seeds: list[int], orders: list[tuple[str, str]],
            runs: dict[str, list[dict]]) -> dict:
    """The campaign as one record; its "rows" compare the sides on each workload's corrected
    metrics, and "orders" holds the side that ran first and second in each pair."""
    rows = []
    for workload, measured in runs["old"][0].items():
        for metric in (m for m in [*BENCH["end_to_end"], COLD] if m["name"] in measured):
            old, new = ([pair[workload][metric["name"]] for pair in runs[s]] for s in runs)
            sign = 1 if metric["better"] == "higher" else -1
            old_q, new_q = (quantiles(v, n=4) if len(v) > 1 else v * 3 for v in (old, new))
            loss = sign * (1 - new_q[1] / old_q[1])  # how much worse NEW's median is than OLD's
            rows.append({"workload": workload, "metric": metric["name"], "old": old_q, "new": new_q,
                         "ratio": median(n / o for o, n in zip(old, new)),
                         "new_won": sum(sign * (n - o) > 0 for o, n in zip(old, new)),
                         "worse": metric["bound"] is not None and loss > metric["bound"]})
    host = {"python": platform.python_version(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "fs": file_system(os.path.realpath(tempfile.gettempdir()))}
    return {"commits": commits, "host": host, "seeds": seeds, "orders": [list(o) for o in orders],
            "runs": runs, "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commits", nargs=2, metavar=("OLD", "NEW"), help="two git commits")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commits = {label: run([*GIT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          f"git rev-parse {rev}")[0].strip()
               for label, rev in zip(("old", "new"), args.commits)}
    seeds, orders, runs = draw_seeds(args.pairs), side_orders(args.pairs), {"old": [], "new": []}
    for pair, (seed, order) in enumerate(zip(seeds, orders), 1):
        for label in order:
            with tempfile.TemporaryDirectory(prefix="ab-") as tree:
                runs[label].append(side(commits[label], Path(tree), seed, f"pair {pair}, {label}"))
        print(f"pair {pair} of {args.pairs} done (seed {seed})", flush=True)
    record = summary(commits, seeds, orders, runs)
    print(f"OLD {commits['old']}, NEW {commits['new']}, {args.pairs} pairs, {record['host']}")
    print(f"{'workload':8} {'metric':15} {'OLD median [q1, q3]':>27} {'NEW median [q1, q3]':>27} "
          "NEW/OLD NEW won")
    for row in record["rows"]:
        old, new = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["old"], row["new"]))
        print(f"{row['workload']:8} {row['metric']:15} {old:>27} {new:>27} {row['ratio']:7.3f} "
              f"{row['new_won']:4}/{args.pairs}{'  WORSE' * row['worse']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
