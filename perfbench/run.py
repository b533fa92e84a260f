"""roughmap benchmark: drives the real CLI in-process on seeded synthetic inputs.

    python3 perfbench/run.py --workload cohort|wide|deep --seed N --seconds S --trace 0|1

Run from anywhere inside a roughmap checkout; the program is imported from
the checkout's ``src/``, and every file the run writes goes under
``perfbench/_work/``.  One process, one thread, closed loop: each call
starts when the previous one has returned.

``--trace 0`` measures the end-to-end metrics with tracing off.  Round r
takes roster chunk r mod (number of chunks) and report format r mod 3.  It
times one ``roughmap batch`` call over the chunk in that format, then one
``roughmap analyze --out FILE`` call per student of the chunk in each
format.  Rounds repeat until ``--seconds`` have passed, every chunk has run
and at least 100 analyze calls are timed, and stop after a whole group of
three, so every format runs equally often.  Times
are corrected for the host's speed (see HostSpeed); the raw figures are
printed too.

``--trace 1`` measures the per-layer metrics: one traced ``analyze`` call
per student (formats in turn) with spans around each module's functions,
then the same at 1/4 and 1/2 of the map size to fit a scaling exponent per
layer.

Every report is checked (see checks.py); a failed check or a non-zero exit
counts as a failed operation.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("text", "csv", "json")
GOLDEN_SUFFIX = {"text": "txt", "csv": "csv", "json": "json"}
MIN_ANALYZE_CALLS = 100  # so that p90 has at least 10 samples beyond it
SETUP_REPEATS = 5
TRACE_MAIN_SHARE = 0.7  # of --seconds; the scaled maps take the rest
SCALES = (0.25, 0.5)
SCALE_STUDENTS = 9
ROSTER_PASSES = 5
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 0.5
PROBE_NOMINAL_S = 0.001


@dataclass(frozen=True)
class Workload:
    students: int
    chunk: int  # roster rows per batch call
    flags: tuple[str, ...]  # report flags for every call


# Map shapes are described in gen.py, and why each workload was chosen in
# BENCHMARK.json.
WORKLOADS = {
    "cohort": Workload(1000, 50, ()),
    "wide": Workload(12, 2, ("--levels", "deepest")),
    "deep": Workload(12, 2, ("--levels", "all", "--order", "desc")),
}

TIMED_LAYERS = {  # per-layer metric -> span whose self time it is
    "fileio.parse_ms": "fileio.parse",
    "fileio.write_ms": "fileio.write",
    "conceptmap.validate_ms": "conceptmap.validate",
    "conceptmap.integrate_ms": "conceptmap.integrate",
    "analysis.level_regions_ms": "analysis.level_regions",
    "analysis.importance_ms": "analysis.analyze",
    "grading.grade_ms": "grading.grade",
    "grading.plan_ms": "grading.plan",
    "grading.render_text_ms": "grading.render_text",
    "grading.render_csv_ms": "grading.render_csv",
    "grading.render_json_ms": "grading.render_json",
    "roughset.regions_ms": "roughset.regions",
    "cli.residual_ms": "cli.analyze",
}
COUNTS = ("nodes", "levels", "boundary_records", "red_ratio", "plan_steps",
          "report_bytes.text", "report_bytes.csv", "report_bytes.json")


class Ops:
    """Tally of operations attempted and failed; prints the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, code: int, error: str | None = None) -> None:
        self.attempted += 1
        if code != 0 and error is None:
            error = f"exit status {code}"
        if error is not None:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {what}: {error}", file=sys.stderr)


class HostSpeed:
    """Host-speed correction for the end-to-end times.

    On a shared virtual machine the CPU speed one process gets can drift by
    1.5x and more, in phases of seconds to minutes.  So a fixed pure-Python
    probe is timed (best of three) at least every PROBE_INTERVAL_S between
    timed calls.  A call's time is scaled by PROBE_NOMINAL_S over the mean of
    the probes just before and after it and of any others taken within
    PROBE_WINDOW_S of those two: the time the call would take on a host where
    the probe takes exactly PROBE_NOMINAL_S.  The probe runs no
    roughmap code, so a change to roughmap still moves the corrected times.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (taken at, probe seconds)

    @staticmethod
    def _probe_once() -> float:
        start = perf_counter()
        words = [f"w{i * 7919 % 10007}" for i in range(2000)]
        table = {w: (i, len(w)) for i, w in enumerate(words)}
        "".join(sorted(table, key=lambda w: table[w]))
        return perf_counter() - start

    def probe(self) -> int:
        """Take a probe; return its index."""
        self.probes.append((perf_counter(), min(self._probe_once() for _ in range(3))))
        return len(self.probes) - 1

    def tick(self) -> int:
        """Probe if the last probe is older than PROBE_INTERVAL_S; return the
        index of the latest probe."""
        if not self.probes or perf_counter() - self.probes[-1][0] >= PROBE_INTERVAL_S:
            return self.probe()
        return len(self.probes) - 1

    def corrected(self, seconds: float, before: int) -> float:
        """`seconds` measured after probe `before` and before the next one."""
        times = [t for t, _ in self.probes]
        lo = bisect.bisect_left(times, times[before] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, times[before + 1] + PROBE_WINDOW_S)
        ref = statistics.fmean(p for _, p in self.probes[lo:hi])
        return seconds * PROBE_NOMINAL_S / ref

    def mean_probe_ms(self) -> float:
        return statistics.fmean(p for _, p in self.probes) * 1000


def require_checkout() -> None:
    needed = [ROOT / "src" / "roughmap" / "__init__.py", ROOT / "data" / "teacher_map.json",
              ROOT / "data" / "student_map.json", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a roughmap checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def import_roughmap():
    """Import roughmap afresh from the checkout and return its cli module."""
    for name in [m for m in sys.modules if m == "roughmap" or m.startswith("roughmap.")]:
        del sys.modules[name]
    importlib.import_module("roughmap")
    cli = importlib.import_module("roughmap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported roughmap from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def call(cli, argv: list) -> tuple[int, float]:
    """Run one CLI command in-process; return its exit status and wall time."""
    argv = [str(a) for a in argv]
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crash
        print(f"roughmap {argv[0]} raised {exc!r}", file=sys.stderr)
        code = -1
    return code, perf_counter() - start


def analyze_argv(inputs: gen.Inputs, reg: str, fmt: str, flags, out: Path) -> list:
    return ["analyze", "--teacher", inputs.teacher, "--student", inputs.student_map(reg),
            "--format", fmt, *flags, "--out", out]


def setup(workload: str, seed: int, work: Path, repeats: int, speed: HostSpeed):
    """Generate and write the inputs, import roughmap and warm up, `repeats`
    times from scratch.  Returns the median raw and corrected times and the
    last repeat's results."""
    spec = WORKLOADS[workload]
    raw, corrected = [], []
    if work.exists():
        shutil.rmtree(work)
    before = speed.probe()
    # Each repeat writes a directory of its own: deleting the previous
    # repeat's files right before would slow the next repeat's writes.
    for rep in range(repeats):
        inputs_dir = work / f"inputs_{rep}"
        start = perf_counter()
        cli = import_roughmap()
        inputs = gen.write_inputs(inputs_dir, workload, seed, spec.students, spec.chunk)
        warm, _ = call(cli, analyze_argv(inputs, inputs.chunks[0][0], "text", spec.flags,
                                         inputs_dir / "warmup.text"))
        raw.append(perf_counter() - start)
        after = speed.probe()
        corrected.append(speed.corrected(raw[-1], before))
        before = after
    return statistics.median(raw), statistics.median(corrected), cli, inputs, warm


def check_golden(cli, ops: Ops, work: Path) -> None:
    """The bundled sample's reports must match tests/golden/ byte for byte."""
    for fmt in FORMATS:
        out = work / f"sample.{fmt}"
        code, _ = call(cli, ["analyze", "--teacher", ROOT / "data" / "teacher_map.json",
                             "--student", ROOT / "data" / "student_map.json",
                             "--format", fmt, "--out", out])
        golden = ROOT / "tests" / "golden" / f"sample_report.{GOLDEN_SUFFIX[fmt]}"
        same = code == 0 and out.read_bytes() == golden.read_bytes()
        ops.record(f"golden {fmt}", code, None if same or code else "differs from golden")


class Verifier:
    """Checks each (student, format) report once against the independent
    count, then requires every later report of that pair to be byte-identical."""

    def __init__(self, inputs: gen.Inputs, all_levels: bool) -> None:
        # checks and spans import roughmap, so they are imported only after
        # setup() has imported it from the checkout.
        import checks
        self.checks = checks
        self.inputs = inputs
        self.all_levels = all_levels
        self.teacher = checks.read_pairs(inputs.teacher)
        self.expected: dict[str, list] = {}
        self.digests: dict[tuple[str, str], bytes] = {}

    def expected_for(self, reg: str) -> list:
        if reg not in self.expected:
            student = self.checks.read_pairs(self.inputs.student_map(reg))
            self.expected[reg] = self.checks.expected_records(self.teacher, student,
                                                              self.all_levels)
        return self.expected[reg]

    def error(self, reg: str, fmt: str, path: Path) -> str | None:
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no report: {exc}"
        digest = hashlib.blake2b(data, digest_size=16).digest()
        known = self.digests.get((reg, fmt))
        if known is not None:
            return None if digest == known else f"{path.name} differs from earlier report"
        err = self.checks.report_error(data.decode("utf-8"), fmt, self.expected_for(reg))
        if err is None:
            self.digests[(reg, fmt)] = digest
        return err


def measure(cli, ops: Ops, inputs: gen.Inputs, spec: Workload, work: Path, seconds: float,
            speed: HostSpeed):
    """Returns, as (students, seconds, probe index) and (seconds, probe
    index), the timed batch and analyze calls."""
    verifier = Verifier(inputs, "all" in spec.flags)
    (work / "analyze").mkdir()
    batch, analyze = [], []
    rounds = 0
    start = perf_counter()
    # Whole groups of three rounds, so every format runs equally often.
    while (perf_counter() - start < seconds or len(analyze) < MIN_ANALYZE_CALLS
           or rounds < len(inputs.chunks) or rounds % len(FORMATS)):
        c = rounds % len(inputs.chunks)
        fmt = FORMATS[rounds % len(FORMATS)]
        regs = inputs.chunks[c]
        rounds += 1
        out_dir = work / "batch" / fmt
        before = speed.tick()
        code, dt = call(cli, ["batch", "--teacher", inputs.teacher,
                              "--roster", inputs.rosters[c], "--maps-dir", inputs.maps_dir,
                              "--out-dir", out_dir, "--format", fmt, *spec.flags])
        batch.append((len(regs), dt, before))
        err = None
        if code == 0:
            err = verifier.checks.summary_error(out_dir / "cohort_summary.csv", regs)
            for reg in regs:
                err = err or verifier.error(reg, fmt, out_dir / f"{reg}.{fmt}")
        ops.record(f"batch {inputs.rosters[c].name} {fmt}", code, err)
        for fmt in FORMATS:
            for reg in regs:
                out = work / "analyze" / f"{reg}.{fmt}"
                before = speed.tick()
                code, dt = call(cli, analyze_argv(inputs, reg, fmt, spec.flags, out))
                analyze.append((dt, before))
                ops.record(f"analyze {reg} {fmt}", code,
                           verifier.error(reg, fmt, out) if code == 0 else None)
    speed.probe()
    return batch, analyze


def trace_student(cli, tracer, ops: Ops, verifier, inputs, reg: str, fmt: str, flags,
                  out: Path, counts: dict) -> None:
    from roughmap.conceptmap import NodeColor
    from roughmap.roughset import ApproximationSpace, Partition, Universe, regions

    tracer.last.clear()
    with tracer.span("cli.analyze"):
        code, _ = call(cli, analyze_argv(inputs, reg, fmt, flags, out))
    if code != 0:
        ops.record(f"traced analyze {reg} {fmt}", code)
        return
    imap = tracer.last["conceptmap.integrate"]
    result = tracer.last["analysis.analyze"]
    deepest = [n for n in imap.nodes if n.level == imap.max_level]
    blocks: dict[str, list[str]] = {}
    for n in deepest:
        blocks.setdefault(n.parent, []).append(n.id)
    green = [n.id for n in deepest if n.color is NodeColor.GREEN]
    with tracer.span("roughset.regions"):
        space = ApproximationSpace(Universe(tuple(n.id for n in deepest)),
                                   Partition(tuple(blocks.values())))
        got = regions(space, green)
    ops.record(f"traced analyze {reg} {fmt}", code,
               verifier.checks.regions_error(got, imap, result.records)
               or verifier.error(reg, fmt, out))
    reds = sum(n.color is NodeColor.RED for n in imap.nodes)
    for name, value in (("nodes", len(imap.nodes)), ("levels", imap.max_level + 1),
                        ("boundary_records", len(result.records)),
                        ("red_ratio", reds / (len(imap.nodes) - 1)),
                        ("plan_steps", len(tracer.last["grading.plan"].steps)),
                        (f"report_bytes.{fmt}", out.stat().st_size)):
        counts.setdefault(name, []).append(value)


def trace_set(cli, tracer, ops, inputs, spec, work: Path, tag: str, deadline: float | None):
    """Traced analyze calls over `inputs`' students, formats in turn: once
    each, or cycling until `deadline` if one is given.  Returns the counts."""
    verifier = Verifier(inputs, "all" in spec.flags)
    work.mkdir(parents=True, exist_ok=True)
    regs = [reg for chunk in inputs.chunks for reg in chunk]
    counts: dict[str, list] = {}
    i = 0
    while i < len(regs) if deadline is None else (perf_counter() < deadline or i < len(FORMATS)):
        reg, fmt = regs[i % len(regs)], FORMATS[i % len(FORMATS)]
        tracer.student = f"{tag}{i}:{reg}"
        trace_student(cli, tracer, ops, verifier, inputs, reg, fmt, spec.flags,
                      work / f"{reg}.{fmt}", counts)
        i += 1
    tracer.student = None
    return counts


def layer_medians(self_times: dict, tag: str) -> dict[str, float]:
    out = {}
    for metric, span in TIMED_LAYERS.items():
        values = [per[span] for student, per in self_times.items()
                  if student is not None and student.startswith(tag) and span in per]
        out[metric] = statistics.median(values)
    return out


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y over log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-6)) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def traced_run(cli, ops: Ops, inputs, workload: str, seed: int, work: Path, seconds: float):
    import spans
    from roughmap.fileio import parse_roster

    spec = WORKLOADS[workload]
    tracer = spans.Tracer()
    roster_ms = []
    for _ in range(ROSTER_PASSES):
        for path in inputs.rosters:
            with tracer.span("fileio.roster"):
                rows = parse_roster(path)
            _, t0, t1, _, _ = tracer.spans[-1]
            roster_ms.append((t1 - t0) / 1e6 / len(rows))
    start = perf_counter()
    with tracer.patched():
        counts = trace_set(cli, tracer, ops, inputs, spec, work / "traced", "main",
                           start + TRACE_MAIN_SHARE * seconds)
        scaled_nodes = {}
        for scale in SCALES:
            scaled = gen.write_inputs(work / f"scale_{scale}", workload, seed,
                                      SCALE_STUDENTS, SCALE_STUDENTS, scale=scale)
            scaled_counts = trace_set(cli, tracer, ops, scaled, spec,
                                      work / f"scale_{scale}", f"x{scale}:", None)
            scaled_nodes[scale] = statistics.median(scaled_counts["nodes"])
    tracer.dump(work / "spans.jsonl")
    self_times = tracer.self_times()
    main = layer_medians(self_times, "main")
    metrics = {name: (value, "ms") for name, value in main.items()}
    metrics["fileio.roster_ms"] = (statistics.median(roster_ms), "ms")
    for name in COUNTS:
        metrics[name] = (statistics.median(counts[name]), "ratio" if name == "red_ratio"
                         else "bytes" if name.startswith("report_bytes") else "count")
    metrics["students_traced"] = (len(counts["nodes"]), "count")
    by_scale = {scale: layer_medians(self_times, f"x{scale}:") for scale in SCALES}
    for name in TIMED_LAYERS:
        points = [(scaled_nodes[s], by_scale[s][name]) for s in SCALES]
        points.append((statistics.median(counts["nodes"]), main[name]))
        metrics[name.removesuffix("_ms") + ".exponent"] = (slope(points), "log/log")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()
    work = ROOT / "perfbench" / "_work" / args.workload
    spec = WORKLOADS[args.workload]

    speed = HostSpeed()
    setup_raw, setup_s, cli, inputs, warm = setup(args.workload, args.seed, work,
                                                  1 if args.trace else SETUP_REPEATS, speed)
    ops = Ops()
    ops.record("warm-up analyze", warm)
    check_golden(cli, ops, work)

    if args.trace:
        metrics = traced_run(cli, ops, inputs, args.workload, args.seed, work, args.seconds)
    else:
        batch, analyze = measure(cli, ops, inputs, spec, work, args.seconds, speed)
        students = sum(n for n, _, _ in batch)
        analyze_ms = [speed.corrected(dt, i) * 1000 for dt, i in analyze]
        metrics = {
            "students_per_s": (students / sum(speed.corrected(dt, i) for _, dt, i in batch),
                               "1/s"),
            "analyze_ms.p50": (statistics.median(analyze_ms), "ms"),
            "analyze_ms.p90": (statistics.quantiles(analyze_ms, n=10)[-1], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw_ms = [dt * 1000 for dt, _ in analyze]
        print(f"{args.workload} seed {args.seed}: {students} students in {len(batch)} batch "
              f"calls, {len(analyze)} analyze calls (the analyze_ms samples); "
              f"{len(speed.probes)} probes, mean {speed.mean_probe_ms():.3f} ms")
        print(f"raw (uncorrected): students_per_s "
              f"{students / sum(dt for _, dt, _ in batch):.4f}, "
              f"analyze_ms.p50 {statistics.median(raw_ms):.4f}, "
              f"analyze_ms.p90 {statistics.quantiles(raw_ms, n=10)[-1]:.4f}, "
              f"setup_s {setup_raw:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(f"{'error_rate':32s} {ops.failed / ops.attempted:14.4f} "
          f"({ops.failed} of {ops.attempted} operations)")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
