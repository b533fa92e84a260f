"""File formats, roster ingestion, and the single/batch run driver.

Concept maps are JSON documents::

    {"subject": "...", "nodes": [{"id": "S1", "parent": null},
                                 {"id": "U1", "parent": "S1", "phrase": "includes"}]}

Rosters are CSV with header
``register_no,name,department,semester,subject,map_path``.  Both are UTF-8
text; a leading byte order mark is skipped.  Exit statuses:
0 success, 1 validation/analysis error, 2 I/O or parse error.

A run pauses the cyclic garbage collector and restores its prior state on
every exit.  The pipeline builds no reference cycles (tests/test_no_cycles.py
checks this), so reference counting frees everything it drops and the
collector's passes over the run's many objects would find nothing.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, TextIO

from .analysis import ALL_LEVELS, DEEPEST_ONLY, AnalysisResult, analyze
from .conceptmap import ConceptMap, integrate, validate_map
from .errors import (
    DuplicateRegisterError,
    Frozen,
    InputError,
    MapFileParseError,
    RosterSchemaError,
    ValidationError,
)
from .grading import (
    ASCENDING,
    DESCENDING,
    EXPECTED_RESULT_PLACES,
    REPORT_FORMATS,
    GradedRecord,
    format_fraction,
    grade_records,
    remediation_sequence,
    render_report,
)

__all__ = [
    "RosterRecord",
    "RunConfig",
    "ROSTER_COLUMNS",
    "SUMMARY_FILENAME",
    "parse_concept_map",
    "parse_concept_map_file",
    "parse_roster",
    "run_analyze",
]

ROSTER_COLUMNS = ("register_no", "name", "department", "semester", "subject", "map_path")
SUMMARY_FILENAME = "cohort_summary.csv"


class RosterRecord(NamedTuple):
    register_no: str
    name: str
    department: str
    semester: str
    subject: str
    map_path: str


class RunConfig(Frozen):
    """Everything one run needs; exactly one of single/batch mode selected.
    In single mode an `out_path` of None writes to stdout; in batch mode an
    `out_dir` of None means the current directory."""

    def __init__(self, teacher_map_path: str, student_map_path: str | None = None,
                 roster_path: str | None = None, maps_dir: str | None = None,
                 out_path: str | None = None, out_dir: str | None = None,
                 report_format: str = "text", order: str = ASCENDING,
                 levels: str = DEEPEST_ONLY) -> None:
        if (student_map_path is None) == (roster_path is None):
            raise ValueError("exactly one of student_map_path / roster_path must be set")
        if report_format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format: {report_format!r}")
        if order not in (ASCENDING, DESCENDING):
            raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
        if levels not in (DEEPEST_ONLY, ALL_LEVELS):
            raise ValueError(f"levels must be 'deepest' or 'all', got {levels!r}")
        self.__dict__.update(
            teacher_map_path=teacher_map_path, student_map_path=student_map_path,
            roster_path=roster_path, maps_dir=maps_dir, out_path=out_path, out_dir=out_dir,
            report_format=report_format, order=order, levels=levels)


_ID, _PARENT = itemgetter("id"), itemgetter("parent")
_OPTIONAL_STR = {str, type(None)}


def _map_columns(entries: list, source: str) -> tuple[tuple, tuple, tuple]:
    """The id, parent and phrase columns of a map's entries, read in bulk (a
    non-object entry raises TypeError) and checked whole: the ids by encoding
    their join, which fails on a non-string or a lone surrogate, the others'
    types as sets.  Only a failing map is checked entry by entry."""
    try:
        ids, parents = tuple(map(_ID, entries)), tuple(map(_PARENT, entries))
        "".join(ids).encode("utf-8")
    except (KeyError, TypeError, UnicodeEncodeError):
        pass
    else:
        phrases = tuple(map(dict.get, entries, repeat("phrase")))
        if set(map(type, parents)) | set(map(type, phrases)) <= _OPTIONAL_STR:
            return ids, parents, phrases
    # Some entry failed a bulk check, so this loop raises.
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "parent" not in entry:
            raise MapFileParseError(f"{source}: nodes[{i}] must be an object with 'id' and 'parent'")
        nid, parent, phrase = entry["id"], entry["parent"], entry.get("phrase")
        if not isinstance(nid, str):
            raise MapFileParseError(f"{source}: nodes[{i}].id must be a string")
        if any("\ud800" <= c <= "\udfff" for c in nid):
            raise MapFileParseError(f"{source}: nodes[{i}].id is not valid UTF-8 text")
        if parent is not None and not isinstance(parent, str):
            raise MapFileParseError(f"{source}: nodes[{i}].parent must be a string or null")
        if phrase is not None and not isinstance(phrase, str):
            raise MapFileParseError(f"{source}: nodes[{i}].phrase must be a string")


def parse_concept_map(text: str | bytes, source: str = "<string>") -> ConceptMap:
    """Parse and validate the JSON concept-map format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFileParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise MapFileParseError(f"{source}: JSON nested too deeply") from exc
    except UnicodeDecodeError as exc:  # json.loads decodes bytes itself
        raise MapFileParseError(
            f"{source}: not {exc.encoding} text: {exc.reason} at byte {exc.start}"
        ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise MapFileParseError(f"{source}: expected an object with a 'nodes' array")
    subject = doc.get("subject", "untitled")
    if not isinstance(subject, str):
        raise MapFileParseError(f"{source}: 'subject' must be a string")
    return validate_map(ConceptMap.of_columns(subject, *_map_columns(doc["nodes"], source)))


def parse_concept_map_file(path: str | Path) -> ConceptMap:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MapFileParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_concept_map(text.removeprefix("\ufeff"), source=str(path))


def parse_roster(path: str | Path) -> tuple[RosterRecord, ...]:
    """Read a roster CSV; rows keep file order, register numbers must be unique."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise RosterSchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None:
            raise RosterSchemaError(f"{path}: empty roster file")
        missing = [c for c in ROSTER_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise RosterSchemaError(f"{path}: missing column(s): {', '.join(missing)}")
        records: list[RosterRecord] = []
        seen: set[str] = set()
        end = reader.line_num  # where the header ends
        for row in reader:
            # A quoted newline makes a record span lines: it starts on the
            # line after the previous record's end.
            lineno, end = end + 1, reader.line_num
            short = [c for c in ROSTER_COLUMNS if row[c] is None]
            if short:
                raise RosterSchemaError(f"{path}: line {lineno}: missing cell(s): {', '.join(short)}")
            register_no = (row["register_no"] or "").strip()
            if not register_no:
                raise RosterSchemaError(f"{path}: line {lineno}: empty register_no")
            if (register_no in (".", "..") or "/" in register_no or "\\" in register_no
                    or min(register_no) < " "):
                raise RosterSchemaError(
                    f"{path}: line {lineno}: register_no {register_no!r} is not a safe file name"
                )
            if register_no in seen:
                raise DuplicateRegisterError(f"{path}: duplicate register_no {register_no!r}")
            seen.add(register_no)
            records.append(
                RosterRecord(
                    register_no=register_no,
                    name=row["name"],
                    department=row["department"],
                    semester=row["semester"],
                    subject=row["subject"],
                    map_path=row["map_path"],
                )
            )
    except csv.Error as exc:
        raise RosterSchemaError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
    return tuple(records)


def _student_report(
    teacher: ConceptMap, student: ConceptMap, config: RunConfig
) -> tuple[AnalysisResult, tuple[GradedRecord, ...], str]:
    """Full pipeline for one student: integrate, analyze, grade, plan, render."""
    result = analyze(integrate(teacher, student), levels=config.levels)
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records, order=config.order)
    return result, graded, render_report(result, graded, plan, config.report_format)


def run_analyze(config: RunConfig, stderr: TextIO | None = None) -> int:
    """Drive one run and return the process exit status.

    Single mode renders one report to `out_path` (or stdout); batch mode
    writes one report per roster row named ``<register_no>.<format>`` plus a
    cohort summary.  Any error produces a one-line diagnostic on `stderr`.
    """
    err = stderr if stderr is not None else sys.stderr
    collecting = gc.isenabled()
    gc.disable()
    try:
        _run(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


def _replaced_input(target: Path, inputs: list[Path]) -> Path | None:
    """The first of `inputs` that is the existing file `target`.  Callers
    pass only inputs of the target's own file name, so a run whose outputs
    are named unlike its inputs stats nothing."""
    return next((path for path in inputs
                 if target.exists() and path.exists() and target.samefile(path)), None)


def _run(config: RunConfig) -> None:
    if config.student_map_path is not None and config.out_path is not None:
        out = Path(config.out_path)
        inputs = (Path(config.teacher_map_path), Path(config.student_map_path))
        replaced = _replaced_input(out, [path for path in inputs if path.name == out.name])
        if replaced is not None:
            raise InputError(f"--out {out} would overwrite input {replaced}")
    teacher = parse_concept_map_file(config.teacher_map_path)
    if config.student_map_path is not None:
        student = parse_concept_map_file(config.student_map_path)
        _, _, report = _student_report(teacher, student, config)
        if config.out_path is not None:
            Path(config.out_path).write_text(report, encoding="utf-8")
        else:
            sys.stdout.write(report)
        return
    roster = parse_roster(config.roster_path)
    report_names = [f"{rec.register_no}.{config.report_format}" for rec in roster]
    out_dir = Path(config.out_dir or ".")
    map_paths = [Path(config.maps_dir or ".", rec.map_path) for rec in roster]
    named: dict[str, list[Path]] = {}  # file name -> inputs of that name
    for path in (Path(config.teacher_map_path), Path(config.roster_path), *map_paths):
        named.setdefault(path.name, []).append(path)
    for rec, name in zip(roster, report_names):
        if name == SUMMARY_FILENAME or _replaced_input(out_dir / name, named.get(name, [])):
            raise RosterSchemaError(
                f"{config.roster_path}: register_no {rec.register_no!r} would overwrite {name}"
            )
    replaced = _replaced_input(out_dir / SUMMARY_FILENAME, named.get(SUMMARY_FILENAME, []))
    if replaced is not None:
        raise RosterSchemaError(
            f"{config.roster_path}: {SUMMARY_FILENAME} would overwrite input {replaced}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows: list[tuple[str, str, str]] = []
    for rec, report_name, map_path in zip(roster, report_names, map_paths):
        if not map_path.is_file():
            raise InputError(f"student map for {rec.register_no} not found: {map_path}")
        try:
            student = parse_concept_map_file(map_path)
            result, graded, report = _student_report(teacher, student, config)
        except ValidationError as exc:
            raise ValidationError(f"student {rec.register_no} ({map_path}): {exc}") from exc
        (out_dir / report_name).write_text(report, encoding="utf-8")
        summary_rows.append(
            (
                rec.register_no,
                format_fraction(result.expected_result, EXPECTED_RESULT_PLACES),
                ";".join(f"{g.node}={g.grade}" for g in graded),
            )
        )
    with (out_dir / SUMMARY_FILENAME).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["register_no", "expected_result", "grades"])
        writer.writerows(summary_rows)
