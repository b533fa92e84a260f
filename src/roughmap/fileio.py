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
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .analysis import ALL_LEVELS, DEEPEST_ONLY, AnalysisResult, analyze
from .conceptmap import ConceptMap, MapNode, from_columns, integrate, validate_map
from .errors import (
    DuplicateRegisterError,
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


@dataclass(frozen=True)
class RosterRecord:
    register_no: str
    name: str
    department: str
    semester: str
    subject: str
    map_path: str


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; exactly one of single/batch mode selected."""

    teacher_map_path: str
    student_map_path: str | None = None
    roster_path: str | None = None
    maps_dir: str | None = None
    out_path: str | None = None  # single mode; None writes to stdout
    out_dir: str | None = None  # batch mode; None means the current directory
    report_format: str = "text"
    order: str = ASCENDING
    levels: str = DEEPEST_ONLY

    def __post_init__(self) -> None:
        if (self.student_map_path is None) == (self.roster_path is None):
            raise ValueError("exactly one of student_map_path / roster_path must be set")
        if self.report_format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format: {self.report_format!r}")
        if self.order not in (ASCENDING, DESCENDING):
            raise ValueError(f"order must be 'asc' or 'desc', got {self.order!r}")
        if self.levels not in (DEEPEST_ONLY, ALL_LEVELS):
            raise ValueError(f"levels must be 'deepest' or 'all', got {self.levels!r}")


_ID, _PARENT = itemgetter("id"), itemgetter("parent")
_OPTIONAL_STR = {str, type(None)}


def _map_nodes(entries: list, source: str) -> tuple[MapNode, ...]:
    """The nodes of a map's entries.  Their id, parent and phrase columns are
    read in bulk and type-checked as sets; only entries failing that are
    checked one by one, to name the first malformed entry."""
    if set(map(type, entries)) <= {dict}:
        try:
            ids, parents = list(map(_ID, entries)), list(map(_PARENT, entries))
        except KeyError:
            pass
        else:
            phrases = list(map(dict.get, entries, repeat("phrase")))
            if (set(map(type, ids)) <= {str}
                    and set(map(type, parents)) | set(map(type, phrases)) <= _OPTIONAL_STR):
                return from_columns(MapNode, ids, parents, phrases)
    nodes: list[MapNode] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "parent" not in entry:
            raise MapFileParseError(f"{source}: nodes[{i}] must be an object with 'id' and 'parent'")
        nid, parent, phrase = entry["id"], entry["parent"], entry.get("phrase")
        if not isinstance(nid, str):
            raise MapFileParseError(f"{source}: nodes[{i}].id must be a string")
        if parent is not None and not isinstance(parent, str):
            raise MapFileParseError(f"{source}: nodes[{i}].parent must be a string or null")
        if phrase is not None and not isinstance(phrase, str):
            raise MapFileParseError(f"{source}: nodes[{i}].phrase must be a string")
        nodes.append(MapNode(nid, parent, phrase))
    return tuple(nodes)


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
    return validate_map(_map_nodes(doc["nodes"], source), subject=subject)


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


def _run(config: RunConfig) -> None:
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
    if SUMMARY_FILENAME in report_names:
        clash = roster[report_names.index(SUMMARY_FILENAME)].register_no
        raise RosterSchemaError(
            f"{config.roster_path}: register_no {clash!r} would overwrite {SUMMARY_FILENAME}"
        )
    out_dir = Path(config.out_dir) if config.out_dir is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows: list[tuple[str, str, str]] = []
    for rec, report_name in zip(roster, report_names):
        map_path = Path(rec.map_path)
        if config.maps_dir is not None and not map_path.is_absolute():
            map_path = Path(config.maps_dir) / map_path
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
