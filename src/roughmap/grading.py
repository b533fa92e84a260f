"""Letter grades, remediation sequencing, and report rendering.

Grades per boundary node: A for 75% and above, B for 50-74%, C below 50%.
The remediation sequence lists every node whose importance degree is below 1
(a degree of exactly 1 means the whole branch is already known), ordered by
degree in either direction with ties broken by node id.

The JSON report has a fixed layout: 2-space indent, keys in the fixed order
regions, records, total, expected_result, expected_result_display, graded,
plan (order, steps), and non-ASCII characters escaped as ``\\uXXXX``.  Its
bytes are those of ``json.dumps(doc, indent=2) + "\\n"`` for the same
document, though it is written from per-object templates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from operator import attrgetter
from typing import Iterable, Sequence

from .analysis import AnalysisResult, ImportanceRecord, LevelRegions
from .errors import PercentRangeError, ReportFormatError

__all__ = [
    "GradeBand",
    "GRADE_BANDS",
    "GradedRecord",
    "PlanStep",
    "RemediationPlan",
    "REPORT_FORMATS",
    "assign_grade",
    "grade_records",
    "remediation_sequence",
    "render_report",
    "parse_report",
    "format_fraction",
]

REPORT_FORMATS = ("text", "csv", "json")
ASCENDING = "asc"
DESCENDING = "desc"

EXPECTED_RESULT_PLACES = 3


@dataclass(frozen=True)
class GradeBand:
    grade: str
    lower_bound_percent: int  # inclusive


#: Highest band first; the first band whose bound the percent reaches wins.
#: Together they cover 0..100 without overlap.
GRADE_BANDS: tuple[GradeBand, ...] = (
    GradeBand("A", 75),
    GradeBand("B", 50),
    GradeBand("C", 0),
)


@dataclass(frozen=True)
class GradedRecord:
    node: str
    expected_percent: int  # always 100
    actual_percent: int
    grade: str


@dataclass(frozen=True)
class PlanStep:
    node: str
    alpha: Fraction


@dataclass(frozen=True)
class RemediationPlan:
    order: str  # "asc" | "desc"
    steps: tuple[PlanStep, ...]


def assign_grade(actual_percent: int) -> str:
    """Letter grade for an integer percentage in 0..100."""
    if not 0 <= actual_percent <= 100:
        raise PercentRangeError(f"percent out of range 0..100: {actual_percent}")
    for band in GRADE_BANDS:
        if actual_percent >= band.lower_bound_percent:
            return band.grade
    raise AssertionError("grade bands must cover 0..100")


def grade_records(records: Sequence[ImportanceRecord]) -> tuple[GradedRecord, ...]:
    """One graded row per record; the percent is the alpha truncated to an
    integer percentage."""
    out = []
    for rec in records:
        percent = rec.alpha.numerator * 100 // rec.alpha.denominator
        out.append(
            GradedRecord(
                node=rec.node,
                expected_percent=100,
                actual_percent=percent,
                grade=assign_grade(percent),
            )
        )
    return tuple(out)


def remediation_sequence(
    records: Sequence[ImportanceRecord], order: str = ASCENDING
) -> RemediationPlan:
    """Nodes with alpha below 1, sorted by alpha; ties broken by node id."""
    if order not in (ASCENDING, DESCENDING):
        raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
    pending = [r for r in records if r.overlap < r.child_count]
    # Two stable passes give the (alpha, node) / (-alpha, node) order with no
    # tuple keys or negated Fractions; reverse=True keeps ties in node order.
    # The second pass sorts on alpha * lcm(child counts), an exact integer,
    # so no Fraction is compared.
    scale = math.lcm(*{r.child_count for r in pending})
    pending.sort(key=attrgetter("node"))
    pending.sort(key=lambda r: r.overlap * (scale // r.child_count), reverse=order == DESCENDING)
    return RemediationPlan(order=order, steps=tuple(PlanStep(r.node, r.alpha) for r in pending))


def format_fraction(value: Fraction, places: int) -> str:
    """Fixed-point truncation toward zero with trailing zeros stripped."""
    scale = 10 ** places
    whole, frac = divmod(value.numerator * scale // value.denominator, scale)
    digits = f"{frac:0{places}d}".rstrip("0")
    return f"{whole}.{digits}" if digits else str(whole)


def render_report(
    result: AnalysisResult,
    graded: Sequence[GradedRecord],
    plan: RemediationPlan,
    report_format: str = "text",
) -> str:
    """Serialize one analysis deterministically in the requested format."""
    # A report holds few distinct degrees: format each once, keyed by a tuple
    # because hashing a Fraction is far slower.
    strings: dict[tuple[int, int], tuple[str, str]] = {}

    def degree(alpha: Fraction) -> tuple[str, str]:  # (str(alpha), display)
        key = (alpha.numerator, alpha.denominator)
        if key not in strings:
            strings[key] = (str(alpha), format_fraction(alpha, 2))
        return strings[key]

    if report_format == "text":
        return _render_text(result, graded, plan, degree)
    if report_format == "csv":
        return _render_csv(result, graded, plan, degree)
    if report_format == "json":
        return _render_json(result, graded, plan, degree)
    raise ReportFormatError(f"unknown report format: {report_format!r}")


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _render_text(result, graded, plan, degree) -> str:
    lines: list[str] = ["Level regions", "-------------"]
    for reg in result.regions:
        lines.append(
            f"level {reg.level}: POS={{{', '.join(reg.pos)}}}"
            f"  NEG={{{', '.join(reg.neg)}}}  BND={{{', '.join(reg.bnd)}}}"
        )
    lines += ["", "Result analysis", "---------------"]
    # Rows are labelled with the level of the children being aggregated,
    # i.e. the level of the boundary set the node belongs to.
    rows = [
        [
            rec.node,
            str(rec.level + 1),
            str(rec.child_count),
            str(rec.overlap),
            f"{rec.overlap}/{rec.child_count}={degree(rec.alpha)[1]}",
        ]
        for rec in result.records
    ]
    lines += _table(["BND set", "Level", "Children", "Green", "Importance"], rows)
    if result.records:
        lines.append(
            f"total = {format_fraction(result.total, 2)}"
            f"   records = {len(result.records)}"
            f"   expected result = {format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)}"
        )
    lines += ["", "Grades", "------"]
    rows = [
        [g.node, str(g.expected_percent), str(g.actual_percent), g.grade]
        for g in graded
    ]
    lines += _table(["BND set", "Expected (%)", "Actual (%)", "Grade"], rows)
    direction = "smallest" if plan.order == ASCENDING else "largest"
    lines += ["", f"Remediation sequence ({direction} importance first)",
              "-" * len(f"Remediation sequence ({direction} importance first)")]
    for i, step in enumerate(plan.steps, start=1):
        lines.append(f"{i}. {step.node}  {degree(step.alpha)[1]}")
    return "\n".join(lines) + "\n"


def _render_csv(result, graded, plan, degree) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["node", "level", "child_count", "overlap", "alpha",
         "expected_percent", "actual_percent", "grade"]
    )
    graded_by_node = {g.node: g for g in graded}
    for rec in result.records:
        g = graded_by_node[rec.node]
        writer.writerow(
            [rec.node, rec.level + 1, rec.child_count, rec.overlap,
             degree(rec.alpha)[1], g.expected_percent, g.actual_percent, g.grade]
        )
    if result.records:
        writer.writerow(["total", format_fraction(result.total, 2)])
        writer.writerow(["expected_result",
                         format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)])
        writer.writerow(["remediation_order", plan.order])
        for step in plan.steps:
            writer.writerow(["remediation", step.node, degree(step.alpha)[1]])
    return buf.getvalue()


# One template per object kind.  Strings go through the encoder json.dumps
# itself uses, ints through str; degrees are digits, "/" and "." only.
_JSON_REPORT = """{
  "regions": %s,
  "records": %s,
  "total": "%s",
  "expected_result": "%s",
  "expected_result_display": "%s",
  "graded": %s,
  "plan": {
    "order": %s,
    "steps": %s
  }
}
"""
_JSON_REGION = """{
      "level": %s,
      "pos": %s,
      "neg": %s,
      "bnd": %s
    }"""
_JSON_RECORD = """{
      "node": %s,
      "level": %s,
      "child_count": %s,
      "overlap": %s,
      "alpha": "%s",
      "alpha_display": "%s"
    }"""
_JSON_GRADED = """{
      "node": %s,
      "expected_percent": %s,
      "actual_percent": %s,
      "grade": %s
    }"""
_JSON_STEP = """{
        "node": %s,
        "alpha": "%s",
        "alpha_display": "%s"
      }"""


def _json_array(items: Iterable[str], indent: str) -> str:
    """Already-encoded `items`, none of them empty, as an ``indent=2`` array
    whose items sit at `indent`."""
    joined = f",\n{indent}".join(items)
    return f"[\n{indent}{joined}\n{indent[2:]}]" if joined else "[]"


def _json_ids(ids: Sequence[str]) -> str:
    return _json_array(map(_encode, ids), " " * 8)


def _render_json(result, graded, plan, degree) -> str:
    regions = [
        _JSON_REGION % (r.level, _json_ids(r.pos), _json_ids(r.neg), _json_ids(r.bnd))
        for r in result.regions
    ]
    records = [
        _JSON_RECORD % (_encode(rec.node), rec.level, rec.child_count, rec.overlap,
                        *degree(rec.alpha))
        for rec in result.records
    ]
    graded_rows = [
        _JSON_GRADED % (_encode(g.node), g.expected_percent, g.actual_percent, _encode(g.grade))
        for g in graded
    ]
    steps = [_JSON_STEP % (_encode(s.node), *degree(s.alpha)) for s in plan.steps]
    return _JSON_REPORT % (
        _json_array(regions, " " * 4),
        _json_array(records, " " * 4),
        result.total,
        result.expected_result,
        format_fraction(result.expected_result, EXPECTED_RESULT_PLACES),
        _json_array(graded_rows, " " * 4),
        _encode(plan.order),
        _json_array(steps, " " * 6),
    )


def parse_report(text: str) -> tuple[AnalysisResult, tuple[GradedRecord, ...], RemediationPlan]:
    """Inverse of ``render_report(..., "json")``."""
    doc = json.loads(text)
    regions = tuple(
        LevelRegions(level=r["level"], pos=tuple(r["pos"]), neg=tuple(r["neg"]),
                     bnd=tuple(r["bnd"]))
        for r in doc["regions"]
    )
    records = tuple(
        ImportanceRecord(
            node=r["node"],
            level=r["level"],
            child_count=r["child_count"],
            overlap=r["overlap"],
            alpha=Fraction(r["alpha"]),
        )
        for r in doc["records"]
    )
    result = AnalysisResult(
        regions=regions, records=records, expected_result=Fraction(doc["expected_result"])
    )
    graded = tuple(
        GradedRecord(node=g["node"], expected_percent=g["expected_percent"],
                     actual_percent=g["actual_percent"], grade=g["grade"])
        for g in doc["graded"]
    )
    plan = RemediationPlan(
        order=doc["plan"]["order"],
        steps=tuple(PlanStep(node=s["node"], alpha=Fraction(s["alpha"]))
                    for s in doc["plan"]["steps"]),
    )
    return result, graded, plan
