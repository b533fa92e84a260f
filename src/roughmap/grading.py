"""Letter grades, remediation sequencing, and report rendering.

Grades per boundary node: A for 75% and above, B for 50-74%, C below 50%.
The remediation sequence lists every node whose importance degree is below 1
(a degree of exactly 1 means the whole branch is already known), ordered by
degree in either direction with ties broken by node id.

Graded rows and plan steps are named tuples built in bulk from columns, and
renderers read columns; records of one degree share one Fraction, which each
report formats once.

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
from fractions import Fraction
from functools import partial
from itertools import compress, count, repeat
from json.encoder import encode_basestring_ascii as _encode
from operator import add, attrgetter, floordiv, lt, mul
from typing import Iterable, NamedTuple, Sequence

from .analysis import TRUNCATION_PLACES, AnalysisResult, ImportanceRecord, LevelRegions
from .conceptmap import from_columns
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


class GradeBand(NamedTuple):
    grade: str
    lower_bound_percent: int  # inclusive


#: Highest band first; the first band whose bound the percent reaches wins.
#: Together they cover 0..100 without overlap.
GRADE_BANDS: tuple[GradeBand, ...] = (
    GradeBand("A", 75),
    GradeBand("B", 50),
    GradeBand("C", 0),
)


class GradedRecord(NamedTuple):
    node: str
    expected_percent: int  # always 100
    actual_percent: int
    grade: str


class PlanStep(NamedTuple):
    node: str
    alpha: Fraction


class RemediationPlan(NamedTuple):
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


# Columns of records, graded rows, plan steps and regions, read in C.
_node, _alpha, _level = attrgetter("node"), attrgetter("alpha"), attrgetter("level")
_child_count, _overlap, _grade = attrgetter("child_count"), attrgetter("overlap"), attrgetter("grade")
_expected, _actual = attrgetter("expected_percent"), attrgetter("actual_percent")
_pos, _neg, _bnd = attrgetter("pos"), attrgetter("neg"), attrgetter("bnd")

#: The grade of each percent 0..100, by index.
_GRADE_OF_PERCENT = tuple(map(assign_grade, range(101)))


def grade_records(records: Sequence[ImportanceRecord]) -> tuple[GradedRecord, ...]:
    """One graded row per record; the percent is the alpha truncated to an
    integer percentage."""
    percents = list(map(floordiv, map(mul, map(_overlap, records), repeat(100)),
                        map(_child_count, records)))
    if percents and not 0 <= min(percents) <= max(percents) <= 100:
        assign_grade(next(p for p in percents if not 0 <= p <= 100))  # raises
    return from_columns(GradedRecord, map(_node, records), repeat(100), percents,
                        map(_GRADE_OF_PERCENT.__getitem__, percents))


def remediation_sequence(
    records: Sequence[ImportanceRecord], order: str = ASCENDING
) -> RemediationPlan:
    """Nodes with alpha below 1, sorted by alpha; ties broken by node id."""
    if order not in (ASCENDING, DESCENDING):
        raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
    pending = list(compress(records, map(lt, map(_overlap, records), map(_child_count, records))))
    # Two stable passes give the (alpha, node) / (-alpha, node) order with no
    # tuple keys or negated Fractions; reverse=True keeps ties in node order.
    # The second pass sorts on alpha * lcm(child counts), an exact integer,
    # so no Fraction is compared.
    scale = math.lcm(*set(map(_child_count, pending)))
    pending.sort(key=_node)
    pending.sort(key=lambda r: r.overlap * (scale // r.child_count), reverse=order == DESCENDING)
    return RemediationPlan(order=order, steps=from_columns(PlanStep, map(_node, pending),
                                                           map(_alpha, pending)))


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
    if report_format == "text":
        return _render_text(result, graded, plan)
    if report_format == "csv":
        return _render_csv(result, graded, plan)
    if report_format == "json":
        return _render_json(result, graded, plan)
    raise ReportFormatError(f"unknown report format: {report_format!r}")


_display = partial(format_fraction, places=TRUNCATION_PLACES)


def _degrees(result: AnalysisResult, plan: RemediationPlan, *forms) -> list[list[str]]:
    """For each of `forms`, its strings of the records' alphas, then of the
    plan steps'.  Records of a degree share one Fraction and steps reuse
    them, so each form runs once per object, told apart by id (hashing a
    Fraction runs Python code); `alphas` keeps the objects alive."""
    alphas = list(map(_alpha, result.records))
    alphas += map(_alpha, plan.steps)
    keys = list(map(id, alphas))
    distinct = dict(zip(keys, alphas))
    columns = []
    for form in forms:
        column = list(map(dict(zip(distinct, map(form, distinct.values()))).__getitem__, keys))
        columns += [column[:len(result.records)], column[len(result.records):]]
    return columns


def _table(headers: Sequence[str], columns: Iterable[Iterable[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, header row first, trailing
    blanks stripped."""
    columns = [[header, *column] for header, column in zip(headers, columns)]
    padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in columns[:-1]]
    return list(map(str.rstrip, map("  ".join, zip(*padded, columns[-1]))))


_join = ", ".join
_REGION_LINE = "level {}: POS={{{}}}  NEG={{{}}}  BND={{{}}}".format


def _render_text(result, graded, plan) -> str:
    regions, records, steps = result.regions, result.records, plan.steps
    degrees, step_degrees = _degrees(result, plan, _display)
    lines: list[str] = ["Level regions", "-------------"]
    lines += map(_REGION_LINE, map(_level, regions), map(_join, map(_pos, regions)),
                 map(_join, map(_neg, regions)), map(_join, map(_bnd, regions)))
    lines += ["", "Result analysis", "---------------"]
    # Rows are labelled with the level of the children being aggregated,
    # i.e. the level of the boundary set the node belongs to.
    counts = list(map(str, map(_child_count, records)))
    overlaps = list(map(str, map(_overlap, records)))
    lines += _table(
        ["BND set", "Level", "Children", "Green", "Importance"],
        [map(_node, records), map(str, map(add, map(_level, records), repeat(1))), counts,
         overlaps, map("{}/{}={}".format, overlaps, counts, degrees)],
    )
    if records:
        lines.append(
            f"total = {_display(result.total)}"
            f"   records = {len(records)}"
            f"   expected result = {format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)}"
        )
    lines += ["", "Grades", "------"]
    lines += _table(
        ["BND set", "Expected (%)", "Actual (%)", "Grade"],
        [map(_node, graded), map(str, map(_expected, graded)), map(str, map(_actual, graded)),
         map(_grade, graded)],
    )
    direction = "smallest" if plan.order == ASCENDING else "largest"
    title = f"Remediation sequence ({direction} importance first)"
    lines += ["", title, "-" * len(title)]
    lines += map("{}. {}  {}".format, count(1), map(_node, steps), step_degrees)
    return "\n".join(lines) + "\n"


def _render_csv(result, graded, plan) -> str:
    records, steps = result.records, plan.steps
    degrees, step_degrees = _degrees(result, plan, _display)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "level", "child_count", "overlap", "alpha",
                     "expected_percent", "actual_percent", "grade"])
    rows = list(map(dict(zip(map(_node, graded), graded)).__getitem__, map(_node, records)))
    writer.writerows(zip(map(_node, records), map(add, map(_level, records), repeat(1)),
                         map(_child_count, records), map(_overlap, records), degrees,
                         map(_expected, rows), map(_actual, rows), map(_grade, rows)))
    if records:
        writer.writerow(["total", _display(result.total)])
        writer.writerow(["expected_result",
                         format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)])
        writer.writerow(["remediation_order", plan.order])
        writer.writerows(zip(repeat("remediation"), map(_node, steps), step_degrees))
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


_IDS_SEP, _EMPTY_IDS = ",\n        ", {0: "[]"}
_IDS_ARRAY = "[\n        %s\n      ]".__mod__


def _json_id_arrays(columns: Iterable[Sequence[str]]) -> Iterable[str]:
    """`_json_array` of each id tuple of a region column, built by C-level
    passes over the whole column; empty tuples are told apart by length."""
    columns = list(columns)
    arrays = map(_IDS_ARRAY, map(_IDS_SEP.join, map(map, repeat(_encode), columns)))
    return map(_EMPTY_IDS.get, map(len, columns), arrays)


def _render_json(result, graded, plan) -> str:
    regions, records, steps = result.regions, result.records, plan.steps
    exact, step_exact, display, step_display = _degrees(result, plan, str, _display)
    region_items = map(_JSON_REGION.__mod__, zip(
        map(_level, regions), _json_id_arrays(map(_pos, regions)),
        _json_id_arrays(map(_neg, regions)), _json_id_arrays(map(_bnd, regions))))
    record_items = map(_JSON_RECORD.__mod__, zip(
        map(_encode, map(_node, records)), map(_level, records), map(_child_count, records),
        map(_overlap, records), exact, display))
    graded_items = map(_JSON_GRADED.__mod__, zip(
        map(_encode, map(_node, graded)), map(_expected, graded), map(_actual, graded),
        map(_encode, map(_grade, graded))))
    step_items = map(_JSON_STEP.__mod__, zip(
        map(_encode, map(_node, steps)), step_exact, step_display))
    return _JSON_REPORT % (
        _json_array(region_items, " " * 4),
        _json_array(record_items, " " * 4),
        result.total,
        result.expected_result,
        format_fraction(result.expected_result, EXPECTED_RESULT_PLACES),
        _json_array(graded_items, " " * 4),
        _encode(plan.order),
        _json_array(step_items, " " * 6),
    )


def parse_report(text: str) -> tuple[AnalysisResult, tuple[GradedRecord, ...], RemediationPlan]:
    """Inverse of ``render_report(..., "json")``."""
    doc = json.loads(text)
    regions = tuple(LevelRegions(r["level"], tuple(r["pos"]), tuple(r["neg"]), tuple(r["bnd"]))
                    for r in doc["regions"])
    records = tuple(ImportanceRecord(r["node"], r["level"], r["child_count"], r["overlap"],
                                     Fraction(r["alpha"])) for r in doc["records"])
    graded = tuple(GradedRecord(g["node"], g["expected_percent"], g["actual_percent"], g["grade"])
                   for g in doc["graded"])
    steps = tuple(PlanStep(s["node"], Fraction(s["alpha"])) for s in doc["plan"]["steps"])
    return (AnalysisResult(regions, records, Fraction(doc["expected_result"])), graded,
            RemediationPlan(doc["plan"]["order"], steps))
