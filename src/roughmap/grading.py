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
document.  Two helpers write that layout: `_json_array` joins encoded items,
and `_json_object` builds each object kind's ``%``-template once, at import;
every value, string or int, fills its slot already encoded.
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
from .errors import PercentRangeError, ReportFormatError, ValidationError

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
    return next(band.grade for band in GRADE_BANDS if actual_percent >= band.lower_bound_percent)


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


def _check_order(order: str) -> None:
    if order not in (ASCENDING, DESCENDING):
        raise ValidationError(f"order must be 'asc' or 'desc', got {order!r}")


def remediation_sequence(
    records: Sequence[ImportanceRecord], order: str = ASCENDING
) -> RemediationPlan:
    """Nodes with alpha below 1, sorted by alpha; ties broken by node id."""
    _check_order(order)
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


def _json_array(items: Iterable[str], indent: str) -> str:
    """Already-encoded `items`, none of them empty, as an ``indent=2`` array
    whose items sit at `indent`."""
    joined = f",\n{indent}".join(items)
    return f"[\n{indent}{joined}\n{indent[2:]}]" if joined else "[]"


def _json_object(keys: Iterable[str], indent: str) -> str:
    """A ``%``-template of an ``indent=2`` object whose `keys` sit at
    `indent`, with one ``%s`` slot for each already-encoded value."""
    slots = _json_array([f"{_encode(key)}: %s" for key in keys], indent)
    return "{" + slots[1:-1] + "}"  # the array's brackets become braces


_REGION = _json_object(("level", "pos", "neg", "bnd"), " " * 6)
_RECORD = _json_object(("node", "level", "child_count", "overlap", "alpha", "alpha_display"),
                       " " * 6)
_GRADED = _json_object(("node", "expected_percent", "actual_percent", "grade"), " " * 6)
_STEP = _json_object(("node", "alpha", "alpha_display"), " " * 8)
_PLAN = _json_object(("order", "steps"), " " * 4)
_REPORT = _json_object(("regions", "records", "total", "expected_result",
                        "expected_result_display", "graded", "plan"), " " * 2) + "\n"


def _render_json(result, graded, plan) -> str:
    regions, records, steps = result.regions, result.records, plan.steps
    exact, step_exact, display, step_display = _degrees(
        result, plan, lambda alpha: _encode(str(alpha)), lambda alpha: _encode(_display(alpha)))
    id_arrays = ([_json_array(map(_encode, ids), " " * 8) for ids in map(column, regions)]
                 for column in (_pos, _neg, _bnd))
    region_items = map(_REGION.__mod__, zip(map(_level, regions), *id_arrays))
    record_items = map(_RECORD.__mod__, zip(
        map(_encode, map(_node, records)), map(_level, records), map(_child_count, records),
        map(_overlap, records), exact, display))
    graded_items = map(_GRADED.__mod__, zip(
        map(_encode, map(_node, graded)), map(_expected, graded), map(_actual, graded),
        map(_encode, map(_grade, graded))))
    step_items = map(_STEP.__mod__, zip(map(_encode, map(_node, steps)), step_exact, step_display))
    expected = result.expected_result
    return _REPORT % (
        _json_array(region_items, " " * 4),
        _json_array(record_items, " " * 4),
        _encode(str(result.total)),
        _encode(str(expected)),
        _encode(format_fraction(expected, EXPECTED_RESULT_PLACES)),
        _json_array(graded_items, " " * 4),
        _PLAN % (_encode(plan.order), _json_array(step_items, " " * 6)),
    )


_RENDERERS = {"text": _render_text, "csv": _render_csv, "json": _render_json}
REPORT_FORMATS = tuple(_RENDERERS)


def _check_report_format(report_format: str) -> None:
    if report_format not in REPORT_FORMATS:
        raise ReportFormatError(f"unknown report format: {report_format!r}")


def render_report(
    result: AnalysisResult,
    graded: Sequence[GradedRecord],
    plan: RemediationPlan,
    report_format: str = "text",
) -> str:
    """Serialize one analysis deterministically in the requested format."""
    _check_report_format(report_format)
    return _RENDERERS[report_format](result, graded, plan)


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
