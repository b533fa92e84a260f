"""Differential tests for the result layer: level regions, importance
records, grades and the three report renderers.

The ``reference_*`` functions are the per-record implementations that the
columnar result layer replaced, kept as the oracle: one record object and
one Fraction per row, a per-level scan of the nodes, one `assign_grade` call
per record, a tuple-key sort for the plan, a per-cell width scan and per-row
degree formatting.  On every input the records must be equal field by field
and every report identical.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from roughmap.analysis import (
    ALL_LEVELS,
    DEEPEST_ONLY,
    TRUNCATION_PLACES,
    AnalysisResult,
    ImportanceRecord,
    LevelRegions,
    analyze,
    level_regions,
)
from roughmap.conceptmap import NodeColor, integrate, validate_map
from roughmap.errors import PercentRangeError
from roughmap.grading import (
    ASCENDING,
    EXPECTED_RESULT_PLACES,
    GradedRecord,
    PlanStep,
    RemediationPlan,
    _table,
    assign_grade,
    format_fraction,
    grade_records,
    remediation_sequence,
    render_report,
)
from test_grading import reference_json


def reference_level_regions(imap) -> tuple:
    deepest = max(n.level for n in imap.nodes)
    out = []
    for level in range(deepest, 0, -1):
        classified = [n for n in imap.nodes if n.level == level]
        out.append(LevelRegions(
            level=level,
            pos=tuple(n.id for n in classified if n.color is NodeColor.GREEN),
            neg=tuple(n.id for n in classified if n.color is NodeColor.RED),
            bnd=tuple(dict.fromkeys(n.parent for n in classified)),
        ))
    return tuple(out)


def reference_analyze(imap, levels: str) -> AnalysisResult:
    regions = reference_level_regions(imap)
    chosen = regions[:1] if levels == DEEPEST_ONLY else regions
    green = {n.id for n in imap.nodes if n.color is NodeColor.GREEN}
    records = []
    for reg in chosen:
        for node in reg.bnd:
            children = imap.children_of[node]
            inside = sum(child in green for child in children)
            records.append(ImportanceRecord(node=node, level=reg.level - 1,
                                            child_count=len(children), overlap=inside,
                                            alpha=Fraction(inside, len(children))))
    scale = 10 ** TRUNCATION_PLACES
    total = Fraction(sum(r.overlap * scale // r.child_count for r in records), scale)
    return AnalysisResult(regions=regions, records=tuple(records),
                          expected_result=total / len(records))


def reference_grade_records(records) -> tuple:
    out = []
    for rec in records:
        percent = rec.alpha.numerator * 100 // rec.alpha.denominator
        out.append(GradedRecord(node=rec.node, expected_percent=100, actual_percent=percent,
                                grade=assign_grade(percent)))
    return tuple(out)


def reference_plan(records, order: str) -> RemediationPlan:
    pending = [r for r in records if r.alpha < 1]
    key = (lambda r: (r.alpha, r.node)) if order == ASCENDING else (lambda r: (-r.alpha, r.node))
    steps = tuple(PlanStep(r.node, r.alpha) for r in sorted(pending, key=key))
    return RemediationPlan(order, steps)


def reference_table(headers, rows) -> list:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def reference_text(result, graded, plan) -> str:
    def degree(alpha):
        return format_fraction(alpha, 2)

    lines = ["Level regions", "-------------"]
    for reg in result.regions:
        lines.append(
            f"level {reg.level}: POS={{{', '.join(reg.pos)}}}"
            f"  NEG={{{', '.join(reg.neg)}}}  BND={{{', '.join(reg.bnd)}}}"
        )
    lines += ["", "Result analysis", "---------------"]
    rows = [[rec.node, str(rec.level + 1), str(rec.child_count), str(rec.overlap),
             f"{rec.overlap}/{rec.child_count}={degree(rec.alpha)}"]
            for rec in result.records]
    lines += reference_table(["BND set", "Level", "Children", "Green", "Importance"], rows)
    if result.records:
        lines.append(
            f"total = {format_fraction(result.total, 2)}"
            f"   records = {len(result.records)}"
            f"   expected result = {format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)}"
        )
    lines += ["", "Grades", "------"]
    rows = [[g.node, str(g.expected_percent), str(g.actual_percent), g.grade] for g in graded]
    lines += reference_table(["BND set", "Expected (%)", "Actual (%)", "Grade"], rows)
    title = ("Remediation sequence (smallest importance first)" if plan.order == ASCENDING
             else "Remediation sequence (largest importance first)")
    lines += ["", title, "-" * len(title)]
    for i, step in enumerate(plan.steps, start=1):
        lines.append(f"{i}. {step.node}  {degree(step.alpha)}")
    return "\n".join(lines) + "\n"


def reference_csv(result, graded, plan) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "level", "child_count", "overlap", "alpha",
                     "expected_percent", "actual_percent", "grade"])
    graded_by_node = {g.node: g for g in graded}
    for rec in result.records:
        g = graded_by_node[rec.node]
        writer.writerow([rec.node, rec.level + 1, rec.child_count, rec.overlap,
                         format_fraction(rec.alpha, 2), g.expected_percent, g.actual_percent,
                         g.grade])
    if result.records:
        writer.writerow(["total", format_fraction(result.total, 2)])
        writer.writerow(["expected_result",
                         format_fraction(result.expected_result, EXPECTED_RESULT_PLACES)])
        writer.writerow(["remediation_order", plan.order])
        for step in plan.steps:
            writer.writerow(["remediation", step.node, format_fraction(step.alpha, 2)])
    return buf.getvalue()


REFERENCE_RENDERERS = {"text": reference_text, "csv": reference_csv, "json": reference_json}

# Ids with the characters csv quotes and JSON escapes, controls and
# non-ASCII ones included.
_NODE_IDS = st.text(
    st.one_of(st.sampled_from('"\\,\x00\x1f\n\t é€\u2028\U0001f600'),
              st.characters(codec="utf-8")),
    min_size=1, max_size=5,
)


@given(strategies.teacher_student_pairs(), st.data())
@settings(max_examples=200, deadline=None)
def test_result_layer_matches_reference(pair, data):
    teacher, student = pair
    ids = data.draw(st.lists(_NODE_IDS, min_size=len(teacher.nodes),
                             max_size=len(teacher.nodes), unique=True))
    rename = dict(zip((n.id for n in teacher.nodes), ids))
    teacher, student = (
        validate_map([(rename[n.id], rename.get(n.parent)) for n in m.nodes], subject=m.subject)
        for m in (teacher, student)
    )
    imap = integrate(teacher, student)
    levels = data.draw(st.sampled_from([DEEPEST_ONLY, ALL_LEVELS]))
    order = data.draw(st.sampled_from(["asc", "desc"]))

    regions = level_regions(imap)
    assert regions == reference_level_regions(imap)
    assert all(type(r) is LevelRegions for r in regions)

    result, expected = analyze(imap, levels), reference_analyze(imap, levels)
    assert result.regions == expected.regions
    assert [r._asdict() for r in result.records] == [r._asdict() for r in expected.records]
    assert all(type(r) is ImportanceRecord and type(r.alpha) is Fraction for r in result.records)
    assert result.expected_result == expected.expected_result

    graded = grade_records(result.records)
    expected_graded = reference_grade_records(expected.records)
    assert graded == expected_graded
    assert all(type(g) is GradedRecord for g in graded)

    plan = remediation_sequence(result.records, order)
    expected_plan = reference_plan(expected.records, order)
    assert plan == expected_plan
    assert all(type(s) is PlanStep for s in plan.steps)
    for fmt, reference in REFERENCE_RENDERERS.items():
        assert (render_report(result, graded, plan, fmt)
                == reference(expected, expected_graded, expected_plan))


def test_grades_match_reference_on_every_percent():
    """Every integer percent, and the degrees just below and at each band
    edge, grade as one `assign_grade` call per record does."""
    records = [ImportanceRecord(f"n{q}/{p}", 1, q, p, Fraction(p, q))
               for q in (1, 2, 3, 4, 7, 100, 1000) for p in range(q + 1)]
    assert grade_records(records) == reference_grade_records(records)


@pytest.mark.parametrize("overlap,child_count", [(4, 3), (-1, 3), (101, 1)])
def test_grade_records_rejects_a_percent_out_of_range(overlap, child_count):
    good = ImportanceRecord("a", 1, 2, 1, Fraction(1, 2))
    bad = ImportanceRecord("b", 1, child_count, overlap, Fraction(overlap, child_count))
    with pytest.raises(PercentRangeError, match="percent out of range"):
        grade_records([good, bad])


_CELLS = st.text(st.sampled_from("ab \t\u00e9\U0001f600"), max_size=4)


@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.text(st.sampled_from("Hx é"), min_size=1, max_size=6),
             min_size=width, max_size=width),
    st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=5),
)))
def test_table_matches_reference(table):
    headers, rows = table
    columns = [[row[i] for row in rows] for i in range(len(headers))]
    assert _table(headers, columns) == reference_table(headers, rows)
