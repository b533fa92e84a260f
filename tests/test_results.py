"""Differential tests for the result layer: level regions, importance
records, grades, the plan and the three report renderers.  On every input
the records must equal the reference's (`reference.py`) field by field and
every report must be identical.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
import strategies
from roughmap.analysis import (
    ALL_LEVELS, DEEPEST_ONLY, ImportanceRecord, LevelRegions, analyze, level_regions)
from roughmap.conceptmap import integrate, validate_map
from roughmap.errors import PercentRangeError
from roughmap.grading import (
    GradedRecord, PlanStep, _table, grade_records, remediation_sequence, render_report)

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
    nodes = [[(rename[n.id], rename.get(n.parent)) for n in m.nodes] for m in (teacher, student)]
    imap = integrate(*(validate_map(m, subject=teacher.subject) for m in nodes))
    rows = reference.integrate(*nodes)
    levels = data.draw(st.sampled_from([DEEPEST_ONLY, ALL_LEVELS]))
    order = data.draw(st.sampled_from(["asc", "desc"]))

    regions = level_regions(imap)
    assert regions == reference.level_regions(rows)
    assert all(type(r) is LevelRegions for r in regions)

    result, expected = analyze(imap, levels), reference.analyze(rows, levels)
    assert result == expected
    assert all(type(r) is ImportanceRecord and type(r.alpha) is Fraction for r in result.records)

    graded = grade_records(result.records)
    expected_graded = reference.grades(expected.records)
    assert graded == expected_graded
    assert all(type(g) is GradedRecord for g in graded)

    plan = remediation_sequence(result.records, order)
    expected_plan = reference.plan(expected.records, order)
    assert plan == expected_plan
    assert all(type(s) is PlanStep for s in plan.steps)
    for fmt, render in reference.RENDERERS.items():
        assert (render_report(result, graded, plan, fmt)
                == render(expected, expected_graded, expected_plan))


def test_grades_match_reference_on_every_percent():
    """Every integer percent, and the degrees just below and at each band
    edge, grade as the band table says."""
    records = [ImportanceRecord(f"n{q}/{p}", 1, q, p, Fraction(p, q))
               for q in (1, 2, 3, 4, 7, 100, 1000) for p in range(q + 1)]
    assert grade_records(records) == reference.grades(records)


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
    assert _table(headers, columns) == reference.table(headers, rows)
