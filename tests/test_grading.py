from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
import strategies
from roughmap.analysis import ALL_LEVELS, DEEPEST_ONLY, AnalysisResult, ImportanceRecord, analyze
from roughmap.conceptmap import integrate, validate_map
from roughmap.grading import (
    GRADE_BANDS,
    RemediationPlan,
    assign_grade,
    format_fraction,
    grade_records,
    parse_report,
    remediation_sequence,
    render_report,
)
from test_faults import collect_rows

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _rec(node: str, overlap: int, child_count: int, level: int = 1) -> ImportanceRecord:
    return ImportanceRecord(node=node, level=level, child_count=child_count,
                            overlap=overlap, alpha=Fraction(overlap, child_count))


@pytest.fixture(scope="module")
def sample_analysis(sample_integrated):
    result = analyze(sample_integrated)
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records, "asc")
    return result, graded, plan


class TestAssignGrade:
    @pytest.mark.parametrize(
        "percent,grade",
        [(66, "B"), (33, "C"), (100, "A"), (50, "B"), (25, "C"),
         (75, "A"), (74, "B"), (49, "C"), (0, "C")],
    )
    def test_bands(self, percent, grade):
        assert assign_grade(percent) == grade

    def test_band_table_shape(self):
        assert [(b.grade, b.lower_bound_percent) for b in GRADE_BANDS] == [
            ("A", 75), ("B", 50), ("C", 0)]


class TestGradeRecords:
    def test_sample_fixture(self, sample_analysis):
        _, graded, _ = sample_analysis
        assert [g.node for g in graded] == ["U1", "U2", "U3", "U4", "U5"]
        assert [g.actual_percent for g in graded] == [66, 33, 100, 50, 25]
        assert [g.grade for g in graded] == ["B", "C", "A", "B", "C"]
        assert all(g.expected_percent == 100 for g in graded)

    def test_all_perfect(self):
        graded = grade_records([_rec("a", 2, 2), _rec("b", 3, 3)])
        assert [g.grade for g in graded] == ["A", "A"]

    def test_one_third_truncates_to_33(self):
        (g,) = grade_records([_rec("n", 1, 3)])
        assert g.actual_percent == 33
        assert g.grade == "C"



class TestRemediationSequence:
    def test_sample_ascending(self, sample_analysis):
        _, _, plan = sample_analysis
        assert [s.node for s in plan.steps] == ["U5", "U2", "U4", "U1"]
        assert [s.alpha for s in plan.steps] == [
            Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]

    def test_sample_descending_is_reverse(self, sample_analysis):
        result, _, asc = sample_analysis
        desc = remediation_sequence(result.records, "desc")
        assert [s.node for s in desc.steps] == [s.node for s in reversed(asc.steps)]

    def test_fully_known_branches_excluded(self, sample_analysis):
        result, _, plan = sample_analysis
        assert "U3" not in [s.node for s in plan.steps]
        assert len(plan.steps) == sum(1 for r in result.records if r.alpha < 1)

    def test_empty_records(self):
        assert remediation_sequence([], "asc").steps == ()

    def test_ties_break_by_node_id_both_directions(self):
        records = [_rec("b", 1, 2), _rec("a", 1, 2), _rec("c", 1, 4)]
        asc = remediation_sequence(records, "asc")
        desc = remediation_sequence(records, "desc")
        assert [s.node for s in asc.steps] == ["c", "a", "b"]
        assert [s.node for s in desc.steps] == ["a", "b", "c"]

    @given(st.dictionaries(
        st.text(max_size=3),
        (st.integers(1, 4) | st.integers(5, 10**12)).flatmap(
            lambda q: st.tuples(st.integers(0, q), st.just(q))),
        max_size=40,
    ))
    def test_order_equals_tuple_key_sort(self, degrees):
        """Few distinct degrees, some spelled two ways (1/2 and 2/4), so most
        records tie on alpha and fall back to the node id; degrees with large
        denominators lie close together, so an inexact key misorders them."""
        records = [_rec(node, p, q) for node, (p, q) in degrees.items()]
        for order in ("asc", "desc"):
            assert remediation_sequence(records, order) == reference.plan(records, order)


class TestFormatFraction:
    @pytest.mark.parametrize(
        "value,places,expected",
        [(Fraction(2, 3), 2, "0.66"), (Fraction(1), 2, "1"), (Fraction(1, 2), 2, "0.5"),
         (Fraction(274, 100), 2, "2.74"), (Fraction(137, 250), 3, "0.548"),
         (Fraction(0), 2, "0"), (Fraction(1, 3), 3, "0.333")],
    )
    def test_truncation_and_stripping(self, value, places, expected):
        assert format_fraction(value, places) == expected


class TestRenderReport:
    @pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("csv", "csv"), ("json", "json")])
    def test_golden(self, sample_analysis, fmt, suffix):
        result, graded, plan = sample_analysis
        rendered = render_report(result, graded, plan, fmt)
        golden = (GOLDEN_DIR / f"sample_report.{suffix}").read_text(encoding="utf-8")
        assert rendered == golden

    def test_deterministic(self, sample_analysis):
        result, graded, plan = sample_analysis
        for fmt in ("text", "csv", "json"):
            assert render_report(result, graded, plan, fmt) == render_report(result, graded, plan, fmt)

    def test_csv_carries_summary_line(self, sample_analysis):
        result, graded, plan = sample_analysis
        assert "expected_result,0.548" in render_report(result, graded, plan, "csv")

    def test_json_round_trip(self, sample_analysis):
        result, graded, plan = sample_analysis
        text = render_report(result, graded, plan, "json")
        back_result, back_graded, back_plan = parse_report(text)
        assert back_result == result
        assert back_graded == graded
        assert back_plan == plan

    def test_empty_analysis_is_header_only(self):
        empty = AnalysisResult(regions=(), records=(), expected_result=Fraction(0))
        plan = RemediationPlan(order="asc", steps=())
        csv_doc = render_report(empty, (), plan, "csv")
        assert csv_doc.splitlines() == [
            "node,level,child_count,overlap,alpha,expected_percent,actual_percent,grade"]
        text_doc = render_report(empty, (), plan, "text")
        assert "BND set" in text_doc
        json_text = render_report(empty, (), plan, "json")
        assert json_text == reference.json_text(empty, (), plan)
        json_doc = json.loads(json_text)
        assert json_doc["records"] == [] and json_doc["graded"] == []


# Node ids are the report's only free-form strings: draw them with the
# characters JSON must escape (quote, backslash, controls), non-ASCII and
# astral characters, which json.dumps writes as \uXXXX surrogate pairs.
_NODE_IDS = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\n\té€\u2028\U0001f600'), st.characters(codec="utf-8")),
    min_size=1, max_size=6,
)


@given(strategies.teacher_student_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_json_writer_matches_json_dumps(pair, data):
    teacher, student = pair
    ids = data.draw(st.lists(_NODE_IDS, min_size=len(teacher.nodes),
                             max_size=len(teacher.nodes), unique=True))
    rename = dict(zip((n.id for n in teacher.nodes), ids))
    teacher, student = (
        validate_map([(rename[n.id], rename.get(n.parent)) for n in m.nodes], subject=m.subject)
        for m in (teacher, student)
    )
    result = analyze(integrate(teacher, student), data.draw(st.sampled_from([DEEPEST_ONLY,
                                                                             ALL_LEVELS])))
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records, data.draw(st.sampled_from(["asc", "desc"])))
    assert render_report(result, graded, plan, "json") == reference.json_text(result, graded, plan)


collect_rows(globals())
