from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from conftest import (
    GREEN_LEAVES, RED_LEAVES, STUDENT_NODES, TEACHER_NODES, by_id, levels_of, raises_exactly)
from roughmap.conceptmap import (
    ConceptMap,
    MapNode,
    NodeColor,
    integrate,
    validate_map,
)
from roughmap.errors import ValidationError
from test_faults import collect_rows


# Subjects for TestIntegrate: the sample's, another course's, "untitled" and arbitrary text.
SUBJECTS = st.sampled_from(["untitled", "Data Structures", "Computer Networks"]) | st.text(max_size=3)


class TestValidateMap:
    def test_minimal_chain(self):
        cmap = validate_map([("S1", None), ("U1", "S1"), ("C1", "U1")])
        assert [n.id for n in cmap.nodes] == ["S1", "U1", "C1"]
        assert cmap.ids[cmap.parents.index(None)] == "S1"

    def test_checked_map_comes_back_unchanged(self, teacher_map):
        cmap = validate_map([("S1", None), ("U1", "S1")], subject="demo")
        assert validate_map(cmap) is validate_map(cmap, subject="demo") is cmap
        with raises_exactly(ValueError, "subject 'other' given for a map of subject 'demo'"):
            validate_map(cmap, subject="other")
        assert validate_map(teacher_map) is teacher_map
        assert validate_map([("S1", None)]).subject == "untitled"
        assert cmap.depth == {"S1": 0, "U1": 1} and cmap.parent_of == {"S1": None, "U1": "S1"}

    def test_accepts_phrases_and_map_nodes(self):
        cmap = validate_map([("S1", None, None), ("U1", "S1", "part of"),
                             MapNode("C1", "U1")])
        assert by_id(cmap)["U1"].phrase == "part of"
        assert by_id(cmap)["C1"].phrase is None

    def test_str_subclass_fields(self):
        """An id, parent and phrase of a `str` subclass fail the whole-column
        type check, pass the node-by-node one, and are accepted."""
        class Name(str):
            pass

        rows = [(Name("S1"), None, None), (Name("U1"), Name("S1"), Name("part of"))]
        for build in (validate_map, lambda rows: ConceptMap("s", rows)):
            assert [tuple(node) for node in build(rows).nodes] == rows


class TestComputeLevels:
    def test_sample_fixture(self, teacher_map):
        levels = levels_of(teacher_map)
        assert levels["S1"] == 0
        assert all(levels[u] == 1 for u in ("U1", "U2", "U3", "U4", "U5"))
        assert all(levels[f"C{i}"] == 2 for i in range(1, 15))
        assert max(levels.values()) == 2

    def test_single_node(self):
        assert levels_of(validate_map([("S1", None)])) == {"S1": 0}

    def test_chain(self):
        cmap = validate_map([("a", None), ("b", "a"), ("c", "b"), ("d", "c")])
        assert levels_of(cmap) == {"a": 0, "b": 1, "c": 2, "d": 3}


class TestIntegrate:
    def test_identical_maps_all_green(self, teacher_map):
        imap = integrate(teacher_map, teacher_map)
        assert by_id(imap)["S1"].color is None
        assert all(n.color is NodeColor.GREEN for n in imap.nodes if n.parent is not None)

    def test_sample_fixture_colors(self, sample_integrated):
        colors = {n.id: n.color for n in sample_integrated.nodes}
        assert colors["S1"] is None
        for u in ("U1", "U3", "U4", "U5"):
            assert colors[u] is NodeColor.GREEN
        assert colors["U2"] is NodeColor.RED
        for leaf in GREEN_LEAVES:
            assert colors[leaf] is NodeColor.GREEN
        for leaf in RED_LEAVES:
            assert colors[leaf] is NodeColor.RED

    def test_node_set_is_union(self, teacher_map, student_map, sample_integrated):
        union = {n.id for n in teacher_map.nodes} | {n.id for n in student_map.nodes}
        assert {n.id for n in sample_integrated.nodes} == union
        assert len(sample_integrated.nodes) == 20

    def test_teacher_structure_wins_for_shared_nodes(self, sample_integrated):
        # the student misfiled U2 under U1; the merged tree keeps S1 as parent
        assert by_id(sample_integrated)["U2"].parent == "S1"
        assert sample_integrated.max_level == 2

    def test_student_only_nodes_attach_green(self, teacher_map):
        extra = list(TEACHER_NODES) + [("Z1", "U1")]
        student = validate_map(extra, subject=teacher_map.subject)
        imap = integrate(teacher_map, student)
        assert by_id(imap)["Z1"].color is NodeColor.GREEN
        assert by_id(imap)["Z1"].level == 2
        others = [n for n in imap.nodes if n.parent is not None and n.id != "Z1"]
        assert all(n.color is NodeColor.GREEN for n in others)

    def test_student_only_chain_levels(self):
        teacher = validate_map([("S1", None), ("A", "S1")])
        student = validate_map([("S1", None), ("A", "S1"), ("X", "A"), ("Y", "X")])
        imap = integrate(teacher, student)
        assert by_id(imap)["X"].level == 2
        assert by_id(imap)["Y"].level == 3
        assert by_id(imap)["Y"].color is NodeColor.GREEN

    @given(SUBJECTS, SUBJECTS)
    def test_subjects_differ_only_with_an_untitled_map(self, teacher_subject, student_subject):
        teacher = validate_map(TEACHER_NODES, subject=teacher_subject)
        student = validate_map(STUDENT_NODES, subject=student_subject)
        if teacher_subject == student_subject or "untitled" in (teacher_subject, student_subject):
            assert integrate(teacher, student).subject == teacher_subject
            return
        with raises_exactly(ValidationError, f"subjects differ: teacher {teacher_subject!r}, "
                                             f"student {student_subject!r}"):
            integrate(teacher, student)

    def test_phrases_do_not_affect_colors(self, teacher_map):
        relabeled = validate_map(
            [(n.id, n.parent, "re-worded") for n in teacher_map.nodes],
            subject=teacher_map.subject,
        )
        imap = integrate(teacher_map, relabeled)
        assert all(n.color is NodeColor.GREEN for n in imap.nodes if n.parent is not None)


def test_fixture_files_match_inline_constants(teacher_map, student_map):
    # guards drift between data/ and the constants used by unit tests
    assert [(n.id, n.parent) for n in teacher_map.nodes] == TEACHER_NODES
    assert [(n.id, n.parent) for n in student_map.nodes] == STUDENT_NODES


collect_rows(globals())
