"""Randomized invariants for the set algebra, map integration, analysis, and
grading layers.  The five algebra laws of Pawlak's approximations
(containment, duality, monotonicity, exactness and the refinement of
indiscernibility) run at 1000 cases each in
`test_acceptance.py::test_randomized_property_suite`; where a layer has a
reference in `reference.py`, the invariant is equality with it."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import reference
import strategies
from conftest import by_id
from roughmap.analysis import analyze, level_regions
from roughmap.conceptmap import NodeColor, integrate, validate_map
from roughmap.grading import assign_grade, grade_records, remediation_sequence, render_report
from roughmap.roughset import lower_approximation, regions, upper_approximation


# rough-set algebra

@given(strategies.spaces_with_subset())
def test_approximations_are_unions_of_blocks(data):
    space, subset = data
    for approx in (lower_approximation(space, subset), upper_approximation(space, subset)):
        chosen = set(approx)
        for block in space.partition.blocks:
            overlap = set(block) & chosen
            assert overlap in (set(), set(block))


@given(strategies.spaces_with_subset())
def test_regions_partition_universe(data):
    space, subset = data
    got = regions(space, subset)
    pos, neg, bnd = set(got.pos), set(got.neg), set(got.bnd)
    assert pos | neg | bnd == space.universe.element_set
    assert not (pos & neg) and not (pos & bnd) and not (neg & bnd)


@given(strategies.spaces_with_subset())
def test_results_are_in_universe_order(data):
    space, subset = data
    index = {e: i for i, e in enumerate(space.universe.elements)}
    for result in (*regions(space, subset), lower_approximation(space, subset),
                   upper_approximation(space, subset)):
        assert list(result) == sorted(result, key=index.__getitem__)


# map integration

@given(strategies.concept_maps(max_nodes=30))
def test_self_integration_is_all_green(cmap):
    imap = integrate(cmap, cmap)
    assert all(n.color is NodeColor.GREEN for n in imap.nodes if n.parent is not None)
    assert by_id(imap)[cmap.ids[cmap.parents.index(None)]].color is None


@given(strategies.teacher_student_pairs())
def test_node_set_is_union_and_structure_is_teachers(pair):
    teacher, student = pair
    rows = by_id(integrate(teacher, student))
    assert set(rows) == {n.id for n in teacher.nodes} | {n.id for n in student.nodes}
    for node in teacher.nodes:
        assert rows[node.id].parent == node.parent


@given(strategies.teacher_student_pairs())
def test_levels_are_parent_plus_one(pair):
    teacher, student = pair
    rows = by_id(integrate(teacher, student))
    for node in rows.values():
        if node.parent is None:
            assert node.level == 0
        else:
            assert node.level == rows[node.parent].level + 1


@given(strategies.teacher_student_pairs())
def test_red_nodes_are_exactly_inconsistent_teacher_nodes(pair):
    expected = reference.integrate(*([(n.id, n.parent) for n in m.nodes] for m in pair))
    assert integrate(*pair).colors == tuple(color for _, _, _, color in expected)


# analysis

@given(strategies.teacher_student_pairs(max_extras=4))
def test_analysis_matches_direct_recount(pair):
    """Student-only nodes included, each non-leaf node gets one record."""
    imap = integrate(*pair)
    result = analyze(imap, "all")
    assert result == reference.analyze(imap.nodes, "all")
    non_leaves = [n.id for n in imap.nodes if imap.children_of[n.id]]
    assert sorted(rec.node for rec in result.records) == sorted(non_leaves)


@given(strategies.teacher_student_pairs())
def test_regions_match_colors_per_level(pair):
    imap = integrate(*pair)
    rows = by_id(imap)
    assert level_regions(imap) == reference.level_regions(imap.nodes)
    for reg in level_regions(imap):
        assert all(rows[parent].level == reg.level - 1 for parent in reg.bnd)


@given(strategies.concept_maps(max_nodes=20), st.data())
def test_restoring_one_leaf_raises_parent_alpha_only(cmap, data):
    leaves = [n for n in cmap.nodes if all(m.parent != n.id for m in cmap.nodes)]
    dropped = data.draw(st.sampled_from(leaves))
    student = validate_map(
        [(n.id, n.parent) for n in cmap.nodes if n.id != dropped.id],
        subject=cmap.subject,
    )
    before = analyze(integrate(cmap, student), "all").records
    after = analyze(integrate(cmap, cmap), "all").records
    assert len(before) == len(after)
    changed = [(b, a) for b, a in zip(before, after) if b != a]
    assert len(changed) == 1
    b, a = changed[0]
    assert a.node == b.node == dropped.parent
    assert a.alpha - b.alpha == Fraction(1, a.child_count)


# grading

@given(st.integers(0, 100), st.integers(0, 100))
def test_grade_is_monotone(p, q):
    rank = {"C": 0, "B": 1, "A": 2}
    if p <= q:
        assert rank[assign_grade(p)] <= rank[assign_grade(q)]


@given(strategies.teacher_student_pairs())
def test_plan_is_permutation_of_unfinished_records(pair):
    records = analyze(integrate(*pair), "all").records
    plan = remediation_sequence(records, "asc")
    assert plan == reference.plan(records, "asc")
    alphas = [s.alpha for s in plan.steps]
    if len(set(alphas)) == len(alphas):  # no ties
        assert remediation_sequence(records, "desc").steps == plan.steps[::-1]


@given(strategies.teacher_student_pairs())
@settings(max_examples=25)
def test_rendering_is_deterministic(pair):
    result = analyze(integrate(*pair))
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records)
    for fmt in ("text", "csv", "json"):
        assert render_report(result, graded, plan, fmt) == render_report(
            result, graded, plan, fmt)
