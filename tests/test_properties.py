"""Randomized invariants for the set algebra, map integration, analysis, and
grading layers."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import strategies
from conftest import by_id
from roughmap.analysis import analyze, level_regions
from roughmap.conceptmap import NodeColor, integrate, validate_map
from roughmap.grading import (
    GRADE_BANDS,
    assign_grade,
    grade_records,
    remediation_sequence,
    render_report,
)
from roughmap.roughset import (
    boundary,
    indiscernibility,
    is_exact,
    lower_approximation,
    regions,
    upper_approximation,
)


# rough-set algebra

@given(strategies.spaces_with_subset())
def test_lower_within_subset_within_upper(data):
    space, subset = data
    lower = set(lower_approximation(space, subset))
    upper = set(upper_approximation(space, subset))
    assert lower <= subset <= upper


@given(strategies.spaces_with_subset())
def test_duality(data):
    space, subset = data
    complement = space.universe.element_set - subset
    assert set(upper_approximation(space, subset)) == (
        space.universe.element_set - set(lower_approximation(space, complement))
    )


@given(strategies.spaces_with_nested_subsets())
def test_monotonicity(data):
    space, small, big = data
    assert set(lower_approximation(space, small)) <= set(lower_approximation(space, big))
    assert set(upper_approximation(space, small)) <= set(upper_approximation(space, big))


@given(strategies.spaces_with_subset())
def test_approximations_are_unions_of_blocks(data):
    space, subset = data
    for approx in (lower_approximation(space, subset), upper_approximation(space, subset)):
        chosen = set(approx)
        for block in space.partition.blocks:
            overlap = set(block) & chosen
            assert overlap in (set(), set(block))


@given(strategies.spaces_with_subset())
def test_exactness_iff_empty_boundary(data):
    space, subset = data
    lower = lower_approximation(space, subset)
    upper = upper_approximation(space, subset)
    assert is_exact(space, subset) == (boundary(space, subset) == ()) == (lower == upper)


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
    for result in (lower_approximation(space, subset), upper_approximation(space, subset),
                   boundary(space, subset)):
        assert list(result) == sorted(result, key=index.__getitem__)


@given(strategies.decision_tables(), st.data())
def test_indiscernibility_refines_under_attribute_growth(table, data):
    q = set(data.draw(st.sets(st.sampled_from(table.attributes))))
    p = set(data.draw(st.sets(st.sampled_from(sorted(q))))) if q else set()
    coarse = indiscernibility(table, p)
    fine = indiscernibility(table, q)
    assert coarse.element_set == table.objects.element_set
    for block in fine.blocks:
        assert any(set(block) <= set(c) for c in coarse.blocks)


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
    teacher, student = pair
    rows = by_id(integrate(teacher, student))
    student_parent = {n.id: n.parent for n in student.nodes}
    for node in teacher.nodes:
        if node.parent is None:
            continue
        expected_green = student_parent.get(node.id) == node.parent
        got = rows[node.id].color
        assert got is (NodeColor.GREEN if expected_green else NodeColor.RED)


# analysis

@given(strategies.teacher_student_pairs(max_extras=4))
def test_analysis_matches_direct_recount(pair):
    teacher, student = pair
    imap = integrate(teacher, student)
    if imap.max_level < 1:
        return
    result = analyze(imap, "all")
    rows = by_id(imap)
    seen = set()
    for rec in result.records:
        assert rec.node not in seen  # one record per boundary node
        seen.add(rec.node)
        children = imap.children_of[rec.node]
        greens = sum(1 for c in children if rows[c].color is NodeColor.GREEN)
        assert rec.child_count == len(children)
        assert rec.overlap == greens
        assert rec.alpha == Fraction(greens, len(children))
        assert 0 <= rec.alpha <= 1
        assert (rec.alpha == 1) == (greens == len(children))
        assert (rec.alpha == 0) == (greens == 0)
    # every non-leaf node got processed
    non_leaves = {n.id for n in imap.nodes if imap.children_of[n.id]}
    assert seen == non_leaves


@given(strategies.teacher_student_pairs())
def test_regions_match_colors_per_level(pair):
    teacher, student = pair
    imap = integrate(teacher, student)
    if imap.max_level < 1:
        return
    rows = by_id(imap)
    for reg in level_regions(imap):
        at_level = [n for n in imap.nodes if n.level == reg.level]
        assert set(reg.pos) == {n.id for n in at_level if n.color is NodeColor.GREEN}
        assert set(reg.neg) == {n.id for n in at_level if n.color is NodeColor.RED}
        assert set(reg.bnd) == {n.parent for n in at_level}
        for parent in reg.bnd:
            assert rows[parent].level == reg.level - 1


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


@given(st.integers(0, 100))
def test_grade_agrees_with_band_table(p):
    expected = next(b.grade for b in GRADE_BANDS if p >= b.lower_bound_percent)
    assert assign_grade(p) == expected


@given(strategies.teacher_student_pairs())
def test_plan_is_permutation_of_unfinished_records(pair):
    teacher, student = pair
    imap = integrate(teacher, student)
    if imap.max_level < 1:
        return
    records = analyze(imap, "all").records
    plan = remediation_sequence(records, "asc")
    unfinished = {r.node for r in records if r.alpha < 1}
    assert {s.node for s in plan.steps} == unfinished
    assert len(plan.steps) == len(unfinished)
    alphas = [s.alpha for s in plan.steps]
    assert alphas == sorted(alphas)
    desc = remediation_sequence(records, "desc")
    if len(set(alphas)) == len(alphas):  # no ties
        assert [s.node for s in desc.steps] == [s.node for s in reversed(plan.steps)]


@given(strategies.teacher_student_pairs())
@settings(max_examples=25)
def test_rendering_is_deterministic(pair):
    teacher, student = pair
    imap = integrate(teacher, student)
    if imap.max_level < 1:
        return
    result = analyze(imap)
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records)
    for fmt in ("text", "csv", "json"):
        assert render_report(result, graded, plan, fmt) == render_report(
            result, graded, plan, fmt)
