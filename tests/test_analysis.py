from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

import reference
from conftest import raises_exactly
from roughmap.analysis import (
    ImportanceRecord,
    analyze,
    level_regions,
    truncated,
)
from roughmap.conceptmap import integrate, validate_map
from roughmap.errors import ValidationError
from roughmap.grading import format_fraction, grade_records


class TestTruncated:
    def test_two_thirds(self):
        assert truncated(Fraction(2, 3)) == Fraction(66, 100)

    def test_whole(self):
        assert truncated(Fraction(1)) == Fraction(1)

    def test_exact_hundredths_unchanged(self):
        assert truncated(Fraction(1, 4)) == Fraction(1, 4)

    def test_integer_floor_matches_fraction_definition(self):
        for q in range(1, 61):
            for p in range(q + 1):
                value = Fraction(p, q)
                for k in (2, 3):
                    scaled = math.floor(value * 10 ** k)
                    assert truncated(value, k) == Fraction(scaled, 10 ** k)
                    assert format_fraction(value, k) == reference.display(value, k)
                record = ImportanceRecord(node="n", level=0, child_count=q, overlap=p,
                                          alpha=value)
                (graded,) = grade_records([record])
                assert graded.actual_percent == math.floor(value * 100)


class TestLevelRegions:
    def test_sample_fixture(self, sample_integrated):
        regs = level_regions(sample_integrated)
        assert [r.level for r in regs] == [2, 1]
        deepest, top = regs
        assert deepest.pos == ("C2", "C3", "C5", "C7", "C8", "C9", "C12")
        assert deepest.neg == ("C1", "C4", "C6", "C10", "C11", "C13", "C14")
        assert deepest.bnd == ("U1", "U2", "U3", "U4", "U5")
        assert top.pos == ("U1", "U3", "U4", "U5")
        assert top.neg == ("U2",)
        assert top.bnd == ("S1",)

    def test_two_node_map(self):
        m = validate_map([("r", None), ("leaf", "r")])
        regs = level_regions(integrate(m, m))
        assert len(regs) == 1
        assert regs[0].pos == ("leaf",)
        assert regs[0].neg == ()
        assert regs[0].bnd == ("r",)

    def test_single_node_map_rejected(self):
        m = validate_map([("r", None)])
        with raises_exactly(ValidationError, "map has a single node, nothing to classify"):
            level_regions(integrate(m, m))

    def test_boundary_sets_never_contain_leaves(self, sample_integrated):
        leaves = {n.id for n in sample_integrated.nodes
                  if not sample_integrated.children_of[n.id]}
        for reg in level_regions(sample_integrated):
            assert not (set(reg.bnd) & leaves)


class TestAnalyze:
    def test_deepest_only_matches_worked_table(self, sample_integrated):
        result = analyze(sample_integrated)
        assert [r.node for r in result.records] == ["U1", "U2", "U3", "U4", "U5"]
        assert [r.level for r in result.records] == [1] * 5
        assert [(r.child_count, r.overlap) for r in result.records] == [
            (3, 2), (3, 1), (2, 2), (2, 1), (4, 1)]
        assert [r.truncated_alpha for r in result.records] == [
            Fraction(66, 100), Fraction(33, 100), Fraction(1),
            Fraction(1, 2), Fraction(1, 4)]
        assert result.total == Fraction(274, 100)
        assert result.expected_result == Fraction(137, 250)

    def test_all_levels_adds_the_root(self, sample_integrated):
        result = analyze(sample_integrated, "all")
        assert [r.node for r in result.records] == ["U1", "U2", "U3", "U4", "U5", "S1"]
        assert (result.records[-1].level, result.records[-1].alpha) == (0, Fraction(4, 5))
        # (2.74 + 0.8) / 6
        assert result.expected_result == Fraction(59, 100)

    def test_unknown_level_rejected(self, sample_integrated):
        for levels in ("bogus", [1], {2}, {3}, set()):
            with pytest.raises(ValidationError, match="levels must be 'deepest' or 'all', got "):
                analyze(sample_integrated, levels)

    def test_perfect_student_scores_one(self, teacher_map):
        result = analyze(integrate(teacher_map, teacher_map), "all")
        assert all(r.alpha == 1 for r in result.records)
        assert result.expected_result == Fraction(1)

    def test_absent_student_scores_zero(self):
        teacher = validate_map([("r", None), ("a", "r"), ("b", "r")])
        student = validate_map([("r", None)])
        result = analyze(integrate(teacher, student))
        assert all(r.alpha == 0 for r in result.records)
        assert result.expected_result == Fraction(0)

    def test_child_counts_cover_each_level(self, sample_integrated):
        # tree property: boundary nodes' children are exactly the level below
        result = analyze(sample_integrated, "all")
        by_level: dict[int, int] = {}
        for rec in result.records:
            by_level[rec.level + 1] = by_level.get(rec.level + 1, 0) + rec.child_count
        for level, total in by_level.items():
            assert total == sum(n.level == level for n in sample_integrated.nodes)


def _recount(teacher_nodes, student_nodes):
    """Green and total children per parent of the integrated tree, counted
    straight from the two node lists."""
    student_parent = dict(student_nodes)
    teacher_ids = {nid for nid, _ in teacher_nodes}
    children: dict[str, int] = {}
    green: dict[str, int] = {}
    merged = [(nid, parent, student_parent.get(nid, object()) == parent)
              for nid, parent in teacher_nodes]
    merged += [(nid, parent, True) for nid, parent in student_nodes if nid not in teacher_ids]
    for _, parent, is_green in merged:
        if parent is not None:
            children[parent] = children.get(parent, 0) + 1
            green[parent] = green.get(parent, 0) + is_green
    return {p: (children[p], green[p]) for p in children}


def _check_scaling(teacher_nodes, student_nodes, levels, parents):
    imap = integrate(validate_map(teacher_nodes), validate_map(student_nodes))
    started = time.perf_counter()
    result = analyze(imap, levels)
    elapsed = time.perf_counter() - started
    expected = _recount(teacher_nodes, student_nodes)
    got = {r.node: (r.child_count, r.overlap) for r in result.records}
    assert len(got) == len(result.records) == len(parents)
    assert got == {p: expected[p] for p in parents}
    truncated_sum = sum(Fraction(math.floor(Fraction(g, c) * 100), 100) for c, g in got.values())
    assert result.expected_result == truncated_sum / len(parents)
    assert elapsed <= 2.0, f"analyze took {elapsed:.2f}s"


class TestScaling:
    def test_all_levels_on_a_long_chain(self):
        n = 20_000
        teacher = [("n0", None)] + [(f"n{i}", f"n{i - 1}") for i in range(1, n)]
        # every third node misfiled under the root, every fifth node gains an
        # extra child of its own
        student = [(nid, "n0" if i % 3 == 0 and i else parent)
                   for i, (nid, parent) in enumerate(teacher)]
        student += [(f"x{i}", f"n{i}") for i in range(0, n, 5)]
        parents = {f"n{i}" for i in range(n) if i < n - 1 or i % 5 == 0}
        _check_scaling(teacher, student, "all", parents)

    def test_child_first_chain_ingest(self):
        n = 20_000
        teacher = [(f"n{i}", f"n{i - 1}" if i else None) for i in range(n)]
        # the student extends the chain by n student-only nodes; both maps
        # list every child before its parent
        extra = [(f"x{i}", f"x{i - 1}" if i else f"n{n - 1}") for i in range(n)]
        started = time.perf_counter()
        imap = integrate(validate_map(teacher[::-1]), validate_map((teacher + extra)[::-1]))
        elapsed = time.perf_counter() - started
        assert [node.level for node in imap.nodes] == list(range(n - 1, -1, -1)) + list(
            range(2 * n - 1, n - 1, -1))
        assert elapsed <= 2.0, f"validate and integrate took {elapsed:.2f}s"

    def test_deepest_level_on_a_wide_map(self):
        units, concepts = 5_000, 10
        teacher = [("root", None)] + [(f"u{u}", "root") for u in range(units)]
        teacher += [(f"c{u}.{c}", f"u{u}") for u in range(units) for c in range(concepts)]
        # concept c of unit u is kept, omitted or misfiled under the next unit
        student = teacher[:units + 1]
        for u in range(units):
            for c in range(concepts):
                kind = (u * 7 + c * 3) % 5
                if kind < 3:
                    student.append((f"c{u}.{c}", f"u{u}"))
                elif kind == 3:
                    student.append((f"c{u}.{c}", f"u{(u + 1) % units}"))
        _check_scaling(teacher, student, "deepest", {f"u{u}" for u in range(units)})
