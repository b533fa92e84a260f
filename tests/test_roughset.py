"""Rough-set operations against frozen worked values and the brute-force,
per-definition approximations of `reference.py`."""

from __future__ import annotations

import itertools
import random
import re

import pytest

import reference
from conftest import raises_exactly
from roughmap.errors import ValidationError
from roughmap.roughset import (
    ApproximationSpace,
    DecisionTable,
    Partition,
    Universe,
    boundary,
    indiscernibility,
    is_exact,
    lower_approximation,
    regions,
    upper_approximation,
)


BLOCKS = (("x1", "x2"), ("x3", "x4"), ("x5", "x6"))
SPACE = ApproximationSpace.from_blocks(BLOCKS)
A = {"x1", "x2", "x3"}
ALL = set(SPACE.universe.elements)


class TestLowerApproximation:
    def test_worked_example(self):
        # frozen from reference.lower(BLOCKS, A) == {x1, x2}
        assert lower_approximation(SPACE, A) == ("x1", "x2")
        assert set(lower_approximation(SPACE, A)) == reference.lower(BLOCKS, A)

    def test_empty_subset(self):
        assert lower_approximation(SPACE, set()) == ()

    def test_full_universe(self):
        assert lower_approximation(SPACE, ALL) == SPACE.universe.elements

    def test_rejects_stray_elements(self):
        with raises_exactly(ValidationError, "elements not in the universe: ['zz']"):
            lower_approximation(SPACE, {"x1", "zz"})


class TestUpperApproximation:
    def test_worked_example(self):
        # frozen from reference.upper(BLOCKS, A) == {x1, x2, x3, x4}
        assert upper_approximation(SPACE, A) == ("x1", "x2", "x3", "x4")
        assert set(upper_approximation(SPACE, A)) == reference.upper(BLOCKS, A)

    def test_empty_subset(self):
        assert upper_approximation(SPACE, set()) == ()

    def test_one_full_block_is_exact(self):
        assert upper_approximation(SPACE, {"x3", "x4"}) == ("x3", "x4")

    def test_rejects_stray_elements(self):
        with raises_exactly(ValidationError, "elements not in the universe: ['nope']"):
            upper_approximation(SPACE, {"nope"})


class TestBoundary:
    def test_worked_example(self):
        # frozen from naive upper minus lower == {x3, x4}
        assert boundary(SPACE, A) == ("x3", "x4")

    def test_empty_subset(self):
        assert boundary(SPACE, set()) == ()

    def test_union_of_blocks_has_empty_boundary(self):
        assert boundary(SPACE, {"x1", "x2", "x5", "x6"}) == ()


class TestRegions:
    def test_worked_example(self):
        got = regions(SPACE, A)
        assert got.pos == ("x1", "x2")
        assert got.neg == ("x5", "x6")
        assert got.bnd == ("x3", "x4")

    def test_full_universe(self):
        got = regions(SPACE, ALL)
        assert got.pos == SPACE.universe.elements
        assert got.neg == () and got.bnd == ()

    def test_empty_subset(self):
        got = regions(SPACE, set())
        assert got.pos == () and got.bnd == ()
        assert got.neg == SPACE.universe.elements

    def test_regions_partition_the_universe(self):
        got = regions(SPACE, A)
        pieces = set(got.pos) | set(got.neg) | set(got.bnd)
        assert pieces == ALL
        assert len(got.pos) + len(got.neg) + len(got.bnd) == len(ALL)


class TestIsExact:
    def test_union_of_blocks(self):
        assert is_exact(SPACE, {"x3", "x4", "x5", "x6"})

    def test_proper_subset_of_one_block(self):
        assert not is_exact(SPACE, {"x1"})

    def test_mixed_case(self):
        # frozen from the oracle: lower {x3}, upper {x1, x2, x3}
        space = ApproximationSpace.from_blocks([("x1", "x2"), ("x3",)])
        assert not is_exact(space, {"x1", "x3"})
        assert lower_approximation(space, {"x1", "x3"}) == ("x3",)
        assert upper_approximation(space, {"x1", "x3"}) == ("x1", "x2", "x3")


class TestFromBlocks:
    def test_universe_in_block_order(self):
        space = ApproximationSpace.from_blocks(iter([("x3", "x1"), ["x2"]]))
        assert space.universe.elements == ("x3", "x1", "x2")
        assert space.partition.blocks == (("x3", "x1"), ("x2",))

    @pytest.mark.parametrize("blocks, message", [
        ([("a", "b"), ("b", "c")], "element in more than one block: 'b'"),
        ([("a", "a")], "element in more than one block: 'a'"),
        ([("a",), ()], "partition contains an empty block"),
    ])
    def test_partition_errors(self, blocks, message):
        """The partition's check runs first, so `Universe`'s "duplicate
        element" never surfaces."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ApproximationSpace.from_blocks(blocks)


class TestOrdering:
    def test_results_follow_universe_order(self):
        # input order of the queried subset must not matter
        scrambled = ["x3", "x1", "x2"]
        assert lower_approximation(SPACE, scrambled) == ("x1", "x2")
        assert upper_approximation(SPACE, scrambled) == ("x1", "x2", "x3", "x4")


def test_random_spaces_match_oracle():
    rng = random.Random(6021)
    for _ in range(200):
        n = rng.randint(1, 8)
        elements = [f"e{i}" for i in range(n)]
        labels = [rng.randrange(n) for _ in range(n)]
        blocks: dict[int, list[str]] = {}
        for element, label in zip(elements, labels):
            blocks.setdefault(label, []).append(element)
        block_tuples = [tuple(b) for b in blocks.values()]
        space = ApproximationSpace.from_blocks(block_tuples)
        subset = {e for e in elements if rng.random() < 0.5}
        lo = reference.lower(block_tuples, subset)
        up = reference.upper(block_tuples, subset)
        assert set(lower_approximation(space, subset)) == lo
        assert set(upper_approximation(space, subset)) == up
        assert set(boundary(space, subset)) == up - lo
        got = regions(space, subset)
        assert set(got.pos) == lo
        assert set(got.neg) == set(elements) - up
        assert set(got.bnd) == up - lo
        assert is_exact(space, subset) == (lo == up)


class TestIndiscernibility:
    TABLE = DecisionTable.from_rows(
        {"o1": ["1", "x"], "o2": ["1", "y"], "o3": ["2", "x"], "o4": ["2", "y"]},
        attributes=("a", "d"),
    )

    def test_single_attribute(self):
        # frozen from pairwise agreement on values (1, 1, 2, 2)
        part = indiscernibility(self.TABLE, {"a"})
        assert part.blocks == (("o1", "o2"), ("o3", "o4"))

    def test_distinct_signatures_give_singletons(self):
        part = indiscernibility(self.TABLE, {"a", "d"})
        assert part.blocks == (("o1",), ("o2",), ("o3",), ("o4",))

    def test_empty_attribute_set_is_single_block(self):
        part = indiscernibility(self.TABLE, set())
        assert part.blocks == (("o1", "o2", "o3", "o4"),)

    def test_unknown_attribute(self):
        with raises_exactly(ValidationError, "unknown attribute(s): ['bogus']"):
            indiscernibility(self.TABLE, {"a", "bogus"})

    def test_matches_pairwise_oracle_on_random_tables(self):
        rng = random.Random(77)
        for _ in range(100):
            n_obj, n_attr = rng.randint(1, 7), rng.randint(1, 3)
            attrs = tuple(f"a{j}" for j in range(n_attr))
            rows = {f"o{i}": [str(rng.randint(0, 2)) for _ in range(n_attr)] for i in range(n_obj)}
            table = DecisionTable.from_rows(rows, attrs)
            chosen = {a for a in attrs if rng.random() < 0.6}
            part = indiscernibility(table, chosen)
            assert part.element_set == table.objects.element_set
            same = lambda x, y: all(rows[x][attrs.index(a)] == rows[y][attrs.index(a)] for a in chosen)
            for x, y in itertools.combinations(rows, 2):
                together = any(x in b and y in b for b in part.blocks)
                assert together == same(x, y)


class TestContainers:
    def test_universe_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Universe(("a", "b", "a"))

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            Partition((("a", "b"), ("b", "c")))

    def test_partition_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            Partition((("a",), ()))

    def test_space_requires_exact_cover(self):
        with pytest.raises(ValueError, match="does not cover"):
            ApproximationSpace(Universe(("a", "b")), Partition((("a",),)))
        with pytest.raises(ValueError, match="exceeds"):
            ApproximationSpace(Universe(("a",)), Partition((("a", "b"),)))

    def test_decision_table_requires_total_values(self):
        objects = Universe(("o1", "o2"))
        with pytest.raises(ValueError, match="row for 'o2' has 1 values, expected 2"):
            DecisionTable(objects=objects, attributes=("a", "b"), rows=(("1", "x"), ("2",)),
                          condition=frozenset({"a"}), decision=frozenset({"b"}))
        with pytest.raises(ValueError, match="1 rows for 2 objects"):
            DecisionTable(objects=objects, attributes=("a", "b"), rows=(("1", "x"),),
                          condition=frozenset({"a"}), decision=frozenset({"b"}))

    def test_decision_table_feature_subsets_checked(self):
        with pytest.raises(ValueError, match="condition"):
            DecisionTable(
                objects=Universe(("o1",)),
                attributes=("a",),
                rows=(("1",),),
                condition=frozenset({"zz"}),
                decision=frozenset(),
            )

    def test_from_rows_row_length_checked(self):
        with pytest.raises(ValueError, match="expected 2"):
            DecisionTable.from_rows({"o1": ["1"]}, attributes=("a", "b"))
