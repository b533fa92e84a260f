"""Finite rough-set machinery: approximation spaces, region algebra, and
indiscernibility partitions over decision tables.

All containers are immutable and every operation is a pure function, so
values can be shared freely across threads.  Set-valued results come back as
tuples ordered by the universe's insertion order, which keeps reports and
golden files reproducible.  Every public function checks its inputs; the
private `_block_membership` is `rough_membership` without the checks.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import Frozen, ValidationError

__all__ = [
    "Universe",
    "Partition",
    "ApproximationSpace",
    "DecisionTable",
    "Regions",
    "lower_approximation",
    "upper_approximation",
    "boundary",
    "regions",
    "rough_membership",
    "is_exact",
    "indiscernibility",
]

ElementSet = tuple[str, ...]


class Universe(Frozen):
    """Finite ordered collection of distinct element identifiers.

    Identifiers are opaque, case-sensitive strings; iteration order is the
    insertion order and is the canonical order for all derived sets.
    """

    def __init__(self, elements: Iterable[str]) -> None:
        elements = tuple(elements)
        self.__dict__.update(elements=elements, element_set=frozenset(elements))
        if len(self.element_set) == len(elements):
            return
        seen: set[str] = set()
        for e in elements:
            if e in seen:
                raise ValueError(f"duplicate element: {e!r}")
            seen.add(e)

    def __iter__(self):
        return iter(self.elements)


class Partition(Frozen):
    """Pairwise-disjoint, non-empty blocks of element identifiers."""

    def __init__(self, blocks: Iterable[Iterable[str]]) -> None:
        blocks = tuple(map(tuple, blocks))
        self.__dict__["blocks"] = blocks
        if all(blocks) and len(self.element_set) == sum(map(len, blocks)):
            return
        seen: set[str] = set()
        for block in blocks:
            if not block:
                raise ValueError("partition contains an empty block")
            for e in block:
                if e in seen:
                    raise ValueError(f"element in more than one block: {e!r}")
                seen.add(e)

    @cached_property
    def element_set(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(self.blocks))


class ApproximationSpace(Frozen):
    """A finite universe together with a partition of exactly its elements."""

    def __init__(self, universe: Universe, partition: Partition) -> None:
        self.__dict__.update(universe=universe, partition=partition)
        if universe.element_set == partition.element_set:
            return
        missing = universe.element_set - partition.element_set
        stray = partition.element_set - universe.element_set
        if missing:
            raise ValueError(f"partition does not cover: {sorted(missing)}")
        if stray:
            raise ValueError(f"partition exceeds the universe: {sorted(stray)}")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "ApproximationSpace":
        """Build a space whose universe is the blocks' elements in block order."""
        partition = Partition(blocks)
        return cls(Universe(chain.from_iterable(partition.blocks)), partition)


class DecisionTable(Frozen):
    """Objects x attributes with condition and decision feature subsets.

    `rows[i]` is object i's values, one per attribute in `attributes` order.
    """

    def __init__(self, objects: Universe, attributes: Iterable[str],
                 rows: Iterable[Sequence[str]], condition: Iterable[str],
                 decision: Iterable[str]) -> None:
        self.__dict__.update(objects=objects, attributes=tuple(attributes),
                             rows=tuple(map(tuple, rows)), condition=frozenset(condition),
                             decision=frozenset(decision))
        attrs = set(self.attributes)
        if len(attrs) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        for name, subset in (("condition", self.condition), ("decision", self.decision)):
            if not subset <= attrs:
                raise ValueError(f"{name} features not among attributes: {sorted(subset - attrs)}")
        if len(self.rows) != len(objects.elements):
            raise ValueError(f"{len(self.rows)} rows for {len(objects.elements)} objects")
        width = len(attrs)
        if set(map(len, self.rows)) - {width}:
            obj, row = next((o, r) for o, r in zip(objects, self.rows) if len(r) != width)
            raise ValueError(f"row for {obj!r} has {len(row)} values, expected {width}")

    @classmethod
    def from_rows(cls, rows: Mapping[str, Sequence[str]], attributes: Sequence[str]) -> "DecisionTable":
        """Build a table from per-object value rows aligned with `attributes`,
        with no condition or decision features."""
        return cls(Universe(rows), attributes, rows.values(), (), ())


class Regions(NamedTuple):
    """Positive, negative, and boundary regions of one subset."""

    pos: ElementSet
    neg: ElementSet
    bnd: ElementSet


def _checked_subset(space: ApproximationSpace, a: Iterable[str]) -> frozenset[str]:
    subset = frozenset(a)
    stray = subset - space.universe.element_set
    if stray:
        raise ValidationError(f"elements not in the universe: {sorted(stray)}")
    return subset


def _in_universe_order(space: ApproximationSpace, chosen: set[str]) -> ElementSet:
    return tuple(e for e in space.universe if e in chosen)


def rough_membership(space: ApproximationSpace, a: Iterable[str]) -> tuple[tuple[int, int], ...]:
    """``(|B & a|, |B|)`` for every block B, in block order.

    Their ratio is Pawlak's rough membership of each element of B in `a`:
    1 on the lower approximation, 0 outside the upper approximation.
    """
    return _block_membership(space.partition.blocks, _checked_subset(space, a))


def _block_membership(blocks: Sequence[Sequence[str]], a: Iterable[str]) -> tuple[tuple[int, int], ...]:
    """`rough_membership` without its checks: `blocks` must be non-empty and
    pairwise disjoint, and `a` inside their union, or the counts are wrong."""
    subset = frozenset(a)
    return tuple(zip(map(len, map(subset.intersection, blocks)), map(len, blocks)))


def regions(space: ApproximationSpace, a: Iterable[str]) -> Regions:
    """Positive, negative, and boundary regions; together they partition U.

    A block wholly inside `a` is positive, a block disjoint from it negative,
    and any other block boundary.
    """
    pos: set[str] = set()
    neg: set[str] = set()
    bnd: set[str] = set()
    for block, (inside, size) in zip(space.partition.blocks, rough_membership(space, a)):
        (pos if inside == size else neg if inside == 0 else bnd).update(block)
    return Regions(*(_in_universe_order(space, region) for region in (pos, neg, bnd)))


def lower_approximation(space: ApproximationSpace, a: Iterable[str]) -> ElementSet:
    """Union of all blocks wholly contained in `a` (the certainly-in region)."""
    return regions(space, a).pos


def upper_approximation(space: ApproximationSpace, a: Iterable[str]) -> ElementSet:
    """Union of all blocks intersecting `a` (the possibly-in region)."""
    return _in_universe_order(space, space.universe.element_set.difference(regions(space, a).neg))


def boundary(space: ApproximationSpace, a: Iterable[str]) -> ElementSet:
    """Upper approximation minus lower approximation."""
    return regions(space, a).bnd


def is_exact(space: ApproximationSpace, a: Iterable[str]) -> bool:
    """True iff the boundary of `a` is empty (lower equals upper)."""
    return not regions(space, a).bnd


def indiscernibility(table: DecisionTable, p: Iterable[str]) -> Partition:
    """Partition objects into maximal groups agreeing on every attribute in `p`.

    The empty attribute set groups all objects into a single block (the
    agreement condition is vacuous).  Blocks are ordered by first occurrence
    and block members keep the object order.
    """
    chosen = set(p)
    unknown = chosen - set(table.attributes)
    if unknown:
        raise ValidationError(f"unknown attribute(s): {sorted(unknown)}")
    indices = [i for i, a in enumerate(table.attributes) if a in chosen]
    signature = itemgetter(*indices) if indices else lambda row: ()
    groups: dict[object, list[str]] = {}
    for obj, sig in zip(table.objects, map(signature, table.rows)):
        groups.setdefault(sig, []).append(obj)
    return Partition(groups.values())
