"""Finite rough-set machinery: approximation spaces, region algebra, and
indiscernibility partitions over decision tables.

All containers are immutable and every operation is a pure function, so
values can be shared freely across threads.  Set-valued results come back as
tuples ordered by the universe's insertion order, which keeps reports and
golden files reproducible.  Every public function checks its inputs; the
private `_block_membership` is `rough_membership` without the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidSubsetError, UnknownAttributeError

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


@dataclass(frozen=True)
class Universe:
    """Finite ordered collection of distinct element identifiers.

    Identifiers are opaque, case-sensitive strings; iteration order is the
    insertion order and is the canonical order for all derived sets.
    """

    elements: ElementSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.element_set) == len(self.elements):
            return
        seen: set[str] = set()
        for e in self.elements:
            if e in seen:
                raise ValueError(f"duplicate element: {e!r}")
            seen.add(e)

    @cached_property
    def element_set(self) -> frozenset[str]:
        return frozenset(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint, non-empty blocks of element identifiers."""

    blocks: tuple[ElementSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        if all(self.blocks) and len(self.element_set) == sum(map(len, self.blocks)):
            return
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("partition contains an empty block")
            for e in block:
                if e in seen:
                    raise ValueError(f"element in more than one block: {e!r}")
                seen.add(e)

    @cached_property
    def element_set(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(self.blocks))


@dataclass(frozen=True)
class ApproximationSpace:
    """A finite universe together with a partition of exactly its elements."""

    universe: Universe
    partition: Partition

    def __post_init__(self) -> None:
        if self.universe.element_set == self.partition.element_set:
            return
        missing = self.universe.element_set - self.partition.element_set
        stray = self.partition.element_set - self.universe.element_set
        if missing:
            raise ValueError(f"partition does not cover: {sorted(missing)}")
        if stray:
            raise ValueError(f"partition exceeds the universe: {sorted(stray)}")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "ApproximationSpace":
        """Build a space whose universe is the blocks' elements in block order.
        That universe shares the element set of the partition just checked,
        and neither it nor the space is checked again."""
        partition = Partition(tuple(blocks))
        universe = object.__new__(Universe)
        universe.__dict__.update(elements=tuple(chain.from_iterable(partition.blocks)),
                                 element_set=partition.element_set)
        space = object.__new__(cls)
        space.__dict__.update(universe=universe, partition=partition)
        return space


@dataclass(frozen=True)
class DecisionTable:
    """Objects x attributes with condition and decision feature subsets.

    `values` must be total: one value per (object, attribute) pair.
    """

    objects: Universe
    attributes: tuple[str, ...]
    values: Mapping[tuple[str, str], str]
    condition: frozenset[str]
    decision: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "values", dict(self.values))
        object.__setattr__(self, "condition", frozenset(self.condition))
        object.__setattr__(self, "decision", frozenset(self.decision))
        attrs = set(self.attributes)
        if len(attrs) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        for name, subset in (("condition", self.condition), ("decision", self.decision)):
            if not subset <= attrs:
                raise ValueError(f"{name} features not among attributes: {sorted(subset - attrs)}")
        for obj in self.objects:
            for attr in self.attributes:
                if (obj, attr) not in self.values:
                    raise ValueError(f"missing value for ({obj!r}, {attr!r})")

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[str, Sequence[str]],
        attributes: Sequence[str],
        condition: Iterable[str] | None = None,
        decision: Iterable[str] | None = None,
    ) -> "DecisionTable":
        """Build a table from per-object value rows aligned with `attributes`.

        Defaults follow the usual convention: every attribute but the last is
        a condition feature and the last is the decision feature.
        """
        attributes = tuple(attributes)
        values: dict[tuple[str, str], str] = {}
        for obj, row in rows.items():
            if len(row) != len(attributes):
                raise ValueError(f"row for {obj!r} has {len(row)} values, expected {len(attributes)}")
            for attr, val in zip(attributes, row):
                values[(obj, attr)] = val
        if condition is None:
            condition = attributes[:-1]
        if decision is None:
            decision = attributes[-1:]
        return cls(
            objects=Universe(tuple(rows)),
            attributes=attributes,
            values=values,
            condition=frozenset(condition),
            decision=frozenset(decision),
        )


class Regions(NamedTuple):
    """Positive, negative, and boundary regions of one subset."""

    pos: ElementSet
    neg: ElementSet
    bnd: ElementSet


def _checked_subset(space: ApproximationSpace, a: Iterable[str]) -> frozenset[str]:
    subset = frozenset(a)
    stray = subset - space.universe.element_set
    if stray:
        raise InvalidSubsetError(f"elements not in the universe: {sorted(stray)}")
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
        raise UnknownAttributeError(f"unknown attribute(s): {sorted(unknown)}")
    signature_attrs = [a for a in table.attributes if a in chosen]
    groups: dict[tuple[str, ...], list[str]] = {}
    for obj in table.objects:
        signature = tuple(table.values[(obj, attr)] for attr in signature_attrs)
        groups.setdefault(signature, []).append(obj)
    return Partition(tuple(tuple(group) for group in groups.values()))
