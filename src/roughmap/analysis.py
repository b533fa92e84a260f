"""Per-level region partitioning of an integrated map and bottom-up
importance degrees.

Each level of the integrated tree splits into a positive region (green
nodes), a negative region (red nodes), and a boundary set: the parents, one
level up, of the nodes just classified.  The importance degree of a boundary
node is the rough membership of its children in the green set: take the
analysed levels' nodes as the universe, partition them by parent, and the
degree of a parent is |children & GREEN| / |children|
(:func:`roughmap.roughset.rough_membership`).  A parent of degree 1 is in
the lower approximation of the green set, one of degree 0 outside its upper
approximation.

Nodes are bucketed by level once, and one approximation space over the
selected levels yields every degree, so analysis is O(n).

Degrees are exact rationals.  For display, and for the aggregate expected
result, they are truncated toward zero at two decimal places (2/3 becomes
0.66, not 0.67); the expected result is the mean of the truncated values.
Truncation is exact integer floor division, floor(p/q * 10**k) ==
p * 10**k // q, so no Fraction is multiplied or floored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .conceptmap import IntegratedMap, NodeColor
from .errors import NothingToAnalyzeError
from .roughset import ApproximationSpace, rough_membership

__all__ = [
    "LevelRegions",
    "ImportanceRecord",
    "AnalysisResult",
    "truncated",
    "level_regions",
    "analyze",
]

TRUNCATION_PLACES = 2

DEEPEST_ONLY = "deepest"
ALL_LEVELS = "all"


def truncated(value: Fraction, places: int = TRUNCATION_PLACES) -> Fraction:
    """Truncate a non-negative fraction toward zero at `places` decimals."""
    scale = 10 ** places
    return Fraction(value.numerator * scale // value.denominator, scale)


@dataclass(frozen=True)
class LevelRegions:
    """Classified nodes at one level plus their parents one level up.

    `pos` and `neg` split the nodes at `level` by color; `bnd` holds their
    parents, which all sit at ``level - 1``.
    """

    level: int
    pos: tuple[str, ...]
    neg: tuple[str, ...]
    bnd: tuple[str, ...]


@dataclass(frozen=True)
class ImportanceRecord:
    """Importance degree of one boundary node.

    `level` is the node's own level; its children sit at ``level + 1``.
    """

    node: str
    level: int
    child_count: int
    overlap: int  # children in the positive region
    alpha: Fraction  # overlap / child_count, exact

    @property
    def truncated_alpha(self) -> Fraction:
        return truncated(self.alpha)


@dataclass(frozen=True)
class AnalysisResult:
    regions: tuple[LevelRegions, ...]  # deepest level first
    records: tuple[ImportanceRecord, ...]
    expected_result: Fraction  # mean of the truncated alphas

    @property
    def total(self) -> Fraction:
        """Sum of the records' truncated alphas."""
        return self.expected_result * len(self.records)


def level_regions(imap: IntegratedMap) -> tuple[LevelRegions, ...]:
    """POS/NEG/BND for every level from the deepest down to 1.

    Only non-leaf nodes can appear in a boundary set, since a boundary set
    holds parents of classified nodes; leaves are thereby bypassed.
    """
    if imap.max_level < 1:
        raise NothingToAnalyzeError("map has a single node, nothing to classify")
    # Enum member lookups cost more than the loops; read them once.
    green, red = NodeColor.GREEN, NodeColor.RED
    out = []
    for level in range(imap.max_level, 0, -1):
        classified = imap.by_level[level]
        out.append(
            LevelRegions(
                level=level,
                pos=tuple([n.id for n in classified if n.color is green]),
                neg=tuple([n.id for n in classified if n.color is red]),
                bnd=tuple(dict.fromkeys([n.parent for n in classified])),
            )
        )
    return tuple(out)


def analyze(imap: IntegratedMap, levels: str | Iterable[int] = DEEPEST_ONLY) -> AnalysisResult:
    """Compute regions plus one importance record per processed boundary node.

    `levels` selects which boundary sets are processed, each identified by
    the level of the nodes it is the parent set of: ``"deepest"`` (default)
    processes only the deepest level's boundary set, ``"all"`` processes
    every level from the deepest up to 1, and an explicit iterable of levels
    processes exactly those.  The expected result is the mean of the
    records' truncated alphas.
    """
    all_regions = level_regions(imap)
    by_level = {r.level: r for r in all_regions}
    if isinstance(levels, str):
        if levels == DEEPEST_ONLY:
            selected = [all_regions[0].level]
        elif levels == ALL_LEVELS:
            selected = [r.level for r in all_regions]
        else:
            raise ValueError(f"levels must be 'deepest', 'all', or an iterable of ints, got {levels!r}")
    else:
        selected = sorted(set(levels), reverse=True)
        unknown = [lvl for lvl in selected if lvl not in by_level]
        if unknown:
            raise ValueError(f"no such level(s): {unknown}")
        if not selected:
            raise ValueError("no levels selected")
    chosen = [by_level[level] for level in selected]
    parents = [(node, reg.level - 1) for reg in chosen for node in reg.bnd]
    space = ApproximationSpace.from_blocks(imap.children_of[node] for node, _ in parents)
    membership = rough_membership(space, chain.from_iterable(reg.pos for reg in chosen))
    records = [
        ImportanceRecord(node=node, level=level, child_count=size, overlap=inside,
                         alpha=Fraction(inside, size))
        for (node, level), (inside, size) in zip(parents, membership)
    ]
    scale = 10 ** TRUNCATION_PLACES
    total = Fraction(sum(r.overlap * scale // r.child_count for r in records), scale)
    return AnalysisResult(
        regions=all_regions,
        records=tuple(records),
        expected_result=total / len(records),
    )
