"""Per-level region partitioning of an integrated map and bottom-up
importance degrees.

Each level of the integrated tree splits into a positive region (green
nodes), a negative region (red nodes), and a boundary set: the parents, one
level up, of the nodes just classified.  The importance degree of a boundary
node is the fraction of its children that are green.

Regions and degrees are computed in one pass over the nodes, O(n): nodes
are bucketed by level once, and a degree counts its node's green children.

Degrees are exact rationals.  For display, and for the aggregate expected
result, they are truncated toward zero at two decimal places (2/3 becomes
0.66, not 0.67); the expected result is the mean of the truncated values.
Truncation is exact integer floor division, floor(p/q * 10**k) ==
p * 10**k // q, so no Fraction is multiplied or floored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .conceptmap import IntegratedMap, NodeColor
from .errors import LeafNodeError, NothingToAnalyzeError

__all__ = [
    "LevelRegions",
    "ImportanceRecord",
    "AnalysisResult",
    "truncated",
    "level_regions",
    "importance_degree",
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
    out = []
    for level in range(imap.max_level, 0, -1):
        classified = imap.by_level[level]
        out.append(
            LevelRegions(
                level=level,
                pos=tuple(n.id for n in classified if n.color is NodeColor.GREEN),
                neg=tuple(n.id for n in classified if n.color is NodeColor.RED),
                bnd=tuple(dict.fromkeys(n.parent for n in classified)),
            )
        )
    return tuple(out)


def importance_degree(node: str, imap: IntegratedMap, regions: LevelRegions) -> ImportanceRecord:
    """Fraction of `node`'s children lying in `regions.pos`.

    `regions` must be the level regions of the node's child level, so the
    children in `regions.pos` are exactly the green ones.
    """
    info = imap.by_id.get(node)
    if info is None:
        raise ValueError(f"unknown node: {node!r}")
    children = imap.children_of[node]
    if not children:
        raise LeafNodeError(f"node {node!r} has no children")
    if regions.level != info.level + 1:
        raise ValueError(
            f"regions are for level {regions.level}, node {node!r} needs level {info.level + 1}"
        )
    by_id = imap.by_id
    overlap = sum(1 for child in children if by_id[child].color is NodeColor.GREEN)
    return ImportanceRecord(
        node=node,
        level=info.level,
        child_count=len(children),
        overlap=overlap,
        alpha=Fraction(overlap, len(children)),
    )


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
    records: list[ImportanceRecord] = []
    for level in selected:
        level_reg = by_level[level]
        for node in level_reg.bnd:
            records.append(importance_degree(node, imap, level_reg))
    scale = 10 ** TRUNCATION_PLACES
    total = Fraction(sum(r.overlap * scale // r.child_count for r in records), scale)
    return AnalysisResult(
        regions=all_regions,
        records=tuple(records),
        expected_result=total / len(records),
    )
