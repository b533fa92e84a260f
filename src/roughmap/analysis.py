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

`integrate` buckets each level's nodes by colour and under their parents:
`level_regions` reads the buckets, and `analyze` takes every degree from one
unchecked count (`roughset._block_membership`) over the chosen levels' child
blocks, so analysis is O(n).  No check is needed: each node is in the one
block of its parent, so the blocks partition the chosen levels' nodes, and
those levels' green ids are among them.  Records are named tuples built in
bulk from columns, and the records of one degree share one Fraction: a map
has few distinct (green, children) pairs.

Degrees are exact rationals.  For display, and for the aggregate expected
result, they are truncated toward zero at two decimal places (2/3 becomes
0.66, not 0.67); the expected result is the mean of the truncated values.
Truncation is exact integer floor division, floor(p/q * 10**k) ==
p * 10**k // q, so no Fraction is multiplied or floored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, floordiv, mul, sub
from typing import NamedTuple

from .conceptmap import IntegratedMap, from_columns
from .errors import ValidationError
from .roughset import _block_membership

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


class LevelRegions(NamedTuple):
    """Classified nodes at one level plus their parents one level up.

    `pos` and `neg` split the nodes at `level` by color; `bnd` holds their
    parents, which all sit at ``level - 1``.
    """

    level: int
    pos: tuple[str, ...]
    neg: tuple[str, ...]
    bnd: tuple[str, ...]


class ImportanceRecord(NamedTuple):
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


class AnalysisResult(NamedTuple):
    regions: tuple[LevelRegions, ...]  # deepest level first
    records: tuple[ImportanceRecord, ...]
    expected_result: Fraction  # mean of the truncated alphas

    @property
    def total(self) -> Fraction:
        """Sum of the records' truncated alphas."""
        return self.expected_result * len(self.records)


_level, _pos, _bnd = attrgetter("level"), attrgetter("pos"), attrgetter("bnd")


def level_regions(imap: IntegratedMap) -> tuple[LevelRegions, ...]:
    """POS/NEG/BND for every level from the deepest down to 1.

    Only non-leaf nodes can appear in a boundary set, since a boundary set
    holds parents of classified nodes; leaves are thereby bypassed.
    """
    top = imap.max_level
    if top < 1:
        raise ValidationError("map has a single node, nothing to classify")
    # A level's boundary set is the parents its child blocks are keyed by.
    pos, neg, blocks = imap._by_level
    deepest_first = slice(top, 0, -1)
    return from_columns(LevelRegions, range(top, 0, -1), map(tuple, pos[deepest_first]),
                        map(tuple, neg[deepest_first]), map(tuple, blocks[deepest_first]))


def _check_levels(levels: str) -> None:
    if levels not in (DEEPEST_ONLY, ALL_LEVELS):
        raise ValidationError(f"levels must be 'deepest' or 'all', got {levels!r}")


def analyze(imap: IntegratedMap, levels: str = DEEPEST_ONLY) -> AnalysisResult:
    """Compute regions plus one importance record per processed boundary node.

    `levels` is ``"deepest"`` (default), which processes only the deepest
    level's boundary set, or ``"all"``, which processes every level's.  The
    expected result is the mean of the records' truncated alphas.
    """
    _check_levels(levels)
    all_regions = level_regions(imap)
    chosen = all_regions if levels == ALL_LEVELS else all_regions[:1]
    nodes = list(chain.from_iterable(map(_bnd, chosen)))
    node_levels = chain.from_iterable(map(repeat, map(sub, map(_level, chosen), repeat(1)),
                                          map(len, map(_bnd, chosen))))
    blocks = map(imap._by_level[2].__getitem__, map(_level, chosen))
    membership = _block_membership(list(chain.from_iterable(map(dict.values, blocks))),
                                   chain.from_iterable(map(_pos, chosen)))
    overlaps, sizes = zip(*membership)
    # One Fraction per distinct (overlap, size) pair, shared by its records.
    degrees = {pair: Fraction(*pair) for pair in set(membership)}
    records = from_columns(ImportanceRecord, nodes, node_levels, sizes, overlaps,
                           map(degrees.__getitem__, membership))
    scale = 10 ** TRUNCATION_PLACES
    total = Fraction(sum(map(floordiv, map(mul, overlaps, repeat(scale)), sizes)), scale)
    return AnalysisResult(regions=all_regions, records=records,
                          expected_result=total / len(records))
