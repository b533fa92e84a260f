"""Concept-map validation, level assignment, and teacher/student integration.

A concept map is a rooted tree of concept nodes; general concepts sit near
the root.  Integrating a teacher map with a student map yields one tree whose
non-root nodes are colored green (the student has the concept in the right
place) or red (the concept is missing from, or misplaced in, the student's
map).

A map is handled as columns of ids and parents: nodes are named tuples built
in bulk, checks are set operations, and a per-node loop runs only to name an
offender.  Levels come from one memoised walk up the parent links, which
validation also runs to find cycles.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import filterfalse, repeat
from operator import attrgetter, eq
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    CycleError,
    DuplicateNodeError,
    OrphanNodeError,
    RootCountError,
    RootMismatchError,
    UnknownParentError,
)

__all__ = [
    "NodeColor",
    "MapNode",
    "ConceptMap",
    "IntegratedNode",
    "IntegratedMap",
    "validate_map",
    "compute_levels",
    "integrate",
]


# zip(*nodes) would build one tuple iterator per node, and a library caller's
# cyclic collector counts that garbage (a run pauses it); these read a column
# in C without it.
_id, _parent, _level = attrgetter("id"), attrgetter("parent"), attrgetter("level")


class NodeColor(Enum):
    GREEN = "green"
    RED = "red"


class MapNode(NamedTuple):
    """One concept: an id, its parent's id (None for the root), and an
    optional linking phrase, which is carried through but never analyzed."""

    id: str
    parent: str | None
    phrase: str | None = None


@dataclass(frozen=True)
class ConceptMap:
    """Rooted tree of concept nodes.

    Instances should come from :func:`validate_map` or the file parser; the
    dataclass itself does not re-check the tree invariants.
    """

    subject: str
    nodes: tuple[MapNode, ...]

    @cached_property
    def by_id(self) -> dict[str, MapNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def root(self) -> MapNode:
        return next(n for n in self.nodes if n.parent is None)


class IntegratedNode(NamedTuple):
    id: str
    parent: str | None
    level: int
    color: NodeColor | None  # None only on the root


@dataclass(frozen=True)
class IntegratedMap:
    """Colored merge of a teacher map and a student map, levels recomputed."""

    subject: str
    nodes: tuple[IntegratedNode, ...]

    @cached_property
    def by_id(self) -> dict[str, IntegratedNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def children_of(self) -> dict[str, tuple[str, ...]]:
        kids: defaultdict[str, list[str]] = defaultdict(list)
        for n in self.nodes:
            if n.parent is not None:
                kids[n.parent].append(n.id)
        # Leaves share (): an empty list per node is garbage, and outside a
        # run it counts toward the cyclic collector's next pass.
        children = dict.fromkeys(map(_id, self.nodes), ())
        children.update((nid, tuple(ids)) for nid, ids in kids.items())
        return children

    @cached_property
    def max_level(self) -> int:
        return max(map(_level, self.nodes))


def from_columns(cls, *columns) -> tuple:
    """One `cls` named tuple per row of `columns`.  ``tuple.__new__`` builds
    each row in C; calling the class or `cls._make` runs Python code per row."""
    return tuple(map(tuple.__new__, repeat(cls), zip(*columns)))


def _as_node(raw) -> MapNode:
    if isinstance(raw, MapNode):
        return raw
    if len(raw) == 2:
        nid, parent = raw
        return MapNode(id=nid, parent=parent)
    nid, parent, phrase = raw
    return MapNode(id=nid, parent=parent, phrase=phrase)


def _walk_depths(parent_of: Mapping[str, str | None], depth: dict) -> list[str] | None:
    """Extend `depth` (resolved node -> depth) to every node of `parent_of`.

    A node whose parent is resolved costs one lookup.  Otherwise the walk
    climbs to the nearest resolved ancestor and resolves the whole climb on
    the way back.  An id missing from `parent_of` counts as having parent
    None.  A climb resolves nothing, and its nodes stay out of `depth`, when
    it meets one of its own nodes again, reaches None while None is not in
    `depth`, or reaches a node that such a climb left behind.  Each node is
    climbed through at most once.  Returns the first cycle met, closed by its
    repeated node, or None.
    """
    get = depth.get
    dead: set[str] = set()
    cycle = None
    for nid, parent in parent_of.items():
        d = get(parent)
        if d is not None:
            depth[nid] = d + 1
            continue
        if nid in depth or nid in dead:
            continue
        climb = {nid: None}  # insertion-ordered, so it is the path as well
        while (d := get(parent)) is None:
            if parent in climb:
                if cycle is None:
                    path = list(climb)
                    cycle = path[path.index(parent):] + [parent]
                break
            if parent is None or parent in dead:
                break
            climb[parent] = None
            parent = parent_of.get(parent)
        if d is None:
            dead.update(climb)
            continue
        for node in reversed(climb):
            d += 1
            depth[node] = d
    return cycle


def _levels(ids: tuple, parents: tuple) -> dict[str, int]:
    """Depth of every node reachable from the last root listed."""
    root = [nid for nid, parent in zip(ids, parents) if parent is None][-1]
    levels = {root: 0}
    _walk_depths(dict(zip(ids, parents)), levels)
    return levels


def validate_map(nodes: Iterable, subject: str = "untitled") -> ConceptMap:
    """Check the rooted-tree invariants and return a validated map.

    Accepts MapNode instances or (id, parent) / (id, parent, phrase) tuples.
    Raises DuplicateNodeError, UnknownParentError, CycleError, or
    RootCountError.
    """
    nodes = tuple(nodes)
    if set(map(type, nodes)) != {MapNode}:
        nodes = tuple(map(_as_node, nodes))
    if not nodes:
        raise RootCountError("map has no nodes")
    ids, parents = tuple(map(_id, nodes)), tuple(map(_parent, nodes))
    parent_of = dict(zip(ids, parents))
    if len(parent_of) != len(ids):
        seen: set[str] = set()
        for nid in ids:
            if nid in seen:
                raise DuplicateNodeError(f"duplicate node id: {nid!r}")
            seen.add(nid)
    unknown = set(parents).difference(parent_of, (None,))
    if unknown:
        nid, parent = next((n, p) for n, p in zip(ids, parents) if p in unknown)
        raise UnknownParentError(f"node {nid!r} references unknown parent {parent!r}")
    # Cycles are checked before the root count: a rootless input such as
    # {A->B, B->A} is better reported as the cycle it actually contains.
    cycle = _walk_depths(parent_of, {None: -1})
    if cycle is not None:
        raise CycleError("cycle among nodes: " + " -> ".join(cycle))
    root_count = parents.count(None)
    if not root_count:
        raise RootCountError("map has no root node")
    if root_count > 1:
        roots = [nid for nid, parent in zip(ids, parents) if parent is None]
        raise RootCountError(f"multiple root nodes: {roots}")
    return ConceptMap(subject=subject, nodes=nodes)


def compute_levels(cmap: ConceptMap) -> dict[str, int]:
    """Depth of every node: root 0, each child one below its parent."""
    return _levels(tuple(map(_id, cmap.nodes)), tuple(map(_parent, cmap.nodes)))


def integrate(teacher: ConceptMap, student: ConceptMap) -> IntegratedMap:
    """Merge the two maps into one colored tree.

    The node set is the union of both maps by id.  Shared and teacher-only
    nodes keep the teacher's structure; such a node is green when the student
    map has the same id under the same parent, red otherwise.  Student-only
    nodes attach under their declared parent and are green.  Levels are
    recomputed on the merged tree.
    """
    if teacher.root.id != student.root.id:
        raise RootMismatchError(
            f"root ids differ: teacher {teacher.root.id!r}, student {student.root.id!r}"
        )
    ids, parents = tuple(map(_id, teacher.nodes)), tuple(map(_parent, teacher.nodes))
    student_ids = tuple(map(_id, student.nodes))
    student_parent = dict(zip(student_ids, map(_parent, student.nodes)))
    teacher_ids = set(ids)
    extra_ids = tuple(filterfalse(teacher_ids.__contains__, student_ids))
    extra_parents = tuple(map(student_parent.__getitem__, extra_ids))
    merged_ids, merged_parents = ids + extra_ids, parents + extra_parents
    orphans = set(merged_parents).difference(teacher_ids, student_parent, (None,))
    if orphans:
        nid, parent = next((n, p) for n, p in zip(merged_ids, merged_parents) if p in orphans)
        raise OrphanNodeError(f"node {nid!r} has parent {parent!r} present in neither map")
    levels = _levels(merged_ids, merged_parents)
    if len(levels) != len(merged_ids):
        unreachable = [nid for nid in merged_ids if nid not in levels]
        raise CycleError(f"nodes unreachable from the root: {unreachable}")
    colors = list(map((NodeColor.RED, NodeColor.GREEN).__getitem__,
                      map(eq, map(student_parent.get, ids), parents)))
    colors[parents.index(None)] = None
    colors.extend(repeat(NodeColor.GREEN, len(extra_ids)))
    return IntegratedMap(
        subject=teacher.subject,
        nodes=from_columns(IntegratedNode, merged_ids, merged_parents,
                           map(levels.__getitem__, merged_ids), colors),
    )
