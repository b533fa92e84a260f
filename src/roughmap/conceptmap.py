"""Concept-map validation, level assignment, and teacher/student integration.

A concept map is a rooted tree of concept nodes; general concepts sit near
the root.  Integrating a teacher map with a student map yields one tree whose
non-root nodes are colored green (the student has the concept in the right
place) or red (the concept is missing from, or misplaced in, the student's
map).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

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


class NodeColor(Enum):
    GREEN = "green"
    RED = "red"


@dataclass(frozen=True)
class MapNode:
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


@dataclass(frozen=True)
class IntegratedNode:
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
        children: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                children[n.parent].append(n.id)
        return {nid: tuple(kids) for nid, kids in children.items()}

    @cached_property
    def by_level(self) -> dict[int, tuple[IntegratedNode, ...]]:
        """Nodes bucketed by level in one pass, node order kept per level."""
        buckets: dict[int, list[IntegratedNode]] = {}
        for n in self.nodes:
            buckets.setdefault(n.level, []).append(n)
        return {level: tuple(ns) for level, ns in buckets.items()}

    @cached_property
    def max_level(self) -> int:
        return max(self.by_level)


def _as_node(raw) -> MapNode:
    if isinstance(raw, MapNode):
        return raw
    if len(raw) == 2:
        nid, parent = raw
        return MapNode(id=nid, parent=parent)
    nid, parent, phrase = raw
    return MapNode(id=nid, parent=parent, phrase=phrase)


def validate_map(nodes: Iterable, subject: str = "untitled") -> ConceptMap:
    """Check the rooted-tree invariants and return a validated map.

    Accepts MapNode instances or (id, parent) / (id, parent, phrase) tuples.
    Raises DuplicateNodeError, UnknownParentError, CycleError, or
    RootCountError.
    """
    normalized = [_as_node(n) for n in nodes]
    if not normalized:
        raise RootCountError("map has no nodes")
    ids: set[str] = set()
    for n in normalized:
        if n.id in ids:
            raise DuplicateNodeError(f"duplicate node id: {n.id!r}")
        ids.add(n.id)
    for n in normalized:
        if n.parent is not None and n.parent not in ids:
            raise UnknownParentError(f"node {n.id!r} references unknown parent {n.parent!r}")
    # Cycles are checked before the root count: a rootless input such as
    # {A->B, B->A} is better reported as the cycle it actually contains.
    parent_of = {n.id: n.parent for n in normalized}
    resolved: set[str] = set()
    for n in normalized:
        path: list[str] = []
        on_path: set[str] = set()
        current: str | None = n.id
        while current is not None and current not in resolved:
            if current in on_path:
                cycle = path[path.index(current):] + [current]
                raise CycleError("cycle among nodes: " + " -> ".join(cycle))
            on_path.add(current)
            path.append(current)
            current = parent_of[current]
        resolved.update(path)
    roots = [n.id for n in normalized if n.parent is None]
    if not roots:
        raise RootCountError("map has no root node")
    if len(roots) > 1:
        raise RootCountError(f"multiple root nodes: {roots}")
    return ConceptMap(subject=subject, nodes=tuple(normalized))


def _levels(pairs: Iterable[tuple[str, str | None]]) -> dict[str, int]:
    """Breadth-first level assignment over validated (id, parent) pairs."""
    children: dict[str, list[str]] = {}
    root: str | None = None
    for nid, parent in pairs:
        children.setdefault(nid, [])
        if parent is None:
            root = nid
        else:
            children.setdefault(parent, []).append(nid)
    assert root is not None
    levels = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for child in children[current]:
            levels[child] = levels[current] + 1
            queue.append(child)
    return levels


def compute_levels(cmap: ConceptMap) -> dict[str, int]:
    """Depth of every node: root 0, each child one below its parent."""
    return _levels((n.id, n.parent) for n in cmap.nodes)


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
    student_parent = {n.id: n.parent for n in student.nodes}
    merged: list[tuple[str, str | None, NodeColor | None]] = []
    for n in teacher.nodes:
        if n.parent is None:
            merged.append((n.id, None, None))
            continue
        consistent = n.id in student_parent and student_parent[n.id] == n.parent
        merged.append((n.id, n.parent, NodeColor.GREEN if consistent else NodeColor.RED))
    for n in student.nodes:
        if n.id not in teacher.by_id:
            merged.append((n.id, n.parent, NodeColor.GREEN))
    all_ids = {nid for nid, _, _ in merged}
    for nid, parent, _ in merged:
        if parent is not None and parent not in all_ids:
            raise OrphanNodeError(f"node {nid!r} has parent {parent!r} present in neither map")
    levels = _levels((nid, parent) for nid, parent, _ in merged)
    if len(levels) != len(merged):
        unreachable = [nid for nid, _, _ in merged if nid not in levels]
        raise CycleError(f"nodes unreachable from the root: {unreachable}")
    return IntegratedMap(
        subject=teacher.subject,
        nodes=tuple(
            IntegratedNode(id=nid, parent=parent, level=levels[nid], color=color)
            for nid, parent, color in merged
        ),
    )
