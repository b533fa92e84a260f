"""Concept-map validation, level assignment, and teacher/student integration.

A concept map is a rooted tree of concept nodes; general concepts sit near
the root.  Integrating a teacher map with a student map yields one tree whose
non-root nodes are colored green (the student has the concept in the right
place) or red (the concept is missing from, or misplaced in, the student's
map).

Maps are held as columns (ids, parents, and phrases or levels and colors):
checks are set operations, and a per-node loop runs only to name an
offender.  A map is checked when it is made.  The node rules (a node's
fields and their ``nodes[i]...`` messages) are stated once, here, for maps
built by hand and for map files.  One memoised walk up the parent links
finds cycles and gives each node's depth, and only a node it leaves
unresolved calls for the search for unknown parents.  Every map carries its
`parent_of` dict and those depths, so integration walks only the
student-only nodes, from their teacher parents' depths.  An integrated map
buckets its nodes by level for analysis when it is made.  The `nodes` rows
and `children_of` are built on first read, so a CLI run builds neither.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import cached_property
from itertools import filterfalse, repeat, starmap
from operator import attrgetter, eq
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    CycleError,
    DuplicateNodeError,
    Frozen,
    MapValidationError,
    RootCountError,
    RootMismatchError,
    SubjectMismatchError,
    UnknownParentError,
)

__all__ = [
    "NodeColor",
    "MapNode",
    "ConceptMap",
    "IntegratedNode",
    "IntegratedMap",
    "validate_map",
    "integrate",
]


class NodeColor(Enum):
    GREEN = "green"
    RED = "red"


class MapNode(NamedTuple):
    """One concept: an id, its parent's id (None for the root), and an
    optional linking phrase, which is carried through but never analyzed."""

    id: str
    parent: str | None
    phrase: str | None = None


class ConceptMap(Frozen):
    """Rooted tree of concept nodes, as `ids`, `parents` and `phrases` columns.

    `nodes` are the rows :func:`validate_map` takes.  Their fields and then
    the tree are checked when the map is made, with :func:`validate_map`'s
    errors, and it carries `parent_of` (node -> parent) and `depth` (node ->
    depth).  The file parser's map builds `nodes` on first read.
    """

    def __init__(self, subject: str, nodes: Iterable) -> None:
        nodes = tuple(starmap(MapNode, nodes))
        ids, parents, phrases = (tuple(map(attrgetter(field), nodes)) for field in MapNode._fields)
        fault = _node_fault(ids, parents, phrases)
        if fault is not None:
            raise MapValidationError(fault)
        self.__dict__.update(subject=subject, nodes=nodes, ids=ids, parents=parents,
                             phrases=phrases)
        self._check()

    @classmethod
    def _of_columns(cls, subject: str, ids: tuple, parents: tuple, phrases: tuple) -> ConceptMap:
        """An unchecked map of three equal-length columns; :func:`validate_map` checks it."""
        cmap = cls.__new__(cls)
        cmap.__dict__.update(subject=subject, ids=ids, parents=parents, phrases=phrases)
        return cmap

    def _check(self) -> None:
        """Check the rooted-tree invariants and store `parent_of` and `depth`."""
        ids, parents = self.ids, self.parents
        parent_of = dict(zip(ids, parents))
        if not ids:
            raise RootCountError("map has no nodes")
        if len(parent_of) != len(ids):
            seen: set[str] = set()
            for nid in ids:
                if nid in seen:
                    raise DuplicateNodeError(f"duplicate node id: {nid!r}")
                seen.add(nid)
        # The walk resolves every node only when no parent is unknown and there
        # is no cycle; only a node it leaves unresolved needs either check.
        depth = {None: -1}
        cycle = _walk_depths(parent_of, depth)
        if len(depth) <= len(ids):
            unknown = set(parents).difference(parent_of, (None,))
            if unknown:
                nid, parent = next((n, p) for n, p in zip(ids, parents) if p in unknown)
                raise UnknownParentError(f"node {nid!r} references unknown parent {parent!r}")
        # Cycles are checked before the root count: a rootless input such as
        # {A->B, B->A} is better reported as the cycle it actually contains.
        if cycle is not None:
            raise CycleError("cycle among nodes: " + " -> ".join(cycle))
        # Non-empty, unique ids, known parents and no cycle: there is a root.
        if parents.count(None) > 1:
            roots = [nid for nid, parent in zip(ids, parents) if parent is None]
            raise RootCountError(f"multiple root nodes: {roots}")
        del depth[None]
        self.__dict__.update(parent_of=parent_of, depth=depth)

    @cached_property
    def nodes(self) -> tuple[MapNode, ...]:
        return from_columns(MapNode, self.ids, self.parents, self.phrases)


class IntegratedNode(NamedTuple):
    id: str
    parent: str | None
    level: int
    color: NodeColor | None  # None only on the root


class IntegratedMap(Frozen):
    """Colored merge of a teacher map and a student map, levels recomputed;
    node i is ``IntegratedNode(ids[i], parents[i], levels[i], colors[i])``.

    `_by_level` holds, per level 0..`max_level` in node order: green ids, red
    ids (the root among them), and ids grouped under their parents
    (``{parent: [children]}``).
    """

    def __init__(self, subject: str, ids: tuple[str, ...], parents: tuple[str | None, ...],
                 levels: tuple[int, ...], colors: tuple[NodeColor | None, ...]) -> None:
        lengths = [len(ids), len(parents), len(levels), len(colors)]
        if not ids or lengths.count(lengths[0]) < 4:
            raise ValueError("ids, parents, levels and colors must be non-empty columns of one "
                             f"length, got lengths {lengths}")
        top = max(levels)
        pos, neg = [[] for _ in range(top + 1)], [[] for _ in range(top + 1)]
        blocks = [defaultdict(list) for _ in range(top + 1)]
        green = NodeColor.GREEN
        for nid, parent, level, color in zip(ids, parents, levels, colors):
            if color is green:
                pos[level].append(nid)
            else:
                neg[level].append(nid)
            blocks[level][parent].append(nid)
        self.__dict__.update(subject=subject, ids=ids, parents=parents, levels=levels,
                             colors=colors, max_level=top, _by_level=(pos, neg, blocks))

    @cached_property
    def nodes(self) -> tuple[IntegratedNode, ...]:
        return from_columns(IntegratedNode, self.ids, self.parents, self.levels, self.colors)

    @cached_property
    def children_of(self) -> dict[str, tuple[str, ...]]:
        children = dict.fromkeys(self.ids, ())
        for blocks in self._by_level[2][1:]:
            children.update(zip(blocks, map(tuple, blocks.values())))
        return children


_OPTIONAL_STR = {str, type(None)}


def _node_fault(ids: tuple, parents: tuple, phrases: tuple) -> str | None:
    """The first node that breaks a field rule, as ``nodes[i]...``, or None.

    The columns are checked whole: the ids by encoding their join, which
    fails on a non-string or a lone surrogate, the parents' and phrases'
    types as sets.  Only a failing map is checked node by node."""
    try:
        "".join(ids).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        pass
    else:
        if set(map(type, parents)) | set(map(type, phrases)) <= _OPTIONAL_STR:
            return None
    for i, (nid, parent, phrase) in enumerate(zip(ids, parents, phrases)):
        if not isinstance(nid, str):
            return f"nodes[{i}].id must be a string"
        if any("\ud800" <= c <= "\udfff" for c in nid):
            return f"nodes[{i}].id is not valid UTF-8 text"
        if parent is not None and not isinstance(parent, str):
            return f"nodes[{i}].parent must be a string or null"
        if phrase is not None and not isinstance(phrase, str):
            return f"nodes[{i}].phrase must be a string"
    return None


def from_columns(cls, *columns) -> tuple:
    """One `cls` named tuple per row of `columns`.  ``tuple.__new__`` builds
    each row in C; calling the class or `cls._make` runs Python code per row."""
    return tuple(map(tuple.__new__, repeat(cls), zip(*columns)))


def _walk_depths(parent_of: Mapping[str, str | None], depth: dict) -> list[str] | None:
    """Extend `depth` (resolved node -> depth) to every node of `parent_of`.

    A node whose parent is resolved costs one lookup.  Otherwise the walk
    climbs to the nearest resolved ancestor and resolves the whole climb on
    the way back.  A climb resolves nothing, and its nodes stay out of
    `depth`, when it meets one of its own nodes again, reaches an unresolved
    id missing from `parent_of` (None, unless `depth` holds it), or reaches
    a node that such a climb left behind.  Each node is climbed through at
    most once.  Returns the first cycle met, closed by its repeated node, or
    None.
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
            if parent in dead or parent not in parent_of:
                break
            climb[parent] = None
            parent = parent_of[parent]
        if d is None:
            dead.update(climb)
            continue
        for node in reversed(climb):
            d += 1
            depth[node] = d
    return cycle


def validate_map(nodes: Iterable | ConceptMap, subject: str | None = None) -> ConceptMap:
    """A checked map of `nodes`: MapNode instances or (id, parent) /
    (id, parent, phrase) tuples, whose subject is `subject` or "untitled",
    or a ConceptMap, which comes back itself (the file parser's is checked
    first).  Raises MapValidationError, DuplicateNodeError,
    UnknownParentError, CycleError, or RootCountError; a ConceptMap given
    with a `subject` other than its own raises ValueError.
    """
    if not isinstance(nodes, ConceptMap):
        return ConceptMap("untitled" if subject is None else subject, nodes)
    if subject is not None and subject != nodes.subject:
        raise ValueError(f"subject {subject!r} given for a map of subject {nodes.subject!r}")
    if "depth" not in vars(nodes):
        nodes._check()
    return nodes


def integrate(teacher: ConceptMap, student: ConceptMap) -> IntegratedMap:
    """Merge the two maps into one colored tree.

    The node set is the union of both maps by id.  Shared and teacher-only
    nodes keep the teacher's structure; such a node is green when the student
    map has the same id under the same parent, red otherwise.  Student-only
    nodes attach under their declared parent and are green.  Levels are
    recomputed on the merged tree.  The maps must share their root and,
    unless one of them is "untitled", their subject.
    """
    ids, parents = teacher.ids, teacher.parents
    student_parent = student.parent_of
    root, student_root = ids[parents.index(None)], student.ids[student.parents.index(None)]
    if root != student_root:
        raise RootMismatchError(f"root ids differ: teacher {root!r}, student {student_root!r}")
    if teacher.subject != student.subject and "untitled" not in (teacher.subject, student.subject):
        raise SubjectMismatchError(
            f"subjects differ: teacher {teacher.subject!r}, student {student.subject!r}")
    extra_ids = tuple(filterfalse(teacher.parent_of.__contains__, student.ids))
    extra_parents = tuple(map(student_parent.__getitem__, extra_ids))
    merged_ids, merged_parents = ids + extra_ids, parents + extra_parents
    # Two checked trees with one root: no parent is an orphan, teacher
    # nodes keep their depths, and a student-only node climbs without a
    # cycle to a teacher node, whose depth seeds the walk.
    depth = teacher.depth
    extra = {parent: depth[parent] for parent in extra_parents if parent in depth}
    _walk_depths(dict(zip(extra_ids, extra_parents)), extra)
    levels = (*map(depth.__getitem__, ids), *map(extra.__getitem__, extra_ids))
    # Green: the student has the node under its merged parent (every student-only node does).
    green, red = NodeColor.GREEN, NodeColor.RED
    colors = [green if same else red
              for same in map(eq, map(student_parent.get, merged_ids), merged_parents)]
    colors[parents.index(None)] = None
    return IntegratedMap(teacher.subject, merged_ids, merged_parents, levels, tuple(colors))
