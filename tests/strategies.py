"""Shared hypothesis strategies: random approximation spaces, decision
tables, and valid concept maps."""

from __future__ import annotations

import hypothesis.strategies as st

from roughmap.conceptmap import ConceptMap, validate_map
from roughmap.roughset import ApproximationSpace, DecisionTable, Partition, Universe


@st.composite
def partitioned_spaces(draw, max_size: int = 8) -> ApproximationSpace:
    n = draw(st.integers(min_value=1, max_value=max_size))
    elements = tuple(f"x{i}" for i in range(n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[str]] = {}
    for element, label in zip(elements, labels):
        blocks.setdefault(label, []).append(element)
    return ApproximationSpace(
        Universe(elements), Partition(tuple(tuple(b) for b in blocks.values()))
    )


@st.composite
def spaces_with_subset(draw, max_size: int = 8):
    space = draw(partitioned_spaces(max_size=max_size))
    subset = draw(st.sets(st.sampled_from(space.universe.elements)))
    return space, subset


@st.composite
def spaces_with_nested_subsets(draw, max_size: int = 8):
    """(space, a, b) with a contained in b."""
    space = draw(partitioned_spaces(max_size=max_size))
    b = draw(st.sets(st.sampled_from(space.universe.elements)))
    a = draw(st.sets(st.sampled_from(sorted(b)))) if b else set()
    return space, a, b


@st.composite
def decision_tables(draw, max_objects: int = 8, max_attributes: int = 4) -> DecisionTable:
    n_obj = draw(st.integers(1, max_objects))
    n_attr = draw(st.integers(1, max_attributes))
    attributes = tuple(f"a{j}" for j in range(n_attr))
    rows = {
        f"o{i}": [draw(st.sampled_from(["0", "1", "2"])) for _ in range(n_attr)]
        for i in range(n_obj)
    }
    return DecisionTable.from_rows(rows, attributes)


@st.composite
def concept_maps(draw, max_nodes: int = 20, min_nodes: int = 2) -> ConceptMap:
    """Random valid rooted tree; node i hangs under some earlier node."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes: list[tuple[str, str | None]] = [("n0", None)]
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        nodes.append((f"n{i}", f"n{parent}"))
    return validate_map(nodes, subject="generated")


@st.composite
def teacher_student_pairs(draw, max_nodes: int = 20, max_extras: int = 0):
    """A teacher tree plus a student keeping a random root-closed subset of
    it (a node survives only if its parent survived).  With `max_extras`,
    the student also files some kept nodes under another node kept before
    them, adds up to that many nodes of its own, each under a kept node or
    another added one, and lists its nodes either parent first or in any
    order."""
    teacher = draw(concept_maps(max_nodes=max_nodes))
    root = teacher.ids[teacher.parents.index(None)]
    kept = {root}
    student_nodes: list[tuple[str, str | None]] = [(root, None)]
    for node in teacher.nodes:
        if node.parent is None:
            continue
        if node.parent in kept and draw(st.booleans()):
            parent = node.parent
            if max_extras and draw(st.integers(0, 3)) == 0:  # misplaced
                parent = draw(st.sampled_from([nid for nid, _ in student_nodes]))
            kept.add(node.id)
            student_nodes.append((node.id, parent))
    if max_extras:
        for i in range(draw(st.integers(0, max_extras))):
            parent = draw(st.sampled_from([nid for nid, _ in student_nodes]))
            student_nodes.append((f"x{i}", parent))
        if draw(st.booleans()):
            student_nodes = draw(st.permutations(student_nodes))
    return teacher, validate_map(student_nodes, subject=teacher.subject)
