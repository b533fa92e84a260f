from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import pytest

from roughmap.conceptmap import ConceptMap, IntegratedMap, integrate
from roughmap.fileio import parse_concept_map_file

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"

# The bundled sample: a reference tree S1 -> U1..U5 -> fourteen leaves, and a
# student who kept 7 leaves in place, lost 7, and misfiled U2 under U1 (so U2
# counts as wrong while its surviving child C5 still matches the reference
# placement).
TEACHER_NODES = [
    ("S1", None),
    ("U1", "S1"), ("U2", "S1"), ("U3", "S1"), ("U4", "S1"), ("U5", "S1"),
    ("C1", "U1"), ("C2", "U1"), ("C3", "U1"),
    ("C4", "U2"), ("C5", "U2"), ("C6", "U2"),
    ("C7", "U3"), ("C8", "U3"),
    ("C9", "U4"), ("C10", "U4"),
    ("C11", "U5"), ("C12", "U5"), ("C13", "U5"), ("C14", "U5"),
]
STUDENT_NODES = [
    ("S1", None),
    ("U1", "S1"), ("U3", "S1"), ("U4", "S1"), ("U5", "S1"),
    ("U2", "U1"),
    ("C2", "U1"), ("C3", "U1"),
    ("C5", "U2"),
    ("C7", "U3"), ("C8", "U3"),
    ("C9", "U4"),
    ("C12", "U5"),
]

GREEN_LEAVES = {"C2", "C3", "C5", "C7", "C8", "C9", "C12"}
RED_LEAVES = {"C1", "C4", "C6", "C10", "C11", "C13", "C14"}


def by_id(cmap: ConceptMap | IntegratedMap) -> dict:
    """A map's node rows by id."""
    return {n.id: n for n in cmap.nodes}


@contextmanager
def raises_exactly(error: type[Exception], message: str):
    """Expect `error` itself, not a subclass, with exactly `message`: the
    message, not the class, names the fault."""
    with pytest.raises(error) as info:
        yield
    assert (type(info.value), str(info.value)) == (error, message)


def levels_of(cmap: ConceptMap) -> dict[str, int]:
    """Each node's level in the map integrated with itself."""
    return {n.id: n.level for n in integrate(cmap, cmap).nodes}


@pytest.fixture(scope="session")
def teacher_map() -> ConceptMap:
    return parse_concept_map_file(DATA_DIR / "teacher_map.json")


@pytest.fixture(scope="session")
def student_map() -> ConceptMap:
    return parse_concept_map_file(DATA_DIR / "student_map.json")


@pytest.fixture(scope="session")
def sample_integrated(teacher_map, student_map) -> IntegratedMap:
    return integrate(teacher_map, student_map)
