from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import pytest

from roughmap.conceptmap import ConceptMap, IntegratedMap, integrate
from roughmap.fileio import parse_concept_map_file

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
ROSTER_HEADER = "register_no,name,department,semester,subject,map_path\n"

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


def collect_rows(namespace, table, check, default, marks=lambda key: []):
    """Collect each row of `table` that is a test of the module `namespace` as
    that test, which runs `check(key, tmp_path, monkeypatch, capsys)`.  A key is
    the test's id, `[module::][Class::]test[case]`, where no module is the module
    of `check`, and a key that names no test is a case of the test `default`."""
    module, tests = namespace["__name__"].rpartition(".")[2], {}
    for key in table:
        name, _, case = key.partition("[")
        if "test_" not in name:
            name, case = default, key + "]"
        owner, _, rest = name.partition("::")
        owner, name = (owner, rest) if rest and owner.islower() else (check.__module__, name)
        if owner.rpartition(".")[2] == module:
            tests.setdefault(name, []).append((case[:-1], key))
    for name, cases in tests.items():
        if cases[0][0]:
            @pytest.mark.parametrize("key", [pytest.param(key, id=case, marks=marks(key))
                                             for case, key in cases])
            def test(key, tmp_path, monkeypatch, capsys):
                check(key, tmp_path, monkeypatch, capsys)
        else:
            def test(tmp_path, monkeypatch, capsys, key=cases[0][1]):
                check(key, tmp_path, monkeypatch, capsys)
        owner, _, name = name.rpartition("::")
        if owner:
            setattr(namespace.setdefault(owner, type(owner, (), {})), name, staticmethod(test))
        else:
            namespace[name] = test


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
