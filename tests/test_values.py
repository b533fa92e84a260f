"""The value classes: built positionally or by keyword, read-only once built,
checked at construction with the same exception types and messages, and
imported without the `dataclasses` machinery."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import REPO_ROOT
from roughmap.analysis import AnalysisResult
from roughmap.conceptmap import ConceptMap, IntegratedMap, MapNode, NodeColor
from roughmap.fileio import RosterRecord, RunConfig
from roughmap.grading import GradeBand, PlanStep, RemediationPlan
from roughmap.roughset import ApproximationSpace, DecisionTable, Partition, Universe

SRC = REPO_ROOT / "src"

# (class, field names, one value per field)
VALUES = [
    (RosterRecord, ("register_no", "name", "department", "semester", "subject", "map_path"),
     ("R1", "Ann", "CSE", "3", "DS", "r1.json")),
    (RunConfig, ("teacher_map_path", "student_map_path", "roster_path", "maps_dir", "out_path",
                 "out_dir", "report_format", "order", "levels"),
     ("t.json", "s.json", None, None, "out.csv", None, "csv", "desc", "all")),
    (GradeBand, ("grade", "lower_bound_percent"), ("A", 75)),
    (RemediationPlan, ("order", "steps"), ("asc", (PlanStep("a", Fraction(1, 2)),))),
    (AnalysisResult, ("regions", "records", "expected_result"), ((), (), Fraction(0))),
    (ConceptMap, ("subject", "nodes"), ("s", (MapNode("r", None), MapNode("a", "r", "has")))),
    (IntegratedMap, ("subject", "ids", "parents", "levels", "colors"),
     ("s", ("r", "a"), (None, "r"), (0, 1), (None, NodeColor.GREEN))),
    (Universe, ("elements",), (("a", "b"),)),
    (Partition, ("blocks",), ((("a",), ("b",)),)),
    (ApproximationSpace, ("universe", "partition"),
     (Universe(("a", "b")), Partition((("a",), ("b",))))),
    (DecisionTable, ("objects", "attributes", "values", "condition", "decision"),
     (Universe(("o1",)), ("a", "d"), {("o1", "a"): "1", ("o1", "d"): "x"},
      frozenset({"a"}), frozenset({"d"}))),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, names, values", VALUES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, names, values", VALUES, ids=IDS)
def test_fields_are_read_only(cls, names, values):
    value = cls(*values)
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name, expected in zip(names, values):
        assert getattr(value, name) == expected


def _table(attributes, values, condition=(), decision=()):
    return DecisionTable(Universe(("o1",)), attributes, values, frozenset(condition),
                         frozenset(decision))


# (construction, exception message); every check raises ValueError.  Where a
# value breaks two checks, the message names the one that runs first.
CHECKS = [
    (lambda: Universe(("a", "b", "a")), "duplicate element: 'a'"),
    (lambda: Partition((("a",), ())), "partition contains an empty block"),
    (lambda: Partition((("a", "b"), ("b", "c"))), "element in more than one block: 'b'"),
    (lambda: Partition((("a", "b"), ("b",), ())), "element in more than one block: 'b'"),
    (lambda: Partition(((), ("a", "a"))), "partition contains an empty block"),
    (lambda: ApproximationSpace(Universe(("a", "b")), Partition((("a",),))),
     "partition does not cover: ['b']"),
    (lambda: ApproximationSpace(Universe(("a",)), Partition((("a", "b"),))),
     "partition exceeds the universe: ['b']"),
    (lambda: ApproximationSpace(Universe(("a", "b")), Partition((("a", "c"),))),
     "partition does not cover: ['b']"),
    (lambda: _table(("a", "a"), {}, condition={"zz"}), "duplicate attribute names"),
    (lambda: _table(("a",), {("o1", "a"): "1"}, condition={"zz"}, decision={"yy"}),
     "condition features not among attributes: ['zz']"),
    (lambda: _table(("a",), {("o1", "a"): "1"}, decision={"yy"}),
     "decision features not among attributes: ['yy']"),
    (lambda: _table(("a", "b"), {("o1", "a"): "1"}, decision={"zz"}),
     "decision features not among attributes: ['zz']"),
    (lambda: _table(("a", "b"), {("o1", "a"): "1"}), "missing value for ('o1', 'b')"),
    (lambda: DecisionTable.from_rows({"o1": ["1"]}, attributes=("a", "b")),
     "row for 'o1' has 1 values, expected 2"),
    (lambda: RunConfig("t.json", report_format="pdf"),
     "exactly one of student_map_path / roster_path must be set"),
    (lambda: RunConfig("t.json", "s.json", "r.csv"),
     "exactly one of student_map_path / roster_path must be set"),
    (lambda: RunConfig("t.json", "s.json", report_format="pdf", order="x", levels="y"),
     "unknown report format: 'pdf'"),
    (lambda: RunConfig("t.json", "s.json", order="sideways", levels="y"),
     "order must be 'asc' or 'desc', got 'sideways'"),
    (lambda: RunConfig("t.json", roster_path="r.csv", levels="some"),
     "levels must be 'deepest' or 'all', got 'some'"),
]


@pytest.mark.parametrize("construct, message", CHECKS)
def test_construction_checks(construct, message):
    with pytest.raises(ValueError) as info:
        construct()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_import_loads_no_dataclass_machinery():
    """`import roughmap.cli` loads neither `dataclasses` nor `inspect`.  The
    child runs with -S, since a site-packages `.pth` file may import either."""
    code = ("import sys, roughmap.cli; print(roughmap.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [str(SRC / "roughmap" / "cli.py"), "[]"]
    assert [path for path in SRC.rglob("*.py") if "dataclass" in path.read_text()] == []
