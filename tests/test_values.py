"""The value classes: built positionally or by keyword, read-only once built,
and imported without the `dataclasses` machinery.  Their construction checks
are rows of test_faults.LIBRARY_FAULTS."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import REPO_ROOT
from roughmap.analysis import AnalysisResult
from roughmap.conceptmap import ConceptMap, IntegratedMap, MapNode, NodeColor
from roughmap.fileio import RosterRecord
from roughmap.grading import GradeBand, PlanStep, RemediationPlan
from roughmap.roughset import ApproximationSpace, DecisionTable, Partition, Universe
from test_faults import collect_rows

SRC = REPO_ROOT / "src"

# (class, field names, one value per field)
VALUES = [
    (RosterRecord, ("register_no", "name", "department", "semester", "subject", "map_path"),
     ("R1", "Ann", "CSE", "3", "DS", "r1.json")),
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
    (DecisionTable, ("objects", "attributes", "rows", "condition", "decision"),
     (Universe(("o1",)), ("a", "d"), (("1", "x"),), frozenset({"a"}), frozenset({"d"}))),
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


collect_rows(globals())
