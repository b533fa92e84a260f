"""A CLI run reads maps as columns and builds no node rows.

`ConceptMap.nodes` and `IntegratedMap.nodes` are built on first read, by
`conceptmap.from_columns`.  These tests spy on that function during
`analyze` and `batch` runs, and check that no map the run made holds rows
and that the integrated map built no `children_of`.
"""

from __future__ import annotations

import pytest

from conftest import DATA_DIR
from roughmap import conceptmap, fileio
from roughmap.conceptmap import IntegratedNode, MapNode
from roughmap.fileio import run_analyze, run_batch

TEACHER = str(DATA_DIR / "teacher_map.json")


@pytest.fixture
def spied(monkeypatch):
    """Row classes built through `from_columns`, and the maps the run's
    validate and integrate calls returned."""
    built, maps = [], []

    def spy(cls, *columns):
        built.append(cls)
        return from_columns(cls, *columns)

    def keep(fn):
        def kept(*args, **kwargs):
            maps.append(fn(*args, **kwargs))
            return maps[-1]
        return kept

    from_columns = conceptmap.from_columns
    monkeypatch.setattr(conceptmap, "from_columns", spy)
    monkeypatch.setattr(fileio, "validate_map", keep(fileio.validate_map))
    monkeypatch.setattr(fileio, "integrate", keep(fileio.integrate))
    return built, maps


def assert_no_rows(spied):
    built, maps = spied
    assert len(maps) >= 3  # teacher, student, integrated
    assert MapNode not in built and IntegratedNode not in built
    assert not any("nodes" in vars(m) for m in maps)
    assert not any("children_of" in vars(m) for m in maps)  # analyze reads level blocks
    # The spy sees rows once they are read.
    assert [len(m.nodes) for m in maps[:3]] == [20, 13, 20]
    assert built[:3] == [MapNode, MapNode, IntegratedNode]


@pytest.mark.parametrize("report_format", ["text", "csv", "json"])
def test_analyze(tmp_path, spied, report_format):
    code = run_analyze(TEACHER, str(DATA_DIR / "student_map.json"), str(tmp_path / "report"),
                       report_format, levels="all")
    assert code == 0
    assert_no_rows(spied)


def test_batch(tmp_path, spied):
    code = run_batch(TEACHER, str(DATA_DIR / "roster.csv"), str(DATA_DIR), str(tmp_path / "out"),
                     "json", levels="all")
    assert code == 0
    assert_no_rows(spied)
