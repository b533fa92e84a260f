"""A run pauses the cyclic garbage collector (see roughmap.fileio).

That is safe only while the pipeline builds no reference cycles: then
reference counting frees everything a run drops, and a collection after the
run finds nothing.  These tests lock that in for every exit path, and check
that a run leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from conftest import DATA_DIR
from roughmap import fileio
from roughmap.fileio import RunConfig, run_analyze

TEACHER = str(DATA_DIR / "teacher_map.json")
STUDENT = str(DATA_DIR / "student_map.json")


def write_map(path, nodes, subject="generated"):
    doc = {"subject": subject, "nodes": [{"id": nid, "parent": parent} for nid, parent in nodes]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def root_mismatch_map(tmp_path):
    return write_map(tmp_path / "other_root.json", [("X1", None), ("U1", "X1")])


def unreachable_after(config):
    """Exit status of one run with the collector off, and the number of
    unreachable objects a collection finds right after it."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        code = run_analyze(config, stderr=io.StringIO())
        return code, gc.collect()
    finally:
        if was_on:
            gc.enable()


def single(tmp_path, student=STUDENT, **knobs):
    return RunConfig(teacher_map_path=TEACHER, student_map_path=student,
                     out_path=str(tmp_path / "report"), **knobs)


class TestNoCycles:
    @pytest.mark.parametrize("levels", ["deepest", "all"])
    @pytest.mark.parametrize("report_format", ["text", "csv", "json"])
    def test_sample(self, tmp_path, report_format, levels):
        config = single(tmp_path, report_format=report_format, levels=levels)
        assert unreachable_after(config) == (0, 0)

    def test_batch(self, tmp_path):
        config = RunConfig(teacher_map_path=TEACHER, roster_path=str(DATA_DIR / "roster.csv"),
                           maps_dir=str(DATA_DIR), out_dir=str(tmp_path / "out"),
                           report_format="json", levels="all")
        assert unreachable_after(config) == (0, 0)
        assert (tmp_path / "out" / fileio.SUMMARY_FILENAME).is_file()

    def test_exit_1_root_mismatch(self, tmp_path):
        assert unreachable_after(single(tmp_path, root_mismatch_map(tmp_path))) == (1, 0)

    def test_exit_2_missing_file(self, tmp_path):
        assert unreachable_after(single(tmp_path, str(tmp_path / "absent.json"))) == (2, 0)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=strategies.teacher_student_pairs())
    def test_random_pairs(self, tmp_path, pair):
        teacher, student = pair
        config = RunConfig(
            teacher_map_path=write_map(tmp_path / "t.json", [(n.id, n.parent) for n in teacher.nodes]),
            student_map_path=write_map(tmp_path / "s.json", [(n.id, n.parent) for n in student.nodes]),
            out_path=str(tmp_path / "report.json"), report_format="json", levels="all")
        assert unreachable_after(config) == (0, 0)


class TestCollectorRestored:
    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collecting(self, request):
        was_on = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_on else gc.disable)()

    @pytest.mark.parametrize("case, expected", [("ok", 0), ("root_mismatch", 1), ("missing", 2)])
    def test_exit_status(self, tmp_path, collecting, case, expected):
        student = {"ok": STUDENT, "root_mismatch": root_mismatch_map(tmp_path),
                   "missing": str(tmp_path / "absent.json")}[case]
        assert run_analyze(single(tmp_path, student), stderr=io.StringIO()) == expected
        assert gc.isenabled() is collecting

    def test_unexpected_exception(self, tmp_path, collecting, monkeypatch):
        def broken(teacher, student):
            raise RuntimeError("boom")

        monkeypatch.setattr(fileio, "integrate", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run_analyze(single(tmp_path), stderr=io.StringIO())
        assert gc.isenabled() is collecting
