"""A run pauses the cyclic garbage collector (see roughmap.fileio).

That is safe only while the pipeline builds no reference cycles: then
reference counting frees everything a run drops, and a collection after the
run finds nothing.  These tests lock that in for every exit path, and check
that a run leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from conftest import DATA_DIR
from roughmap import fileio
from roughmap.cli import main
from roughmap.fileio import run_analyze, run_batch

TEACHER = str(DATA_DIR / "teacher_map.json")
STUDENT = str(DATA_DIR / "student_map.json")


def write_map(path, nodes, subject="generated"):
    doc = {"subject": subject, "nodes": [{"id": nid, "parent": parent} for nid, parent in nodes]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def root_mismatch_map(tmp_path):
    return write_map(tmp_path / "other_root.json", [("X1", None), ("U1", "X1")])


def unreachable_after(run):
    """Exit status of one run (a call of `run_analyze`, `run_batch` or `main`) with
    the collector off, and the number of unreachable objects a collection
    finds right after it."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        code = run()
        return code, gc.collect()
    finally:
        if was_on:
            gc.enable()


def single(tmp_path, student=STUDENT, teacher=TEACHER, **knobs):
    return lambda: run_analyze(teacher, student, str(tmp_path / "report"), **knobs)


def batch(tmp_path, roster=str(DATA_DIR / "roster.csv"), maps_dir=str(DATA_DIR)):
    return lambda: run_batch(TEACHER, roster, maps_dir, str(tmp_path / "out"), "json",
                             levels="all")


class TestNoCycles:
    @pytest.mark.parametrize("levels", ["deepest", "all"])
    @pytest.mark.parametrize("report_format", ["text", "csv", "json"])
    def test_sample(self, tmp_path, report_format, levels):
        run = single(tmp_path, report_format=report_format, levels=levels)
        assert unreachable_after(run) == (0, 0)

    def test_batch(self, tmp_path):
        assert unreachable_after(batch(tmp_path)) == (0, 0)
        assert (tmp_path / "out" / fileio.SUMMARY_FILENAME).is_file()

    def test_exit_1_root_mismatch(self, tmp_path):
        assert unreachable_after(single(tmp_path, root_mismatch_map(tmp_path))) == (1, 0)

    def test_exit_2_missing_file(self, tmp_path):
        assert unreachable_after(single(tmp_path, str(tmp_path / "absent.json"))) == (2, 0)

    @pytest.mark.parametrize("map_name, expected",
                             [("other_root.json", 1), ("two_roots.json", 1), ("absent.json", 2)])
    def test_batch_failing_student(self, tmp_path, map_name, expected):
        root_mismatch_map(tmp_path)
        write_map(tmp_path / "two_roots.json", [("A", None), ("B", None)])
        roster = tmp_path / "roster.csv"
        roster.write_text(f"register_no,name,department,semester,subject,map_path\n"
                          f"R1,a,d,s,sub,{map_name}\n", encoding="utf-8")
        assert unreachable_after(batch(tmp_path, str(roster), str(tmp_path))) == (expected, 0)

    @pytest.mark.parametrize("command", ["analyze", "batch", "validate"])
    def test_plain_command_line(self, tmp_path, command):
        """`main` reads a plain command line without argparse, whose parser
        would be left in reference cycles (argparse's fallback is exempt)."""
        argv = {"analyze": ["analyze", "--teacher", TEACHER, "--student", STUDENT,
                            "--out", str(tmp_path / "report")],
                "batch": ["batch", "--teacher", TEACHER, "--roster", str(DATA_DIR / "roster.csv"),
                          "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / "out")],
                "validate": ["validate", TEACHER]}[command]
        assert unreachable_after(lambda: main(argv)) == (0, 0)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=strategies.teacher_student_pairs())
    def test_random_pairs(self, tmp_path, pair):
        teacher, student = pair
        student_path = write_map(tmp_path / "s.json", [(n.id, n.parent) for n in student.nodes])
        teacher_path = write_map(tmp_path / "t.json", [(n.id, n.parent) for n in teacher.nodes])
        run = single(tmp_path, student_path, teacher_path, report_format="json", levels="all")
        assert unreachable_after(run) == (0, 0)


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
        assert single(tmp_path, student)() == expected
        assert gc.isenabled() is collecting

    def test_unexpected_exception(self, tmp_path, collecting, monkeypatch):
        def broken(teacher, student):
            raise RuntimeError("boom")

        monkeypatch.setattr(fileio, "integrate", broken)
        with pytest.raises(RuntimeError, match="boom"):
            single(tmp_path)()
        assert gc.isenabled() is collecting
