from __future__ import annotations

import contextlib
import csv
import errno
import importlib.util
import io
import json
import os
import re
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from conftest import DATA_DIR, REPO_ROOT
from roughmap import fileio
from roughmap.cli import COMMANDS, _read, build_parser, main
from roughmap.grading import REPORT_FORMATS, parse_report

TEACHER = str(DATA_DIR / "teacher_map.json")
STUDENT = str(DATA_DIR / "student_map.json")
ROSTER = str(DATA_DIR / "roster.csv")
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def make_link(link, target, kind):
    """Make `link` a symlink (by a relative path) or a hard link to `target`."""
    if kind == "symlink":
        link.symlink_to(os.path.relpath(target, link.parent))
    else:
        os.link(target, link)


def plant(path, target, kind):
    """Make `path` a FIFO, a directory, or a symlink or hard link to `target`."""
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "directory":
        path.mkdir()
    else:
        make_link(path, target, kind)


def file_bytes(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def write_roster(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["register_no", "name", "department", "semester", "subject", "map_path"])
        writer.writerows(rows)


def other_subject_map(tmp_path):
    """The sample student map, filed under another subject."""
    doc = json.loads((DATA_DIR / "student_map.json").read_text(encoding="utf-8"))
    path = tmp_path / "other_subject.json"
    path.write_text(json.dumps({**doc, "subject": "Computer Networks"}), encoding="utf-8")
    return path


SUBJECTS_DIFFER = "subjects differ: teacher 'Data Structures', student 'Computer Networks'"


def run_cli(argv, closed=(), env_extra=(), **kwargs):
    """Run the CLI in a subprocess with the file descriptors in `closed`
    closed, the variables `env_extra` set, and with a timeout, so that a
    command that blocks fails the test instead of hanging it.  Its standard
    streams are buffered, as they are by default when they are not a terminal."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **dict(env_extra)}
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "roughmap", *argv]
    if closed:
        command = ["sh", "-c", 'exec "$@" ' + " ".join(f"{fd}>&-" for fd in closed), "sh",
                   *command]
    return subprocess.run(command, env=env, timeout=60, **kwargs)


class TestAnalyzeCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["analyze", "--teacher", TEACHER, "--student", STUDENT]) == 0
        out = capsys.readouterr().out
        assert "expected result = 0.548" in out
        assert "U5       100           25          C" in out

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["analyze", "--teacher", TEACHER, "--student", STUDENT,
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        assert "expected_result,0.548" in out.read_text(encoding="utf-8")

    def test_json_report_parses_back(self, tmp_path):
        out = tmp_path / "report.json"
        main(["analyze", "--teacher", TEACHER, "--student", STUDENT,
              "--format", "json", "--out", str(out)])
        result, graded, plan = parse_report(out.read_text(encoding="utf-8"))
        assert [g.grade for g in graded] == ["B", "C", "A", "B", "C"]
        assert [s.node for s in plan.steps] == ["U5", "U2", "U4", "U1"]

    def test_descending_order_flag(self, capsys):
        main(["analyze", "--teacher", TEACHER, "--student", STUDENT, "--order", "desc"])
        out = capsys.readouterr().out
        assert "largest importance first" in out

    def test_all_levels_flag(self, tmp_path):
        out = tmp_path / "report.json"
        main(["analyze", "--teacher", TEACHER, "--student", STUDENT,
              "--levels", "all", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [r["node"] for r in doc["records"]] == ["U1", "U2", "U3", "U4", "U5", "S1"]

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_out_would_overwrite_an_input(self, tmp_path, capsys, role):
        paths = {}
        for key, name in (("teacher", "teacher_map.json"), ("student", "student_map.json")):
            paths[key] = tmp_path / name
            paths[key].write_bytes((DATA_DIR / name).read_bytes())
        (tmp_path / "sub").mkdir()
        out = tmp_path / "sub" / ".." / paths[role].name  # the input, spelled otherwise
        before = {p: p.read_bytes() for p in paths.values()}
        code = main(["analyze", "--teacher", str(paths["teacher"]), "--student",
                     str(paths["student"]), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {out} would overwrite input {paths[role]}\n"
        assert {p: p.read_bytes() for p in paths.values()} == before
        assert sorted(tmp_path.iterdir()) == sorted([*paths.values(), tmp_path / "sub"])

    @pytest.mark.parametrize("kind", ["symlink", "hardlink"])
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_out_links_to_an_input(self, tmp_path, capsys, role, kind):
        """An --out of another name that is a link to an input is refused."""
        paths = {key: tmp_path / f"{key}_map.json" for key in ("teacher", "student")}
        for path in paths.values():
            path.write_bytes((DATA_DIR / path.name).read_bytes())
        out = tmp_path / "out.txt"
        make_link(out, paths[role], kind)
        before = file_bytes(tmp_path)
        code = main(["analyze", "--teacher", str(paths["teacher"]), "--student",
                     str(paths["student"]), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {out} would overwrite input {paths[role]}\n"
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("out, code", [("odir", errno.EISDIR), ("nodir/x.txt", errno.ENOENT)],
                             ids=["directory", "no-parent"])
    def test_out_that_cannot_be_written(self, tmp_path, capsys, out, code):
        """A write that fails past the output guard names --out and the
        system's reason, in one line."""
        (tmp_path / "odir").mkdir()
        out = tmp_path / out
        assert main(["analyze", "--teacher", TEACHER, "--student", STUDENT, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --out {out} could not be written: {os.strerror(code)}\n")

    def test_missing_teacher_map_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.txt"
        code = main(["analyze", "--teacher", str(tmp_path / "absent.json"),
                     "--student", STUDENT, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_invalid_student_map_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subject":"x","nodes":[{"id":"A","parent":"B"},{"id":"B","parent":"A"}]}')
        code = main(["analyze", "--teacher", TEACHER, "--student", str(bad)])
        assert code == 1
        assert "cycle" in capsys.readouterr().err

    def test_student_map_of_another_subject_exits_1(self, tmp_path, capsys):
        student = str(other_subject_map(tmp_path))
        assert main(["analyze", "--teacher", TEACHER, "--student", student]) == 1
        assert capsys.readouterr() == ("", f"error: {SUBJECTS_DIFFER}\n")


class TestValidateCommand:
    def test_valid_map(self, capsys):
        for path in (TEACHER, STUDENT):
            assert main(["validate", path]) == 0
            assert capsys.readouterr() == (f"valid: {path}\n", "")

    def test_invalid_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subject":"x","nodes":[{"id":"A","parent":null},{"id":"B","parent":null}]}')
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: multiple root nodes: ['A', 'B']\n")

    def test_unparseable_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("argv", [["analyze", "--teacher", TEACHER, "--student", STUDENT],
                                  ["validate", TEACHER]], ids=["analyze", "validate"])
def test_closed_stdout_exits_2(monkeypatch, capsys, argv):
    """A process started with stdout closed has `sys.stdout` None: a command
    that prints to it exits 2 with one line, not a traceback or silence."""
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"


def swap(argv, old, new):
    return [new if arg == old else arg for arg in argv]


ANALYZE = ["analyze", "--teacher", "{teacher}", "--student", "{student}"]
BATCH = ["batch", "--teacher", "{teacher}", "--roster", "{roster}", "--out-dir", "{out}"]
VALIDATE = ["validate", "{teacher}"]
# id -> (argv, stdout, stderr, (name, kind) of what `plant` makes at
# {out}/<name>: a link to {victim}, a FIFO or a directory, exit status).  The
# argv names the files test_fault_matrix makes.  A stream is "pipe" (read by
# the test), "closed", "full" (/dev/full), "broken" (a pipe whose reader is
# gone) or "read-only" (open for reading, so a write fails).
FAULT_MATRIX = {
    "no-fault": (BATCH, "pipe", "pipe", None, 0),
    "stdout-closed": (ANALYZE, "closed", "pipe", None, 2),
    "stderr-closed": (swap(VALIDATE, "{teacher}", "{absent}"), "pipe", "closed", None, 2),
    "both-closed": (ANALYZE, "closed", "closed", None, 2),
    "stderr-fails": (swap(VALIDATE, "{teacher}", "{absent}"), "pipe", "read-only", None, 2),
    "stdout-full": (ANALYZE, "full", "pipe", None, 2),
    "validate-stdout-full": (VALIDATE, "full", "pipe", None, 2),
    "out-full": ([*ANALYZE, "--out", "/dev/full"], "pipe", "pipe", None, 2),
    "stdout-pipe-closed": (ANALYZE, "broken", "pipe", None, 2),
    "report-symlink": (BATCH, "pipe", "pipe", ("CSE001.text", "symlink"), 2),
    "report-hardlink": (BATCH, "pipe", "pipe", ("CSE001.text", "hardlink"), 2),
    "summary-symlink": (BATCH, "pipe", "pipe", ("cohort_summary.csv", "symlink"), 2),
    "summary-hardlink": (BATCH, "pipe", "pipe", ("cohort_summary.csv", "hardlink"), 2),
    "report-fifo": (BATCH, "pipe", "pipe", ("CSE001.text", "fifo"), 2),
    "report-directory": (BATCH, "pipe", "pipe", ("CSE001.text", "directory"), 2),
    "summary-directory": (BATCH, "pipe", "pipe", ("cohort_summary.csv", "directory"), 2),
    "out-dir-is-a-file": (swap(BATCH, "{out}", "{victim}"), "pipe", "pipe", None, 2),
    "out-dir-under-a-file": (swap(BATCH, "{out}", "{victim}/out"), "pipe", "pipe", None, 2),
    "teacher-fifo": (swap(ANALYZE, "{teacher}", "{fifo}"), "pipe", "pipe", None, 2),
    "student-fifo": (swap(BATCH, "{roster}", "{roster_fifo}"), "pipe", "pipe", None, 2),
    "roster-fifo": (swap(BATCH, "{roster}", "{fifo}"), "pipe", "pipe", None, 2),
    "validate-fifo": (swap(VALIDATE, "{teacher}", "{fifo}"), "pipe", "pipe", None, 2),
    "teacher-absent": (swap(ANALYZE, "{teacher}", "{absent}"), "pipe", "pipe", None, 2),
    "student-absent": (swap(BATCH, "{roster}", "{roster_absent}"), "pipe", "pipe", None, 2),
    "roster-absent": (swap(BATCH, "{roster}", "{absent}"), "pipe", "pipe", None, 2),
    "validate-absent": (swap(VALIDATE, "{teacher}", "{absent}"), "pipe", "pipe", None, 2),
}


@pytest.mark.parametrize("case", FAULT_MATRIX)
def test_fault_matrix(tmp_path, case):
    """Each fault ends in its exit status with, on a stderr that can take it,
    one ``error:`` line and no traceback; nothing reaches stdout, and every
    file outside --out-dir keeps its bytes."""
    argv, stdout, stderr, planted, status = FAULT_MATRIX[case]
    paths = {"teacher": tmp_path / "teacher.json", "student": tmp_path / "student.json",
             "victim": tmp_path / "victim.txt", "fifo": tmp_path / "fifo",
             "absent": tmp_path / "absent.json", "out": tmp_path / "out"}
    paths["teacher"].write_bytes((DATA_DIR / "teacher_map.json").read_bytes())
    paths["student"].write_bytes((DATA_DIR / "student_map.json").read_bytes())
    paths["victim"].write_bytes(b"victim\n")
    os.mkfifo(paths["fifo"])
    for suffix, student in (("", "student"), ("_fifo", "fifo"), ("_absent", "absent")):
        paths[f"roster{suffix}"] = tmp_path / f"roster{suffix}.csv"
        write_roster(paths[f"roster{suffix}"], [("CSE001", "a", "d", "s", "sub", paths[student])])
    if planted is not None:
        paths["out"].mkdir()
        plant(paths["out"] / planted[0], paths["victim"], planted[1])

    def outside_out_dir():
        return {path: data for path, data in file_bytes(tmp_path).items()
                if paths["out"] not in path.parents}

    before = outside_out_dir()
    with contextlib.ExitStack() as stack:
        streams = {"pipe": subprocess.PIPE, "closed": None,
                   "full": stack.enter_context(open("/dev/full", "wb")),
                   "read-only": stack.enter_context(open(os.devnull, "rb"))}
        if "broken" in (stdout, stderr):
            reader, writer = os.pipe()
            os.close(reader)
            stack.callback(os.close, writer)
            streams["broken"] = writer
        closed = [fd for fd, stream in ((1, stdout), (2, stderr)) if stream == "closed"]
        proc = run_cli([arg.format(**paths) for arg in argv], closed=closed,
                       stdout=streams[stdout], stderr=streams[stderr])
    assert proc.returncode == status
    if stdout == "pipe":
        assert proc.stdout == b""
    if stderr == "pipe":
        assert b"Traceback" not in proc.stderr
        if status:
            assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        else:
            assert proc.stderr == b""
    assert outside_out_dir() == before
    assert Path("/dev/full").is_char_device()  # a failed write removes only a regular file


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_stdout_that_cannot_encode_exits_2(tmp_path, command):
    """A stdout whose encoding cannot hold the text (here a node id and a
    file name with a non-ASCII letter) takes nothing: exit 2, one line."""
    doc = {"subject": "x", "nodes": [{"id": "S", "parent": None}, {"id": "\u00dc1", "parent": "S"},
                                     {"id": "C", "parent": "\u00dc1"}]}
    path = tmp_path / "\u00dc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"analyze": ["analyze", "--teacher", str(path), "--student", str(path)],
            "validate": ["validate", str(path)]}[command]
    proc = run_cli(argv, capture_output=True, env_extra={"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: stdout cannot encode '\\xdc' as ascii\n"


class TestHostileMapFiles:
    """Malformed map files end in exit 2, invalid ones in exit 1, with one
    diagnostic line that names the file once."""

    @staticmethod
    def _exits_with_one_line(map_path, capsys, status):
        """The stderr of `validate`, of `analyze` with the map as teacher and
        as student, and of a one-row `batch`, after checking each."""
        roster = map_path.parent / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", map_path.name)])
        errs = []
        for argv in (["validate", str(map_path)],
                     ["analyze", "--teacher", str(map_path), "--student", STUDENT],
                     ["analyze", "--teacher", TEACHER, "--student", str(map_path)],
                     ["batch", "--teacher", TEACHER, "--roster", str(roster), "--maps-dir",
                      str(map_path.parent), "--out-dir", str(map_path.parent / "out")]):
            assert main(argv) == status
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.err.count(str(map_path)) == 1
            errs.append(captured.err)
        return errs

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        self._exits_with_one_line(deep, capsys, 2)

    def test_non_utf8_file(self, tmp_path, capsys):
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + '{"nodes": []}'.encode("utf-16-le"))
        self._exits_with_one_line(utf16, capsys, 2)

    def test_utf16_without_byte_order_mark(self, tmp_path, capsys):
        """ASCII JSON in UTF-16 with no byte order mark is UTF-8 with NULs."""
        bad = tmp_path / "utf16le.json"
        bad.write_bytes((DATA_DIR / "teacher_map.json").read_text(encoding="utf-8")
                        .encode("utf-16-le"))
        line = f"{bad}: NUL character at index 1: not UTF-8 JSON (UTF-16 or UTF-32?)\n"
        assert self._exits_with_one_line(bad, capsys, 2) == [
            *[f"error: {line}"] * 3, f"error: student R1: {line}"]

    def test_two_roots(self, tmp_path, capsys):
        bad = tmp_path / "tworoots.json"
        bad.write_text('{"subject":"x","nodes":[{"id":"A","parent":null},{"id":"B","parent":null}]}')
        line = f"{bad}: multiple root nodes: ['A', 'B']\n"
        assert self._exits_with_one_line(bad, capsys, 1) == [
            *[f"error: {line}"] * 3, f"error: student R1: {line}"]

    def test_lone_surrogate_id(self, tmp_path, capsys):
        """JSON can spell a lone surrogate, which no UTF-8 report can hold:
        every command exits 2 with one line and writes nothing."""
        doc = json.loads((DATA_DIR / "student_map.json").read_text(encoding="utf-8"))
        doc["nodes"] += [{"id": "U\ud800", "parent": "S1"}, {"id": "C99", "parent": "U\ud800"}]
        bad = tmp_path / "surrogate.json"
        bad.write_text(json.dumps(doc), encoding="ascii")
        line = f"error: {bad}: nodes[{len(doc['nodes']) - 2}].id is not valid UTF-8 text\n"
        out = tmp_path / "report"
        out.write_bytes(b"kept\n")
        for report_format in ("text", "csv", "json"):
            analyze = ["analyze", "--teacher", TEACHER, "--student", str(bad),
                       "--format", report_format]
            for argv in (analyze, [*analyze, "--out", str(out)]):
                assert main(argv) == 2
                assert capsys.readouterr() == ("", line)
                assert out.read_bytes() == b"kept\n"
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr() == ("", line)
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", bad.name)])
        out_dir = tmp_path / "out"
        assert main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(tmp_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr() == ("", line.replace("error: ", "error: student R1: "))
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command, role", [
        ("analyze", "teacher"), ("analyze", "student"), ("batch", "teacher"), ("batch", "student"),
        ("batch", "roster"), ("validate", "map")])
    def test_fifo_map_exits_2_without_blocking(self, tmp_path, command, role):
        """Reading a FIFO would block, so every command reads an input file,
        map or roster, only when it is a regular file."""
        fifo = tmp_path / "fifo.json"
        os.mkfifo(fifo)
        paths = {"teacher": TEACHER, "student": STUDENT, "roster": str(tmp_path / "roster.csv"),
                 role: str(fifo)}
        if role != "roster":
            write_roster(tmp_path / "roster.csv", [("R1", "a", "d", "s", "sub", paths["student"])])
        argv = {
            "analyze": ["analyze", "--teacher", paths["teacher"], "--student", paths["student"]],
            "batch": ["batch", "--teacher", paths["teacher"], "--roster", paths["roster"],
                      "--out-dir", str(tmp_path / "out")],
            "validate": ["validate", str(fifo)]}[command]
        proc = run_cli(argv, capture_output=True, text=True)
        fault = "student R1: " * (command == "batch" and role == "student")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: {fault}{fifo}: missing or not a regular file\n")


class TestRunStops:
    """A run stopped by an interrupt (Ctrl-C) or by running out of memory
    ends in one line and a status, not a traceback."""

    @pytest.mark.parametrize("command, stop, status, line", [
        ("analyze", KeyboardInterrupt, 130, "interrupted"),
        ("analyze", MemoryError, 2, "out of memory"),
        ("batch", KeyboardInterrupt, 130, "interrupted after 1 of 2 students"),
        ("batch", MemoryError, 2, "out of memory"),
    ])
    def test_stop_while_grading(self, tmp_path, capsys, monkeypatch, command, stop, status, line):
        """The stop comes in the last student's integrate: `batch` has written
        the first student's report and no summary."""
        integrate, calls = fileio.integrate, []

        def stopping(teacher, student):
            calls.append(student)
            if len(calls) == {"analyze": 1, "batch": 2}[command]:
                raise stop
            return integrate(teacher, student)

        monkeypatch.setattr(fileio, "integrate", stopping)
        out_dir = tmp_path / "out"
        argv = {"analyze": ["analyze", "--teacher", TEACHER, "--student", STUDENT],
                "batch": ["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir",
                          str(DATA_DIR), "--out-dir", str(out_dir)]}[command]
        try:
            code = main(argv)
        except KeyboardInterrupt:  # would end the whole test session
            pytest.fail("KeyboardInterrupt escaped the run")
        assert code == status
        assert capsys.readouterr() == ("", f"error: {line}\n")
        if command == "batch":
            assert list(out_dir.iterdir()) == [out_dir / "CSE001.text"]

    def test_interrupted_batch(self, tmp_path):
        """SIGINT, sent once the first report exists, to a batch that would
        run for seconds: exit 130 and one line that counts the reports written.
        The report being written when the signal came may be cut short."""
        students = 10_000
        roster, out_dir = tmp_path / "roster.csv", tmp_path / "out"
        write_roster(roster, [(f"R{i:05}", "a", "d", "s", "sub", STUDENT) for i in range(students)])
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        argv = [sys.executable, "-m", "roughmap", "batch", "--teacher", TEACHER,
                "--roster", str(roster), "--out-dir", str(out_dir)]
        # An inherited "ignore SIGINT", as in a background job, would keep Python's handler off.
        with subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)) as proc:
            while not (out_dir / "R00000.text").exists() and proc.poll() is None:
                time.sleep(0.001)  # polls for the report; the signal is not timed by a sleep
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stdout) == (130, "")
        match = re.fullmatch(rf"error: interrupted after (\d+) of {students} students\n", stderr)
        assert match, stderr
        written = int(match[1])
        reports = [path for path in out_dir.iterdir() if path.suffix == ".text"]
        assert written <= len(reports) <= written + 1
        assert not (out_dir / "cohort_summary.csv").exists()

    def test_map_too_large_for_memory(self, tmp_path):
        """`validate` of a 600 000-leaf map (18 MB; about 260 MB at its peak)
        under a 150 MB address-space limit exits 2 with one line naming it."""
        big, limit = tmp_path / "big.json", 150 * 2**20
        with big.open("w", encoding="utf-8") as fh:
            fh.write('{"nodes":[{"id":"S","parent":null}')
            fh.writelines(f',{{"id":"L{i}","parent":"S"}}' for i in range(600_000))
            fh.write("]}")
        proc = run_cli(["validate", str(big)], capture_output=True, text=True,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: {big}: out of memory\n")


class TestByteOrderMark:
    """A leading UTF-8 byte order mark, as some editors and Excel's
    "CSV UTF-8" export write, is skipped in map files and rosters."""

    def test_map_files(self, tmp_path, capsys):
        teacher, student = tmp_path / "teacher.json", tmp_path / "student.json"
        teacher.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "teacher_map.json").read_bytes())
        student.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "student_map.json").read_bytes())
        assert main(["validate", str(teacher)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--teacher", str(teacher), "--student", str(student)]) == 0
        with_bom = capsys.readouterr().out
        assert main(["analyze", "--teacher", TEACHER, "--student", STUDENT]) == 0
        assert with_bom == capsys.readouterr().out

    def test_only_one_mark_is_skipped(self, tmp_path, capsys):
        twice = tmp_path / "twice.json"
        twice.write_bytes(b"\xef\xbb\xbf" * 2 + (DATA_DIR / "teacher_map.json").read_bytes())
        assert main(["validate", str(twice)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {twice}: invalid JSON at line 1")

    def test_roster(self, tmp_path):
        rows = [("R1", "a", "d", "s", "sub", "student_map.json")]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_roster(plain, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for roster in (plain, marked):
            code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                         "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / roster.stem)])
            assert code == 0
        for name in ("R1.text", "cohort_summary.csv"):
            assert ((tmp_path / "marked" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


class TestBatchCommand:
    @pytest.mark.parametrize("report_format, suffix", [("text", "txt"), ("csv", "csv"),
                                                       ("json", "json")])
    def test_sample_matches_golden_files(self, tmp_path, capsys, report_format, suffix):
        """`analyze` on the sample maps and `batch` on data/roster.csv write
        the golden report, and `batch` the golden cohort summary."""
        golden = (GOLDEN_DIR / f"sample_report.{suffix}").read_bytes()
        assert main(["analyze", "--teacher", TEACHER, "--student", STUDENT,
                     "--format", report_format]) == 0
        assert capsys.readouterr() == (golden.decode("utf-8"), "")
        out_dir = tmp_path / "out"
        assert main(["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
                     "--out-dir", str(out_dir), "--format", report_format]) == 0
        assert (out_dir / f"CSE001.{report_format}").read_bytes() == golden
        assert ((out_dir / "cohort_summary.csv").read_bytes()
                == (GOLDEN_DIR / "sample_cohort_summary.csv").read_bytes())

    def test_fifo_at_report(self, tmp_path):
        """A FIFO at a report, whose write would block, is refused at once
        (in a subprocess, so that a write that blocks fails the test)."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        os.mkfifo(out_dir / "CSE001.text")
        proc = run_cli(["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir",
                        str(DATA_DIR), "--out-dir", str(out_dir)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", (
            f"error: {ROSTER}: register_no 'CSE001' would write over a non-regular file "
            f"{out_dir / 'CSE001.text'}\n"))

    @pytest.mark.parametrize("output, who", [("CSE001.text", "register_no 'CSE001'"),
                                             ("cohort_summary.csv", "cohort_summary.csv")])
    def test_write_fault_names_the_output(self, tmp_path, monkeypatch, capsys, output, who):
        """A write that fails past the output guard, here on a full disk,
        names the output and the system's reason, in one line."""
        write_text = Path.write_text

        def full(path, *args, **kwargs):
            if path.name == output:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full)
        assert main(["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", f"error: {ROSTER}: {who} could not be written: {os.strerror(errno.ENOSPC)}\n")

    def test_two_identical_students(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [
            ("R1", "a", "d", "s", "sub", "student_map.json"),
            ("R2", "b", "d", "s", "sub", "student_map.json"),
        ])
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir)])
        assert code == 0
        r1 = (out_dir / "R1.text").read_bytes()
        r2 = (out_dir / "R2.text").read_bytes()
        assert r1 == r2
        summary = (out_dir / "cohort_summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "register_no,expected_result,grades"
        assert summary[1] == "R1,0.548,U1=B;U2=C;U3=A;U4=B;U5=C"
        assert summary[2].startswith("R2,")

    def test_summary_follows_roster_order(self, tmp_path):
        forward = tmp_path / "fwd.csv"
        backward = tmp_path / "bwd.csv"
        rows = [("R1", "a", "d", "s", "sub", "student_map.json"),
                ("R2", "b", "d", "s", "sub", "teacher_map.json")]
        write_roster(forward, rows)
        write_roster(backward, rows[::-1])
        out_f, out_b = tmp_path / "of", tmp_path / "ob"
        main(["batch", "--teacher", TEACHER, "--roster", str(forward),
              "--maps-dir", str(DATA_DIR), "--out-dir", str(out_f)])
        main(["batch", "--teacher", TEACHER, "--roster", str(backward),
              "--maps-dir", str(DATA_DIR), "--out-dir", str(out_b)])
        # per-student reports do not depend on row order
        assert (out_f / "R1.text").read_bytes() == (out_b / "R1.text").read_bytes()
        assert (out_f / "R2.text").read_bytes() == (out_b / "R2.text").read_bytes()
        rows_f = (out_f / "cohort_summary.csv").read_text().splitlines()[1:]
        rows_b = (out_b / "cohort_summary.csv").read_text().splitlines()[1:]
        assert rows_f == rows_b[::-1]

    def test_student_map_of_another_subject_names_register(self, tmp_path, capsys):
        student = other_subject_map(tmp_path)
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "Data Structures", student.name)])
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: student R1: {SUBJECTS_DIFFER}\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_student_map_names_register_and_path(self, tmp_path, capsys, kind):
        if kind == "directory":
            (tmp_path / "nowhere.json").mkdir()
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R9", "a", "d", "s", "sub", "nowhere.json")])
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: student R9: {tmp_path / 'nowhere.json'}: missing or not a regular file\n")

    @pytest.mark.parametrize("register_no,report_format", [
        *((name, "text") for name in ("../escaped", "a/b", "a\\b", ".", "..", "CSE\n01")),
        pytest.param("CSE\x0001", "text", marks=pytest.mark.skipif(
            sys.version_info < (3, 11),
            reason="before 3.11 the csv module rejects NUL itself (see test_unreadable_roster)")),
        # Control characters past ASCII: DEL and NEL.
        ("R\x7f1", "text"), ("R\x851", "text"),
        # Its csv report would be overwritten by the cohort summary.
        ("cohort_summary", "csv"),
    ], ids=["../escaped", "a/b", "a\\b", ".", "..", "CSE\n01", "CSE\x0001", "R\x7f1", "R\x851",
            "cohort_summary-csv"])
    def test_unsafe_register_no_rejected(self, tmp_path, capsys, register_no, report_format):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", "student_map.json"),
                              (register_no, "b", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        before = set(tmp_path.rglob("*"))
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir),
                     "--format", report_format])
        assert code == 2
        err = capsys.readouterr().err
        assert f"register_no {register_no!r}" in err and err.count("\n") == 1
        written = set(tmp_path.rglob("*")) - before
        assert all(out_dir in (p, *p.parents) for p in written)
        assert not out_dir.exists()

    @pytest.mark.parametrize("register_no,report_format", [
        ("teacher_map", "json"), ("student_map", "json"), ("roster", "csv")])
    def test_report_would_overwrite_an_input(self, tmp_path, capsys, register_no, report_format):
        for name in ("teacher_map.json", "student_map.json"):
            (tmp_path / name).write_bytes((DATA_DIR / name).read_bytes())
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", "student_map.json"),
                              (register_no, "b", "d", "s", "sub", "student_map.json")])
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        code = main(["batch", "--teacher", str(tmp_path / "teacher_map.json"),
                     "--roster", str(roster), "--maps-dir", str(tmp_path),
                     "--out-dir", str(tmp_path), "--format", report_format])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: {roster}: register_no {register_no!r} would overwrite input "
                       f"{tmp_path / register_no}.{report_format}\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("role", ["teacher", "roster", "student_map"])
    def test_summary_would_overwrite_an_input(self, tmp_path, capsys, role):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        paths = {key: tmp_path / f"{key}.in" for key in ("teacher", "roster", "student_map")}
        paths[role] = out_dir / "cohort_summary.csv"
        paths["teacher"].write_bytes((DATA_DIR / "teacher_map.json").read_bytes())
        paths["student_map"].write_bytes((DATA_DIR / "student_map.json").read_bytes())
        write_roster(paths["roster"], [("R1", "a", "d", "s", "sub", str(paths["student_map"]))])
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code = main(["batch", "--teacher", str(paths["teacher"]), "--roster", str(paths["roster"]),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {paths['roster']}: cohort_summary.csv "
                                           f"would overwrite input {paths[role]}\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("kind", ["symlink", "hardlink", "outside", "outside-hardlink", "loop"])
    @pytest.mark.parametrize("output", ["report", "summary"])
    def test_output_links_to_an_input(self, tmp_path, capsys, output, kind):
        """A report or summary that is already a link to an input, or a
        symlink or hard link to any file, is refused before anything is
        written; a symlink to itself, whose stat fails, reads as a symlink."""
        for name in ("teacher_map.json", "student_map.json"):
            (tmp_path / name).write_bytes((DATA_DIR / name).read_bytes())
        (tmp_path / "victim.txt").write_text("not an input\n", encoding="utf-8")
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("CSE001", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if output == "report":
            name, who, target = "CSE001.text", "register_no 'CSE001'", tmp_path / "student_map.json"
        else:
            name, who, target = "cohort_summary.csv", "cohort_summary.csv", roster
        if kind.startswith("outside") or kind == "loop":
            target = out_dir / name if kind == "loop" else tmp_path / "victim.txt"
            kind, link = {"outside": ("symlink", "symlink"), "loop": ("symlink", "symlink"),
                          "outside-hardlink": ("hardlink", "hard link")}[kind]
            expected = f"{who} would write through {link} {out_dir / name}"
        else:
            expected = f"{who} would overwrite input {target}"
        make_link(out_dir / name, target, kind)
        before = file_bytes(tmp_path)
        code = main(["batch", "--teacher", str(tmp_path / "teacher_map.json"),
                     "--roster", str(roster), "--maps-dir", str(tmp_path),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {roster}: {expected}\n"
        assert file_bytes(tmp_path) == before
        assert list(out_dir.iterdir()) == [out_dir / name]

    @pytest.mark.parametrize("command", ["batch", "analyze", "analyze-hardlink"])
    def test_links_written_through(self, tmp_path, command):
        """A symlinked --out-dir, and an `analyze --out` that is a symlink or
        a hard link to a file that is not an input, are written through."""
        target = tmp_path / "target"
        if command == "batch":
            target.mkdir()
            (tmp_path / "out").symlink_to(target)
            argv = ["batch", "--teacher", TEACHER, "--roster", str(DATA_DIR / "roster.csv"),
                    "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / "out")]
            written = target / "CSE001.text"
        else:
            target.write_text("old\n", encoding="utf-8")
            kind = "hardlink" if command == "analyze-hardlink" else "symlink"
            make_link(tmp_path / "out", target, kind)
            argv = ["analyze", "--teacher", TEACHER, "--student", STUDENT,
                    "--out", str(tmp_path / "out")]
            written = target
        assert main(argv) == 0
        golden = (GOLDEN_DIR / "sample_report.txt").read_bytes()
        assert written.read_bytes() == golden

    def test_input_named_report_in_another_directory(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("teacher_map", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "json"])
        assert code == 0
        assert json.loads((out_dir / "teacher_map.json").read_text(encoding="utf-8"))

    def test_summary_named_register_no_in_another_format(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("cohort_summary", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "text"])
        assert code == 0
        golden = (GOLDEN_DIR / "sample_report.txt").read_bytes()
        assert (out_dir / "cohort_summary.text").read_bytes() == golden
        summary = (out_dir / "cohort_summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary == ["register_no,expected_result,grades",
                           "cohort_summary,0.548,U1=B;U2=C;U3=A;U4=B;U5=C"]

    @pytest.mark.parametrize("content,detail", [
        (b"register_no,name,department,semester,subject,map_path\nR\xff1,a,d,s,sub,m.json\n",
         "not UTF-8 text: invalid start byte at byte 55"),
        (b"register_no,name,department,semester,subject,map_path\nR1,\""
         + b"x" * (csv.field_size_limit() + 1) + b"\"\n",
         f"line 2: field larger than field limit ({csv.field_size_limit()})"),
        (b"register_no,name,department,semester,subject,map_path\nR1,a\n",
         "line 2: missing cell(s): department, semester, subject, map_path"),
        (b"register_no,name,department,semester,subject,map_path\nR1,\"a\nb\",d,s,sub,m.json\n"
         b",c,d,s,sub,m.json\n",
         "line 4: empty register_no"),
        (b"register_no,name,department,semester,subject,map_path\nR1,\"a\nb\",d,s,sub,m.json\n"
         b",\"c\nd\",d,s,sub,m.json\n",
         "line 4: empty register_no"),
        (b"register_no,name,department,semester,subject,map_path\n"
         b"CSE001,Smith,CSE,S5,Sub,student_map.json,extra\n",
         "line 2: 1 cell(s) past the header"),
    ], ids=["not-utf8", "oversize-field", "short-row", "quoted-newline", "bad-record-spans-lines",
            "long-row"])
    def test_unreadable_roster(self, tmp_path, capsys, content, detail):
        roster = tmp_path / "roster.csv"
        roster.write_bytes(content)
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {roster}: {detail}\n"
        assert not out_dir.exists()

    def test_roster_named_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").write_text("a,b\n", encoding="utf-8")
        code = main(["batch", "--teacher", TEACHER, "--roster", "./bad.csv"])
        assert code == 2
        assert capsys.readouterr().err == ("error: ./bad.csv: missing column(s): register_no, "
                                           "name, department, semester, subject, map_path\n")

    def test_directory_at_second_report(self, tmp_path, capsys):
        """A directory at the second report is refused before the first
        report is written.  (A FIFO, whose write would block this process,
        is a case of test_fault_matrix.)"""
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("CSE001", "a", "d", "s", "sub", "student_map.json"),
                              ("CSE002", "b", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "CSE002.text").mkdir()
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {roster}: register_no 'CSE002' would write over a non-regular file "
            f"{out_dir / 'CSE002.text'}\n")
        assert list(out_dir.iterdir()) == [out_dir / "CSE002.text"]

    def test_register_no_too_long_for_a_file_name(self, tmp_path, capsys):
        """A report whose name the file system refuses is refused before
        the first report is written, also under an --out-dir that does not
        exist yet; the directories made for it are removed."""
        register_no = "R" * 300
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("CSE001", "a", "d", "s", "sub", "student_map.json"),
                              (register_no, "b", "d", "s", "sub", "student_map.json")])
        (tmp_path / "out").mkdir()
        for out_dir in (tmp_path / "out", tmp_path / "new" / "out"):
            code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                         "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir)])
            assert code == 2
            assert capsys.readouterr() == ("", f"error: {roster}: register_no {register_no!r} "
                                               f"could not be written: "
                                               f"{os.strerror(errno.ENAMETOOLONG)}\n")
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "out", roster]

    def test_bad_teacher_map_leaves_no_out_dir(self, tmp_path, capsys):
        """--out-dir is made before the outputs are checked; a run refused
        before any write, here by the teacher map, removes what it made."""
        out_dir = tmp_path / "new" / "out"
        code = main(["batch", "--teacher", str(tmp_path / "absent.json"), "--roster", ROSTER,
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'absent.json'}: missing or not a regular file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["analyze", "batch"])
    def test_write_cut_short_leaves_no_partial_report(self, tmp_path, command):
        """A write that fails once the file is open (here at a 2048-byte file
        size limit, EFBIG, as ENOSPC does on a full disk) removes the partial
        file: exit 2, one line, and every report left is whole."""
        limit = 2048
        golden = (GOLDEN_DIR / "sample_report.json").read_bytes()
        assert len(golden) > limit
        out_dir, out = tmp_path / "out", tmp_path / "r.json"
        argv, who = {
            "analyze": (["analyze", "--teacher", TEACHER, "--student", STUDENT, "--out", str(out)],
                        f"--out {out}"),
            "batch": (["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir",
                       str(DATA_DIR), "--out-dir", str(out_dir)], f"{ROSTER}: register_no 'CSE001'"),
        }[command]
        proc = run_cli([*argv, "--format", "json"], capture_output=True, text=True,
                       env_extra={"PYTHONDONTWRITEBYTECODE": "1"},
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: {who} could not be written: {os.strerror(errno.EFBIG)}\n")
        assert sorted(tmp_path.rglob("*")) == ([out_dir] if command == "batch" else [])

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_dir_is_not_a_directory(self, tmp_path, capsys, under):
        """An --out-dir that is a file, or that sits under one, is refused
        as the summary that cannot be written, and the file is untouched."""
        (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
        out_dir = tmp_path / "file" / "out" if under else tmp_path / "file"
        before = file_bytes(tmp_path)
        code = main(["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {ROSTER}: cohort_summary.csv could not be "
                                           f"written: {os.strerror(errno.ENOTDIR)}\n")
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("missing", [False, True], ids=["teacher", "missing-teacher"])
    def test_roster_of_only_the_header(self, tmp_path, capsys, missing):
        """A roster with no rows still makes --out-dir, guards the outputs and
        reads the teacher map: the summary is its header line alone, and a
        missing teacher map leaves no --out-dir."""
        roster, out_dir = tmp_path / "roster.csv", tmp_path / "new" / "out"
        write_roster(roster, [])
        teacher = str(tmp_path / "absent.json") if missing else TEACHER
        code = main(["batch", "--teacher", teacher, "--roster", str(roster),
                     "--out-dir", str(out_dir)])
        if missing:
            assert (code, capsys.readouterr()) == (
                2, ("", f"error: {teacher}: missing or not a regular file\n"))
            assert list(tmp_path.iterdir()) == [roster]
        else:
            assert (code, capsys.readouterr()) == (0, ("", ""))
            assert list(out_dir.iterdir()) == [out_dir / "cohort_summary.csv"]
            assert (out_dir / "cohort_summary.csv").read_bytes() == (
                b"register_no,expected_result,grades\n")

    def test_json_format_files(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        main(["batch", "--teacher", TEACHER, "--roster", str(roster),
              "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "json"])
        doc = json.loads((out_dir / "R1.json").read_text(encoding="utf-8"))
        assert doc["expected_result_display"] == "0.548"


class TestOnePerStudentPath:
    """`analyze --out` and a one-row `batch` write the same report bytes."""

    @settings(max_examples=40, deadline=None)
    @given(pair=strategies.teacher_student_pairs(max_extras=3),
           report_format=st.sampled_from(REPORT_FORMATS),
           order=st.sampled_from(["asc", "desc"]), levels=st.sampled_from(["deepest", "all"]))
    def test_analyze_out_equals_batch_report(self, pair, report_format, order, levels):
        flags = ["--format", report_format, "--order", order, "--levels", levels]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            teacher, student = tmp / "teacher.json", tmp / "student.json"
            for path, cmap in ((teacher, pair[0]), (student, pair[1])):
                nodes = [{"id": nid, "parent": parent} for nid, parent in zip(cmap.ids, cmap.parents)]
                path.write_text(json.dumps({"subject": cmap.subject, "nodes": nodes}), "utf-8")
            write_roster(tmp / "roster.csv", [("R1", "a", "d", "s", "sub", student.name)])
            assert main(["analyze", "--teacher", str(teacher), "--student", str(student),
                         "--out", str(tmp / "report"), *flags]) == 0
            assert main(["batch", "--teacher", str(teacher), "--roster", str(tmp / "roster.csv"),
                         "--maps-dir", str(tmp), "--out-dir", str(tmp / "out"), *flags]) == 0
            assert ((tmp / "out" / f"R1.{report_format}").read_bytes()
                    == (tmp / "report").read_bytes())


class TestArgparseSurface:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--teacher", TEACHER, "--student", STUDENT, "--format", "pdf"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--teacher", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "roughmap analyze: error: the following arguments are required: --student\n")

    @pytest.mark.parametrize("argv, usage", [(["--help"], "usage: roughmap "),
                                             (["analyze", "--help"], "usage: roughmap analyze ")])
    def test_help_exits_0_with_a_usage_line(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


def argparse_values(argv):
    """`vars()` of argparse's namespace for `argv`, or None when argparse
    exits (help or a usage error), with its output swallowed."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


# Values with no "-", so argparse reads each as a value.
VALUES = st.text(alphabet="ab/. =", max_size=4)


@st.composite
def plain_command_lines(draw):
    """A command line the direct reader takes: a command and some of its
    flags, each once and in any order, every required flag among them."""
    command = draw(st.sampled_from(list(COMMANDS)))
    if command == "validate":
        return [command, draw(VALUES)]
    pairs = [[name, draw(st.sampled_from(choices) if choices else VALUES)]
             for name, choices, _, required, _ in COMMANDS[command][1]
             if required or draw(st.booleans())]
    return [command, *chain.from_iterable(draw(st.permutations(pairs)))]


def edit(argv, kind, at):
    """`argv` with one edit of `kind` at token `at` (modulo its length)."""
    argv = list(argv)
    i = at % len(argv) if argv else 0
    if kind == "drop":
        del argv[i:i + 1]
    elif kind == "repeat":
        argv[i:i] = argv[i:i + 2]
    elif kind == "abbreviate":
        argv[i:i + 1] = [token[:max(1, len(token) - 2)] for token in argv[i:i + 1]]
    elif kind == "equals":
        argv[i:i + 2] = ["=".join(argv[i:i + 2])]
    elif kind == "dash":
        argv[i:i + 1] = ["-" + token for token in argv[i:i + 1]]
    elif kind == "bad choice":
        argv[i:i + 1] = ["pdf"]
    elif kind == "positional":
        argv.insert(i, "extra")
    elif kind == "empty":
        argv.insert(i, "")
    else:
        argv.insert(i, "-h")
    return argv


EDITS = ("drop", "repeat", "abbreviate", "equals", "dash", "bad choice", "positional", "empty",
         "help")


def shell_command_lines(path):
    """The argv of each `roughmap` command in the shell code of `path`, with
    continuation lines joined, CI's shell variables given a plain value, and
    each command cut at its first redirection or `||`."""
    text = path.read_text(encoding="utf-8").replace("\\\n", " ")
    text = text.replace('"${format%:*}"', "csv").replace("$RUNNER_TEMP", "tmp")
    lines = []
    for line in text.splitlines():
        for start in "roughmap ", "python -m roughmap ":
            if line.strip().startswith(start):
                argv = shlex.split(line.strip().removeprefix(start))
                cut = [i for i, token in enumerate(argv) if token in (">", "2>", "||")]
                lines.append(argv[:min(cut, default=len(argv))])
    return lines


def bench_run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_run", REPO_ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks it up
    spec.loader.exec_module(module)
    return module


class TestDirectReader:
    """A plain command line is read without argparse, into the values
    argparse would give; every other one goes to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(argv=plain_command_lines(),
           edits=st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 20)), max_size=3))
    def test_matches_argparse(self, argv, edits):
        for kind, at in edits:
            argv = edit(argv, kind, at)
        read = _read(argv)
        if not edits:
            assert read is not None
        if read is not None:
            assert read == argparse_values(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["analyze", "-h"], ["validate"], ["validate", "--", "x"], ["validate", "-x"],
        ["analyze", "--teach", "t", "--student", "s"], ["analyze", "--teacher=t", "--student", "s"],
        ["analyze", "--teacher", "t", "--teacher", "t", "--student", "s"],
        ["analyze", "--teacher", "t", "--student", "s", "--format", "pdf", "--format", "csv"],
        ["analyze", "--teacher", "t"], ["analyze", "--teacher", "t", "--student", "-s"],
        ["analyze", "--teacher", "t", "--student", "s", "--format", "pdf"],
        ["analyze", "--teacher", "t", "--student", "s", "extra"],
        ["batch", "--teacher", "t", "--roster", "r", "--out", "o"],  # argparse: --out-dir
    ])
    def test_falls_back(self, argv):
        assert _read(argv) is None

    def test_readme_and_ci_command_lines_are_read_directly(self):
        """Each command line that the README or CI runs and argparse accepts."""
        readme = shell_command_lines(REPO_ROOT / "README.md")
        ci = shell_command_lines(REPO_ROOT / ".github" / "workflows" / "ci.yml")
        accepted = [argv for argv in readme + ci if argparse_values(argv) is not None]
        assert len(readme) == 4 and readme == accepted[:4] and len(accepted) == 4 + 2
        assert all(_read(argv) == argparse_values(argv) for argv in accepted)

    def test_bench_command_lines_are_read_directly(self, monkeypatch):
        bench = bench_run_module(monkeypatch)

        class Inputs:
            teacher = "t.json"

            def student_map(self, reg):
                return f"{reg}.json"

        for workload in bench.WORKLOADS.values():
            for fmt in bench.FORMATS:
                batch = ["batch", "--teacher", "t.json", "--roster", "r.csv", "--maps-dir", "m",
                         "--out-dir", "o", "--format", fmt, *workload.flags]
                analyze = [str(a) for a in bench.analyze_argv(Inputs(), "R1", fmt,
                                                               workload.flags, "out")]
                for argv in (batch, analyze):
                    assert _read(argv) is not None
                    assert _read(argv) == argparse_values(argv)

    def test_bench_traces_every_program_layer(self, tmp_path, monkeypatch):
        """`perfbench/run.py --trace 1` takes the median of each layer's spans,
        so every name that `perfbench/spans.py` patches must be called through
        it: an `analyze` in each format records each program layer."""
        bench = bench_run_module(monkeypatch)
        import spans

        tracer = spans.Tracer()
        with tracer.patched():
            for fmt in REPORT_FORMATS:
                assert main(["analyze", "--teacher", TEACHER, "--student", STUDENT,
                             "--format", fmt, "--out", str(tmp_path / f"report.{fmt}")]) == 0
        bench_own = {"roughset.regions", "cli.analyze"}  # spans that run.py opens itself
        assert set(bench.TIMED_LAYERS.values()) - bench_own <= {span[0] for span in tracer.spans}

    def test_plain_commands_do_not_import_argparse(self, tmp_path):
        out = tmp_path / "report.txt"
        commands = [
            ["analyze", "--teacher", TEACHER, "--student", STUDENT, "--out", str(out)],
            ["batch", "--teacher", TEACHER, "--roster", str(DATA_DIR / "roster.csv"),
             "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / "out")],
            ["validate", TEACHER],
        ]
        script = ("import sys\nfrom roughmap.cli import main\n"
                  f"codes = [main(argv) for argv in {commands!r}]\n"
                  "print(codes, 'argparse' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"
        assert out.is_file() and (tmp_path / "out" / "cohort_summary.csv").is_file()
