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
import threading
import time
from itertools import chain
from pathlib import Path
from stat import S_IFMT, S_ISLNK, S_ISREG

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from conftest import DATA_DIR, REPO_ROOT, collect_rows
from roughmap import fileio
from roughmap.cli import COMMANDS, _read, build_parser, main
from roughmap.grading import REPORT_FORMATS, parse_report

TEACHER = str(DATA_DIR / "teacher_map.json")
STUDENT = str(DATA_DIR / "student_map.json")
ROSTER = str(DATA_DIR / "roster.csv")
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def entries(root):
    """Each entry under `root` -> its bytes (a regular file), its target (a
    symlink) or its file type."""
    found = {}
    for path in root.rglob("*"):
        mode = path.lstat().st_mode
        found[path] = (path.read_bytes() if S_ISREG(mode) else
                       os.readlink(path) if S_ISLNK(mode) else S_IFMT(mode))
    return found


def roster(*rows):
    """A roster's bytes: the header, then a row for each (register_no, map_path)."""
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows(
        [("register_no", "name", "department", "semester", "subject", "map_path"),
         *((register_no, "a", "d", "s", "sub", map_path) for register_no, map_path in rows)])
    return table.getvalue().encode("utf-8")


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


def swap(argv, old, new):
    return [new if arg == old else arg for arg in argv]


# A tree maps a path, relative to the directory a row runs in, to what is made
# there before the run, in order: bytes (a file), DIR, FIFO (no process opens
# it), ("fifo", data) (a thread reads it to its end, and it must deliver
# `data`), ("symlink", path) or ("hardlink", path) to another entry; or to
# ("made", data): nothing, but the run makes it, a file of `data` unless None.
DIR, FIFO, MADE = ("dir",), ("fifo", None), ("made", None)
GOLDEN_TEXT = (GOLDEN_DIR / "sample_report.txt").read_bytes()
GOLDEN_JSON = (GOLDEN_DIR / "sample_report.json").read_bytes()
STUDENT_DOC = json.loads((DATA_DIR / "student_map.json").read_bytes())
INPUTS = {"teacher.json": (DATA_DIR / "teacher_map.json").read_bytes(),
          "student.json": (DATA_DIR / "student_map.json").read_bytes(),
          "roster.csv": roster(("CSE001", "student.json")), "victim.txt": b"victim\n"}
ANALYZE = ["analyze", "--teacher", "teacher.json", "--student", "student.json"]
BATCH = ["batch", "--teacher", "teacher.json", "--roster", "roster.csv", "--out-dir", "out"]
VALIDATE = ["validate", "teacher.json"]
FSIZE = {"fsize": 2048, "env": {"PYTHONDONTWRITEBYTECODE": "1"}}  # a 2048-byte file size limit
SUBJECTS_DIFFER = "subjects differ: teacher 'Data Structures', student 'Computer Networks'"
OTHER_SUBJECT = json.dumps({**STUDENT_DOC, "subject": "Computer Networks"}).encode("utf-8")
# JSON can spell a lone surrogate, which no UTF-8 report can hold.
SURROGATE = json.dumps({**STUDENT_DOC, "nodes": [
    *STUDENT_DOC["nodes"], {"id": "U\ud800", "parent": "S1"}, {"id": "C99", "parent": "U\ud800"}]},
).encode("ascii")
SURROGATE_LINE = f"surrogate.json: nodes[{len(STUDENT_DOC['nodes'])}].id is not valid UTF-8 text"
TWO_ROOTS = b'{"subject":"x","nodes":[{"id":"A","parent":null},{"id":"B","parent":null}]}'
UMLAUT = json.dumps({"subject": "x", "nodes": [{"id": "S", "parent": None}, {
    "id": "Ü1", "parent": "S"}, {"id": "C", "parent": "Ü1"}]}).encode("utf-8")
TOO_LONG = "R" * 300  # for a file name
LONG_NAME = {**INPUTS, "roster.csv": roster(("CSE001", "student.json"), (TOO_LONG, "student.json"))}


def map_rows(stem, content, status, reason):
    """The rows of the map file `<stem>.json`: as the map `validate` checks, as
    `analyze`'s teacher and student, and as the student of a one-row `batch`."""
    name = f"{stem}.json"
    tree, line = {**INPUTS, name: content}, f"{name}: {reason}"
    return {f"{stem}-validate": (["validate", name], tree, {}, status, line),
            f"{stem}-teacher": (swap(ANALYZE, "teacher.json", name), tree, {}, status, line),
            f"{stem}-student": (swap(ANALYZE, "student.json", name), tree, {}, status, line),
            f"{stem}-batch": (BATCH, {**tree, "roster.csv": roster(("R1", name)), "out": MADE}, {},
                              status, f"student R1: {line}")}


def unsafe_register_no(register_no, content=None):
    """The row of a roster whose second student has `register_no`."""
    content = content or roster(("R1", "student.json"), (register_no, "student.json"))
    return (BATCH, {**INPUTS, "roster.csv": content}, {}, 2,
            f"roster.csv: line 3: register_no {register_no!r} is not a safe file name")


def output_entry(output, entry, fault):
    """The row of a `batch` whose report or summary in --out-dir is `entry`."""
    name, who = {"report": ("CSE001.text", "register_no 'CSE001'"),
                 "summary": ("cohort_summary.csv", "cohort_summary.csv")}[output]
    at = f" out/{name}" * fault.startswith("would write")
    return BATCH, {**INPUTS, f"out/{name}": entry}, {}, 2, f"roster.csv: {who} {fault}{at}"


def unreadable_roster(content, detail):
    return BATCH, {**INPUTS, "roster.csv": content}, {}, 2, f"roster.csv: {detail}"


def unread(argv, tree, path, student=""):
    """The row of a run whose input `path` is missing or not a regular file."""
    return argv, tree, {}, 2, f"{student}{path}: missing or not a regular file"


HEADER = roster()
LINKS = {"symlink": "would write through symlink", "hardlink": "would write through hard link"}
NOT_REGULAR = "would write over a non-regular file"
WITH_FIFO = {**INPUTS, "fifo": FIFO}
FIFO_TEST = "TestHostileMapFiles::test_fifo_map_exits_2_without_blocking"
BATCH_TEST = "TestBatchCommand::test_"
# id -> (argv, tree, process, exit status, stderr line less "error: ").  Each
# row runs in a directory of its own that holds its tree; `process` is what a
# process of its own gets: "stdout" and "stderr" ("closed", "full" for
# /dev/full, "broken" for a pipe whose reader is gone, "read-only" for a stream
# a write fails on; a pipe when not given), an "fsize" limit in bytes, and an
# "env" to add.  An id ``Class::test[case]`` or ``test[case]`` (or one with no
# case) is collected as that test, and any other id as test_fault_matrix[id];
# an id whose row is another id's is that row under a second name.  The line
# is "" where stderr is not a pipe.
FAULT_MATRIX = {
    "no-fault": (BATCH, {**INPUTS, "out": MADE, "out/CSE001.text": ("made", GOLDEN_TEXT),
                         "out/cohort_summary.csv": MADE}, {}, 0, ""),
    # The standard streams.
    "stdout-closed": (ANALYZE, INPUTS, {"stdout": "closed"}, 2, "stdout is closed"),
    "test_closed_stdout_exits_2[analyze]": "stdout-closed",
    "test_closed_stdout_exits_2[validate]": (VALIDATE, INPUTS, {"stdout": "closed"}, 2,
                                             "stdout is closed"),
    "stderr-closed": (["validate", "absent.json"], INPUTS, {"stderr": "closed"}, 2, ""),
    "both-closed": (ANALYZE, INPUTS, {"stdout": "closed", "stderr": "closed"}, 2, ""),
    "stderr-fails": (["validate", "absent.json"], INPUTS, {"stderr": "read-only"}, 2, ""),
    "stdout-full": (ANALYZE, INPUTS, {"stdout": "full"}, 2,
                    "stdout could not be written: No space left on device"),
    "validate-stdout-full": (VALIDATE, INPUTS, {"stdout": "full"}, 2,
                             "stdout could not be written: No space left on device"),
    "stdout-pipe-closed": (ANALYZE, INPUTS, {"stdout": "broken"}, 2,
                           "stdout could not be written: Broken pipe"),
    # A stdout whose encoding cannot hold the text (an id and a file name with Ü) takes nothing.
    "test_stdout_that_cannot_encode_exits_2[analyze]": (
        ["analyze", "--teacher", "Ü.json", "--student", "Ü.json"], {"Ü.json": UMLAUT},
        {"env": {"PYTHONIOENCODING": "ascii"}}, 2, "stdout cannot encode '\\xdc' as ascii"),
    "test_stdout_that_cannot_encode_exits_2[validate]": (
        ["validate", "Ü.json"], {"Ü.json": UMLAUT}, {"env": {"PYTHONIOENCODING": "ascii"}},
        2, "stdout cannot encode '\\xdc' as ascii"),
    # `analyze --out`.
    "out-full": ([*ANALYZE, "--out", "/dev/full"], INPUTS, {}, 2,
                 "--out /dev/full could not be written: No space left on device"),
    **{f"TestAnalyzeCommand::test_out_would_overwrite_an_input[{role}]": (
        [*ANALYZE, "--out", f"sub/../{role}.json"], {**INPUTS, "sub": DIR}, {}, 2,
        f"--out sub/../{role}.json would overwrite input {role}.json")
       for role in ("teacher", "student")},
    **{f"TestAnalyzeCommand::test_out_links_to_an_input[{role}-{kind}]": (
        [*ANALYZE, "--out", "out.txt"], {**INPUTS, "out.txt": (kind, f"{role}.json")}, {}, 2,
        f"--out out.txt would overwrite input {role}.json")
       for role in ("teacher", "student") for kind in ("symlink", "hardlink")},
    "TestAnalyzeCommand::test_out_that_cannot_be_written[directory]": (
        [*ANALYZE, "--out", "odir"], {**INPUTS, "odir": DIR}, {}, 2,
        "--out odir could not be written: Is a directory"),
    "TestAnalyzeCommand::test_out_that_cannot_be_written[no-parent]": (
        [*ANALYZE, "--out", "nodir/x.txt"], INPUTS, {}, 2,
        "--out nodir/x.txt could not be written: No such file or directory"),
    # A control character or line break in a line is written as its Python escape.
    "out-nul": ([*ANALYZE, "--out", "out\0x"], INPUTS, {}, 2,
                "--out out\\x00x could not be written: path holds a NUL character"),
    "out-carriage-return": ([*ANALYZE, "--out", "nodir/a\rb.txt"], INPUTS, {}, 2,
                            "--out nodir/a\\rb.txt could not be written: "
                            "No such file or directory"),
    # Cut short at the file size limit: the partial file is removed, but never a link.
    "TestBatchCommand::test_write_cut_short_leaves_no_partial_report[analyze]": (
        [*ANALYZE, "--format", "json", "--out", "r.json"], INPUTS, FSIZE, 2,
        "--out r.json could not be written: File too large"),
    # r.json is a hard link to a file that holds the report's first 2048 bytes,
    # which the cut-short write leaves as they were.
    "out-hardlink-cut-short": (
        [*ANALYZE, "--format", "json", "--out", "r.json"],
        {**INPUTS, "cut.json": GOLDEN_JSON[:2048], "r.json": ("hardlink", "cut.json")}, FSIZE, 2,
        "--out r.json could not be written: File too large"),
    # A FIFO that another process reads gets the whole report.
    "out-fifo-read": ([*ANALYZE, "--out", "report.fifo"],
                      {**INPUTS, "report.fifo": ("fifo", GOLDEN_TEXT)}, {}, 0, ""),
    # The outputs of `batch` in --out-dir, refused before anything is written.
    **{f"{output}-{kind}": output_entry(output, (kind, "victim.txt"), fault)
       for output in ("report", "summary") for kind, fault in LINKS.items()},
    **{f"{BATCH_TEST}output_links_to_an_input[{output}-{kind}]": output_entry(
        output, (kind, target), f"would overwrite input {target}")
       for output, target in (("report", "student.json"), ("summary", "roster.csv"))
       for kind in LINKS},
    f"{BATCH_TEST}output_links_to_an_input[report-loop]": output_entry(
        "report", ("symlink", "out/CSE001.text"), LINKS["symlink"]),
    f"{BATCH_TEST}output_links_to_an_input[summary-loop]": output_entry(
        "summary", ("symlink", "out/cohort_summary.csv"), LINKS["symlink"]),
    f"{BATCH_TEST}output_links_to_an_input[report-outside]": "report-symlink",
    f"{BATCH_TEST}output_links_to_an_input[report-outside-hardlink]": "report-hardlink",
    f"{BATCH_TEST}output_links_to_an_input[summary-outside]": "summary-symlink",
    f"{BATCH_TEST}output_links_to_an_input[summary-outside-hardlink]": "summary-hardlink",
    "report-fifo": output_entry("report", FIFO, NOT_REGULAR),
    f"{BATCH_TEST}fifo_at_report": "report-fifo",
    "report-directory": output_entry("report", DIR, NOT_REGULAR),
    "summary-directory": output_entry("summary", DIR, NOT_REGULAR),
    f"{BATCH_TEST}directory_at_second_report": (
        BATCH, {**INPUTS, "out/CSE002.text": DIR,
                "roster.csv": roster(("CSE001", "student.json"), ("CSE002", "student.json"))},
        {}, 2,
        f"roster.csv: register_no 'CSE002' {NOT_REGULAR} out/CSE002.text"),
    **{f"{BATCH_TEST}report_would_overwrite_an_input[{register_no}-{report_format}]": (
        ["batch", "--teacher", "teacher_map.json", "--roster", "roster.csv", "--out-dir", ".",
         "--format", report_format],
        {"teacher_map.json": INPUTS["teacher.json"], "student_map.json": INPUTS["student.json"],
         "roster.csv": roster(("R1", "student_map.json"), (register_no, "student_map.json"))},
        {}, 2,
        f"roster.csv: register_no {register_no!r} would overwrite input "
        f"{register_no}.{report_format}")
       for register_no, report_format in (("teacher_map", "json"), ("student_map", "json"),
                                          ("roster", "csv"))},
    f"{BATCH_TEST}summary_would_overwrite_an_input[teacher]": (
        swap(BATCH, "teacher.json", "out/cohort_summary.csv"),
        {**INPUTS, "out/cohort_summary.csv": INPUTS["teacher.json"]}, {}, 2,
        "roster.csv: cohort_summary.csv would overwrite input out/cohort_summary.csv"),
    f"{BATCH_TEST}summary_would_overwrite_an_input[roster]": (
        swap(BATCH, "roster.csv", "out/cohort_summary.csv"),
        {**INPUTS, "out/cohort_summary.csv": INPUTS["roster.csv"]}, {}, 2,
        "out/cohort_summary.csv: cohort_summary.csv would overwrite input out/cohort_summary.csv"),
    f"{BATCH_TEST}summary_would_overwrite_an_input[student_map]": (
        BATCH, {**INPUTS, "roster.csv": roster(("CSE001", "out/cohort_summary.csv")),
                "out/cohort_summary.csv": INPUTS["student.json"]}, {}, 2,
        "roster.csv: cohort_summary.csv would overwrite input out/cohort_summary.csv"),
    # An output whose stat fails but not as "no such file", also under a new --out-dir.
    "out-dir-is-a-file": (swap(BATCH, "out", "victim.txt"), INPUTS, {}, 2,
                          "roster.csv: cohort_summary.csv could not be written: Not a directory"),
    "out-dir-under-a-file": (
        swap(BATCH, "out", "victim.txt/out"), INPUTS, {}, 2,
        "roster.csv: cohort_summary.csv could not be written: Not a directory"),
    f"{BATCH_TEST}out_dir_is_not_a_directory[file]": "out-dir-is-a-file",
    f"{BATCH_TEST}out_dir_is_not_a_directory[under-file]": "out-dir-under-a-file",
    "out-dir-nul": (swap(BATCH, "out", "out\0x"), INPUTS, {}, 2,
                    "roster.csv: cohort_summary.csv could not be written: "
                    "path holds a NUL character"),
    f"{BATCH_TEST}register_no_too_long_for_a_file_name": (
        BATCH, {**LONG_NAME, "out": DIR}, {}, 2,
        f"roster.csv: register_no {TOO_LONG!r} could not be written: File name too long"),
    "register-no-too-long-new-out-dir": (
        swap(BATCH, "out", "new/out"), LONG_NAME, {}, 2,
        f"roster.csv: register_no {TOO_LONG!r} could not be written: File name too long"),
    f"{BATCH_TEST}write_cut_short_leaves_no_partial_report[batch]": (
        [*BATCH, "--format", "json"], {**INPUTS, "out": MADE}, FSIZE, 2,
        "roster.csv: register_no 'CSE001' could not be written: File too large"),
    # Input files that are missing or not regular files: a FIFO's read would block.
    "teacher-absent": unread(swap(ANALYZE, "teacher.json", "absent.json"), INPUTS, "absent.json"),
    "TestAnalyzeCommand::test_missing_teacher_map_exits_2": unread(
        [*swap(ANALYZE, "teacher.json", "absent.json"), "--out", "never.txt"], INPUTS,
        "absent.json"),
    f"{BATCH_TEST}bad_teacher_map_leaves_no_out_dir": unread(
        swap(swap(BATCH, "teacher.json", "absent.json"), "out", "new/out"), INPUTS, "absent.json"),
    f"{BATCH_TEST}roster_of_only_the_header[missing-teacher]": unread(
        swap(swap(BATCH, "teacher.json", "absent.json"), "out", "new/out"),
        {**INPUTS, "roster.csv": HEADER}, "absent.json"),
    f"{BATCH_TEST}roster_of_only_the_header[teacher]": (
        swap(BATCH, "out", "new/out"),
        {**INPUTS, "roster.csv": HEADER, "new": MADE, "new/out": MADE,
         "new/out/cohort_summary.csv": ("made", b"register_no,expected_result,grades\n")},
        {}, 0, ""),
    "student-absent": unread(BATCH, {**INPUTS, "roster.csv": roster(("CSE001", "absent.json")),
                                     "out": MADE}, "absent.json", "student CSE001: "),
    f"{BATCH_TEST}missing_student_map_names_register_and_path[missing]": "student-absent",
    f"{BATCH_TEST}missing_student_map_names_register_and_path[directory]": unread(
        BATCH, {**INPUTS, "roster.csv": roster(("CSE001", "nowhere.json")), "nowhere.json": DIR,
                "out": MADE}, "nowhere.json", "student CSE001: "),
    "roster-absent": unread(swap(BATCH, "roster.csv", "absent.json"), INPUTS, "absent.json"),
    "validate-absent": unread(["validate", "absent.json"], INPUTS, "absent.json"),
    "TestValidateCommand::test_missing_file": "validate-absent",
    "teacher-fifo": unread(swap(ANALYZE, "teacher.json", "fifo"), WITH_FIFO, "fifo"),
    "student-fifo": unread(BATCH, {**WITH_FIFO, "roster.csv": roster(("CSE001", "fifo")),
                                   "out": MADE}, "fifo", "student CSE001: "),
    "roster-fifo": unread(swap(BATCH, "roster.csv", "fifo"), WITH_FIFO, "fifo"),
    "validate-fifo": unread(["validate", "fifo"], WITH_FIFO, "fifo"),
    f"{FIFO_TEST}[analyze-teacher]": "teacher-fifo",
    f"{FIFO_TEST}[analyze-student]": unread(swap(ANALYZE, "student.json", "fifo"), WITH_FIFO,
                                            "fifo"),
    f"{FIFO_TEST}[batch-teacher]": unread(swap(BATCH, "teacher.json", "fifo"), WITH_FIFO, "fifo"),
    f"{FIFO_TEST}[batch-student]": "student-fifo",
    f"{FIFO_TEST}[batch-roster]": "roster-fifo",
    f"{FIFO_TEST}[validate-map]": "validate-fifo",
    "teacher-nul": unread(swap(ANALYZE, "teacher.json", "t\0.json"), INPUTS, "t\\x00.json"),
    "validate-nul": unread(["validate", "t\0.json"], INPUTS, "t\\x00.json"),
    "maps-dir-nul": unread([*BATCH, "--maps-dir", "m\0"], {**INPUTS, "out": MADE},
                           "m\\x00/student.json", "student CSE001: "),
    "validate-newline": unread(["validate", "no\nsuch.json"], INPUTS, "no\\nsuch.json"),
    "validate-line-separator": unread(["validate", "no\u2028such.json"], INPUTS,
                                      "no\\u2028such.json"),
    # Map files that are malformed (exit 2) or invalid (exit 1).
    **map_rows("deep", b"[" * 100_000, 2, "JSON nested too deeply"),
    **map_rows("utf16", b"\xff\xfe" + '{"nodes": []}'.encode("utf-16-le"), 2,
               "not UTF-8 text: invalid start byte at byte 0"),
    # ASCII JSON in UTF-16 with no byte order mark is UTF-8 with NULs.
    **map_rows("utf16le", INPUTS["teacher.json"].decode("utf-8").encode("utf-16-le"), 2,
               "NUL character at index 1: not UTF-8 JSON (UTF-16 or UTF-32?)"),
    **map_rows("tworoots", TWO_ROOTS, 1, "multiple root nodes: ['A', 'B']"),
    "TestHostileMapFiles::test_deeply_nested_json": "deep-batch",
    "TestHostileMapFiles::test_non_utf8_file": "utf16-batch",
    "TestHostileMapFiles::test_utf16_without_byte_order_mark": "utf16le-batch",
    "TestHostileMapFiles::test_two_roots": "tworoots-batch",
    "TestValidateCommand::test_invalid_map": "tworoots-validate",
    "TestValidateCommand::test_unparseable_map": (
        ["validate", "bad.json"], {**INPUTS, "bad.json": b"{"}, {}, 2,
        "bad.json: invalid JSON at line 1, column 2: Expecting property name enclosed in double "
        "quotes"),
    "TestByteOrderMark::test_only_one_mark_is_skipped": (
        ["validate", "twice.json"],
        {**INPUTS, "twice.json": b"\xef\xbb\xbf" * 2 + INPUTS["teacher.json"]}, {}, 2,
        "twice.json: invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using "
        "utf-8-sig)"),
    "TestAnalyzeCommand::test_invalid_student_map_exits_1": (
        swap(ANALYZE, "student.json", "cycle.json"),
        {**INPUTS, "cycle.json": b'{"subject":"x","nodes":[{"id":"A","parent":"B"},'
                                 b'{"id":"B","parent":"A"}]}'}, {}, 1,
        "cycle.json: cycle among nodes: A -> B -> A"),
    "TestAnalyzeCommand::test_student_map_of_another_subject_exits_1": (
        swap(ANALYZE, "student.json", "other.json"), {**INPUTS, "other.json": OTHER_SUBJECT}, {}, 1,
        SUBJECTS_DIFFER),
    f"{BATCH_TEST}student_map_of_another_subject_names_register": (
        BATCH, {**INPUTS, "other.json": OTHER_SUBJECT, "roster.csv": roster(("R1", "other.json")),
                "out": MADE}, {}, 1, f"student R1: {SUBJECTS_DIFFER}"),
    # A lone surrogate: every command exits 2 and writes nothing, and --out keeps its bytes.
    **{f"surrogate-{report_format}{out}": (
        [*swap(ANALYZE, "student.json", "surrogate.json"), "--format", report_format,
         *["--out", "report"] * bool(out)],
        {**INPUTS, "surrogate.json": SURROGATE, "report": b"kept\n"}, {}, 2, SURROGATE_LINE)
       for report_format in REPORT_FORMATS for out in ("", "-out")},
    "surrogate-validate": (["validate", "surrogate.json"], {**INPUTS, "surrogate.json": SURROGATE},
                           {}, 2, SURROGATE_LINE),
    "TestHostileMapFiles::test_lone_surrogate_id": (
        BATCH, {**INPUTS, "surrogate.json": SURROGATE, "out": MADE,
                "roster.csv": roster(("R1", "surrogate.json"))}, {}, 2,
        f"student R1: {SURROGATE_LINE}"),
    # Rosters, refused before anything is written.  DEL and NEL are control characters.
    **{f"{BATCH_TEST}unsafe_register_no_rejected[{register_no}]": unsafe_register_no(register_no)
       for register_no in ("../escaped", "a/b", "a\\b", ".", "..", "CSE\n01", "R\x7f1", "R\x851")},
    f"{BATCH_TEST}unsafe_register_no_rejected[CSE\x0001]": unsafe_register_no(
        "CSE\x0001", HEADER + b"R1,a,d,s,sub,student.json\nCSE\x0001,b,d,s,sub,student.json\n"),
    # Its csv report would be overwritten by the cohort summary.
    f"{BATCH_TEST}unsafe_register_no_rejected[cohort_summary-csv]": (
        [*BATCH, "--format", "csv"],
        {**INPUTS, "roster.csv": roster(("R1", "student.json"),
                                        ("cohort_summary", "student.json"))}, {}, 2,
        "roster.csv: register_no 'cohort_summary' would overwrite cohort_summary.csv"),
    "map-path-nul": unreadable_roster(HEADER + b"R1,a,d,s,sub,st\0x.json\n",
                                      "line 2: map_path holds a NUL character"),
    f"{BATCH_TEST}unreadable_roster[not-utf8]": unreadable_roster(
        HEADER + b"R\xff1,a,d,s,sub,m.json\n", "not UTF-8 text: invalid start byte at byte 55"),
    f"{BATCH_TEST}unreadable_roster[oversize-field]": unreadable_roster(
        HEADER + b'R1,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n',
        f"line 2: field larger than field limit ({csv.field_size_limit()})"),
    f"{BATCH_TEST}unreadable_roster[short-row]": unreadable_roster(
        HEADER + b"R1,a\n", "line 2: missing cell(s): department, semester, subject, map_path"),
    # A record starts on the line after the previous one's end: a quoted newline spans lines.
    f"{BATCH_TEST}unreadable_roster[quoted-newline]": unreadable_roster(
        HEADER + b'R1,"a\nb",d,s,sub,m.json\n,c,d,s,sub,m.json\n', "line 4: empty register_no"),
    f"{BATCH_TEST}unreadable_roster[bad-record-spans-lines]": unreadable_roster(
        HEADER + b'R1,"a\nb",d,s,sub,m.json\n,"c\nd",d,s,sub,m.json\n',
        "line 4: empty register_no"),
    f"{BATCH_TEST}unreadable_roster[long-row]": unreadable_roster(
        HEADER + b"CSE001,Smith,CSE,S5,Sub,student.json,extra\n",
        "line 2: 1 cell(s) past the header"),
    f"{BATCH_TEST}roster_named_as_given": (
        ["batch", "--teacher", "teacher.json", "--roster", "./bad.csv"],
        {**INPUTS, "bad.csv": b"a,b\n"}, {}, 2,
        "./bad.csv: missing column(s): register_no, name, department, semester, subject, map_path"),
}


def row_of(key):
    row = FAULT_MATRIX[key]
    return FAULT_MATRIX[row] if isinstance(row, str) else row


def kind(entry):
    return "file" if isinstance(entry, bytes) else entry[0]


def make_tree(root, tree):
    """Make each entry of `tree` under `root`, in order, with its parent directories."""
    for name, entry in tree.items():
        path = root / name
        if kind(entry) != "made":
            path.parent.mkdir(parents=True, exist_ok=True)
        if kind(entry) == "file":
            path.write_bytes(entry)
        elif kind(entry) == "dir":
            path.mkdir()
        elif kind(entry) == "fifo":
            os.mkfifo(path)
        elif kind(entry) == "symlink":  # by a relative path
            path.symlink_to(os.path.relpath(root / entry[1], path.parent))
        elif kind(entry) == "hardlink":
            os.link(root / entry[1], path)


def run_row(cwd, argv, process, fifos):
    """Run `argv` by `run_cli` in `cwd`, as `process` says, while a thread reads
    each of `fifos` to its end.  Return the exit status, stdout and stderr
    (None where they are not a pipe) and what each FIFO delivered."""
    delivered = {}
    readers = [threading.Thread(target=lambda fifo=fifo: delivered.update(
        {fifo: fifo.read_bytes()}), daemon=True) for fifo in fifos]
    streams = [process.get("stdout", "pipe"), process.get("stderr", "pipe")]
    limit = process.get("fsize")
    with contextlib.ExitStack() as stack:
        kinds = {"pipe": subprocess.PIPE, "closed": None,
                 "full": stack.enter_context(open("/dev/full", "wb")),
                 "read-only": stack.enter_context(open(os.devnull, "rb"))}
        reader, kinds["broken"] = os.pipe()
        os.close(reader)
        stack.callback(os.close, kinds["broken"])
        for thread in readers:
            thread.start()
        closed = [fd for fd, stream in zip((1, 2), streams) if stream == "closed"]
        done = run_cli(argv, closed=closed, env_extra=process.get("env", {}), cwd=cwd,
                       stdout=kinds[streams[0]], stderr=kinds[streams[1]], preexec_fn=limit and (
                           lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))))
    for fifo, thread in zip(fifos, readers):
        with contextlib.suppress(OSError):  # a reader that no writer met gets end of file
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        thread.join(timeout=60)
    out, err = (None if data is None else data.decode() for data in (done.stdout, done.stderr))
    return done.returncode, out, err, delivered


def check_row(key, tmp_path, monkeypatch, capsys):
    """Run the row `key` of FAULT_MATRIX in `tmp_path` and check it: the exit
    status; nothing on stdout; on a stderr that is a pipe, exactly the row's
    one ``error:`` line (so no traceback), or nothing on success; each FIFO
    read delivered its bytes; every entry under `tmp_path` is still there, a
    file with its bytes and a symlink with its target, and the run made no
    entry but those the tree marks as made; /dev/full is still a device.  The
    row runs in-process unless it needs a process of its own: a FIFO in its
    tree (so that a run that blocks fails by `run_cli`'s timeout), a standard
    stream that is not a pipe, a file size limit or an environment variable."""
    argv, tree, process, status, line = row_of(key)
    make_tree(tmp_path, tree)
    before = entries(tmp_path)
    fifos = {tmp_path / name: entry[1] for name, entry in tree.items()
             if kind(entry) == "fifo" and entry[1] is not None}
    if process or any(kind(entry) == "fifo" for entry in tree.values()):
        code, out, err, delivered = run_row(tmp_path, argv, process, list(fifos))
    else:
        monkeypatch.chdir(tmp_path)
        code, (out, err), delivered = main(argv), capsys.readouterr(), {}
    assert code == status
    assert out in ("", None)
    if err is not None:
        assert err == (f"error: {line}\n" if status else "")
    assert delivered == fifos
    after = entries(tmp_path)
    made = {tmp_path / name: entry[1] for name, entry in tree.items() if kind(entry) == "made"}
    assert set(after) == set(before) | set(made)
    assert {path: after[path] for path in before} == before
    assert all(after[path] == data for path, data in made.items() if data is not None)
    assert Path("/dev/full").is_char_device()  # a failed write removes only a regular file


CSV_NUL = pytest.mark.skipif(sys.version_info < (3, 11),
                             reason="before 3.11 the csv module rejects NUL itself")


def marks(key):
    """CSV_NUL for a row with a NUL in a roster."""
    rosters = [entry for name, entry in row_of(key)[1].items() if name.endswith(".csv")]
    return [CSV_NUL] if any(kind(entry) == "file" and b"\0" in entry for entry in rosters) else []


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


class TestValidateCommand:
    def test_valid_map(self, capsys):
        for path in (TEACHER, STUDENT):
            assert main(["validate", path]) == 0
            assert capsys.readouterr() == (f"valid: {path}\n", "")


class TestHostileMapFiles:
    """Malformed map files end in exit 2, invalid ones in exit 1, with one
    diagnostic line that names the file once: rows of FAULT_MATRIX."""


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

    @staticmethod
    def stop_batch(tmp_path, signum):
        """Send `signum` once the first report exists to a batch that would run
        for seconds; return its status, stdout, and the count that its one
        stderr line gives of the reports written."""
        students = 10_000
        roster_path, out_dir = tmp_path / "roster.csv", tmp_path / "out"
        roster_path.write_bytes(roster(*((f"R{i:05}", STUDENT) for i in range(students))))
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        argv = [sys.executable, "-m", "roughmap", "batch", "--teacher", TEACHER,
                "--roster", str(roster_path), "--out-dir", str(out_dir)]
        # An inherited "ignore SIGINT", as in a background job, would keep Python's handler off.
        with subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)) as proc:
            while not (out_dir / "R00000.text").exists() and proc.poll() is None:
                time.sleep(0.001)  # polls for the report; the signal is not timed by a sleep
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
        match = re.fullmatch(rf"error: interrupted after (\d+) of {students} students\n", stderr)
        assert match, stderr
        written = int(match[1])
        reports = [path for path in out_dir.iterdir() if path.suffix == ".text"]
        assert written <= len(reports) <= written + 1
        assert not (out_dir / "cohort_summary.csv").exists()
        return proc.returncode, stdout

    def test_interrupted_batch(self, tmp_path):
        """SIGINT: exit 130 and one line that counts the reports written.  A
        report is written whole or not at all, but the signal may come after
        a report is written and before it is counted."""
        assert self.stop_batch(tmp_path, signal.SIGINT) == (130, "")

    def test_terminated_batch(self, tmp_path):
        """SIGTERM, as `kill` and service managers send: exit 143, one line."""
        assert self.stop_batch(tmp_path, signal.SIGTERM) == (143, "")

    def test_stop_while_writing(self, tmp_path, capsys, monkeypatch):
        """An interrupt during a report's write removes that report, also one
        that an earlier run wrote, and the run's SIGTERM handler is gone."""
        out_dir, real_write = tmp_path / "out", os.write
        argv = ["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
                "--out-dir", str(out_dir)]
        handler = signal.getsignal(signal.SIGTERM)
        assert main(argv) == 0

        def stopped(fd, data):
            real_write(fd, data[:10])
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "write", stopped)
        assert main(argv) == 130
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "error: interrupted after 0 of 2 students\n")
        assert sorted(path.name for path in out_dir.iterdir()) == ["CSE002.text",
                                                                   "cohort_summary.csv"]
        assert signal.getsignal(signal.SIGTERM) == handler

    def test_run_off_the_main_thread(self, capsys):
        """Where no signal handler can be set, a run goes on without one."""
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(["validate", TEACHER])))
        thread.start()
        thread.join()
        assert (codes, capsys.readouterr()) == ([0], (f"valid: {TEACHER}\n", ""))

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

    def test_roster(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(roster(("R1", "student_map.json")))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, marked):
            code = main(["batch", "--teacher", TEACHER, "--roster", str(path),
                         "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / path.stem)])
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

    @pytest.mark.parametrize("output, who", [("CSE001.text", "register_no 'CSE001'"),
                                             ("cohort_summary.csv", "cohort_summary.csv")])
    def test_write_fault_names_the_output(self, tmp_path, monkeypatch, capsys, output, who):
        """A write that fails past the output guard, here on a full disk,
        names the output and the system's reason, in one line."""
        real_open, real_write, names = os.open, os.write, {}

        def spied_open(name, *args, **kwargs):
            fd = real_open(name, *args, **kwargs)
            names[fd] = os.path.basename(name)
            return fd

        def full(fd, data):
            if names.get(fd) == output:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        monkeypatch.setattr(os, "open", spied_open)
        monkeypatch.setattr(os, "write", full)
        assert main(["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", f"error: {ROSTER}: {who} could not be written: {os.strerror(errno.ENOSPC)}\n")

    def test_two_identical_students(self, tmp_path):
        roster_path = tmp_path / "roster.csv"
        roster_path.write_bytes(roster(("R1", "student_map.json"), ("R2", "student_map.json")))
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster_path),
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
        rows = [("R1", "student_map.json"), ("R2", "teacher_map.json")]
        forward.write_bytes(roster(*rows))
        backward.write_bytes(roster(*rows[::-1]))
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

    @pytest.mark.parametrize("command", ["batch", "analyze", "analyze-hardlink"])
    def test_links_written_through(self, tmp_path, command):
        """A symlinked --out-dir, and an `analyze --out` that is a symlink or
        a hard link to a file that is not an input, are written through."""
        target = tmp_path / "target"
        if command == "batch":
            make_tree(tmp_path, {"target": DIR, "out": ("symlink", "target")})
            argv = ["batch", "--teacher", TEACHER, "--roster", str(DATA_DIR / "roster.csv"),
                    "--maps-dir", str(DATA_DIR), "--out-dir", str(tmp_path / "out")]
            written = target / "CSE001.text"
        else:
            link = "hardlink" if command == "analyze-hardlink" else "symlink"
            make_tree(tmp_path, {"target": b"old\n", "out": (link, "target")})
            argv = ["analyze", "--teacher", TEACHER, "--student", STUDENT,
                    "--out", str(tmp_path / "out")]
            written = target
        assert main(argv) == 0
        assert written.read_bytes() == GOLDEN_TEXT

    def test_input_named_report_in_another_directory(self, tmp_path):
        roster_path = tmp_path / "roster.csv"
        roster_path.write_bytes(roster(("teacher_map", "student_map.json")))
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster_path),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "json"])
        assert code == 0
        assert json.loads((out_dir / "teacher_map.json").read_text(encoding="utf-8"))

    def test_summary_named_register_no_in_another_format(self, tmp_path):
        roster_path = tmp_path / "roster.csv"
        roster_path.write_bytes(roster(("cohort_summary", "student_map.json")))
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster_path),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "text"])
        assert code == 0
        assert (out_dir / "cohort_summary.text").read_bytes() == GOLDEN_TEXT
        summary = (out_dir / "cohort_summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary == ["register_no,expected_result,grades",
                           "cohort_summary,0.548,U1=B;U2=C;U3=A;U4=B;U5=C"]

    def test_json_format_files(self, tmp_path):
        roster_path = tmp_path / "roster.csv"
        roster_path.write_bytes(roster(("R1", "student_map.json")))
        out_dir = tmp_path / "out"
        main(["batch", "--teacher", TEACHER, "--roster", str(roster_path),
              "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "json"])
        doc = json.loads((out_dir / "R1.json").read_text(encoding="utf-8"))
        assert doc["expected_result_display"] == "0.548"


# Runs `main` on argv[4:] with a hook that, once student R2's report is
# written, makes at argv[1] what argv[3] names: a symlink or a hard link to
# argv[2], a FIFO, or ("swap") a symlink to argv[2] in place of the --out-dir
# argv[1], which is moved aside to argv[1] + ".old".
PLANT_AFTER_GUARD = """
import os, sys
from roughmap import fileio
from roughmap.cli import main

path, target, kind = sys.argv[1:4]
graded, calls = fileio._graded, []

def planting(*args):
    calls.append(args)
    if len(calls) == 3:
        if kind == "swap":
            os.rename(path, path + ".old")
        if kind == "fifo":
            os.mkfifo(path)
        elif kind == "hardlink":
            os.link(target, path)
        else:
            os.symlink(target, path)
    return graded(*args)

fileio._graded = planting
sys.exit(main(sys.argv[4:]))
"""


class TestPlantedAfterGuard:
    """An entry planted in --out-dir after the output guard, before its
    output is written, is refused as the guard refuses it; nothing is
    written through it, and every file outside --out-dir keeps its bytes."""

    @staticmethod
    def run(tmp_path, path, target, kind):
        """`batch` of three students, R1 to R3, with the hook above."""
        argv = ["batch", "--teacher", str(tmp_path / "teacher_map.json"),
                "--roster", str(tmp_path / "roster.csv"), "--out-dir", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        return subprocess.run([sys.executable, "-c", PLANT_AFTER_GUARD, str(path), str(target),
                               kind, *argv], env=env, capture_output=True, text=True, timeout=60)

    @pytest.fixture
    def inputs(self, tmp_path):
        """The teacher map, the roster and a file that is not an input, by bytes."""
        make_tree(tmp_path, {"teacher_map.json": INPUTS["teacher.json"], "victim.txt": b"victim\n",
                             "roster.csv": roster(*((f"R{i}", STUDENT) for i in (1, 2, 3)))})
        return entries(tmp_path)

    @pytest.mark.parametrize("kind, refusal", [
        ("symlink", "would write through symlink"), ("hardlink", "would write through hard link"),
        ("fifo", "would write over a non-regular file")])
    @pytest.mark.parametrize("output, who", [("R3.text", "register_no 'R3'"),
                                             ("cohort_summary.csv", "cohort_summary.csv")])
    def test_entry(self, tmp_path, inputs, kind, refusal, output, who):
        """A symlink to a file outside --out-dir, a hard link to the teacher
        map, or a FIFO with no reader."""
        out_dir = tmp_path / "out"
        target = tmp_path / ("teacher_map.json" if kind == "hardlink" else "victim.txt")
        proc = self.run(tmp_path, out_dir / output, target, kind)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: {tmp_path / 'roster.csv'}: {who} {refusal} {out_dir / output}\n")
        assert {path: data for path, data in entries(tmp_path).items()
                if out_dir not in (path, *path.parents)} == inputs
        written = ["R1.text", "R2.text", "R3.text"][:2 if output == "R3.text" else 3]
        assert sorted(path.name for path in out_dir.iterdir()) == sorted([*written, output])
        assert all((out_dir / name).read_bytes() == GOLDEN_TEXT for name in written)

    def test_out_dir_swapped_for_a_symlink(self, tmp_path, inputs):
        """The run writes on in the directory it opened, under its new name."""
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        proc = self.run(tmp_path, tmp_path / "out", elsewhere, "swap")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert list(elsewhere.iterdir()) == []
        names = sorted(path.name for path in (tmp_path / "out.old").iterdir())
        assert names == ["R1.text", "R2.text", "R3.text", "cohort_summary.csv"]


# Runs `validate` on argv[1] with a hook that, once the program has looked at
# the map (by os.stat or os.fstat), moves it aside to argv[1] + ".old" and
# puts a FIFO with no writer in its place.
SWAP_AFTER_LOOK = """
import os, sys
from roughmap.cli import main

path, looked = sys.argv[1], []

def swapping(look):
    def looking(*args, **kwargs):
        result = look(*args, **kwargs)
        if not looked:
            looked.append(args)
            os.rename(path, path + ".old")
            os.mkfifo(path)
        return result
    return looking

os.stat, os.fstat = swapping(os.stat), swapping(os.fstat)
sys.exit(main(["validate", path]))
"""


def test_map_swapped_for_a_fifo_after_its_check(tmp_path):
    """The map read is the file checked: one swapped for a FIFO once it was
    checked is still read, and the read does not block."""
    path = tmp_path / "teacher.json"
    path.write_bytes(INPUTS["teacher.json"])
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SWAP_AFTER_LOOK, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"valid: {path}\n", "")
    assert path.is_fifo() and (tmp_path / "teacher.json.old").read_bytes() == INPUTS["teacher.json"]


def test_rewrite_over_longer_outputs(tmp_path):
    """Reports and a summary longer than the new ones are rewritten in place
    to the bytes of a run into an empty --out-dir."""
    argv = ["batch", "--teacher", TEACHER, "--roster", ROSTER, "--maps-dir", str(DATA_DIR),
            "--format", "json", "--out-dir"]
    assert main([*argv, str(tmp_path / "clean")]) == 0
    clean = {path.name: path.read_bytes() for path in (tmp_path / "clean").iterdir()}
    (tmp_path / "out").mkdir()
    for name, data in clean.items():
        (tmp_path / "out" / name).write_bytes(data * 3)
    assert main([*argv, str(tmp_path / "out")]) == 0
    assert {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()} == clean


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
            (tmp / "roster.csv").write_bytes(roster(("R1", student.name)))
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


def test_readme_fault_table_lines_are_rows():
    """Each example line of the README's table of faults is the line of a row."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    shown = re.findall(r"^\|.*\| `error: (.*)` \|$", readme, flags=re.M)
    assert len(shown) >= 10 and set(shown) <= {row_of(key)[4] for key in FAULT_MATRIX}


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
        assert len(readme) == 4 and readme == accepted[:4] and len(accepted) == 4 + 3
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


collect_rows(globals(), FAULT_MATRIX, check_row, "test_fault_matrix", marks)
