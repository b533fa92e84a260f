from __future__ import annotations

import csv
import json
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT
from roughmap.cli import main
from roughmap.grading import parse_report

TEACHER = str(DATA_DIR / "teacher_map.json")
STUDENT = str(DATA_DIR / "student_map.json")


def write_roster(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["register_no", "name", "department", "semester", "subject", "map_path"])
        writer.writerows(rows)


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


class TestValidateCommand:
    def test_valid_map(self, capsys):
        assert main(["validate", TEACHER]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subject":"x","nodes":[{"id":"A","parent":null},{"id":"B","parent":null}]}')
        assert main(["validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_unparseable_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


class TestHostileMapFiles:
    """Malformed map files end in exit 2 with one diagnostic line."""

    @staticmethod
    def _exits_2_with_one_line(map_path, capsys):
        for argv in (["validate", str(map_path)],
                     ["analyze", "--teacher", TEACHER, "--student", str(map_path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(map_path) in captured.err

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        self._exits_2_with_one_line(deep, capsys)

    def test_non_utf8_file(self, tmp_path, capsys):
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + '{"nodes": []}'.encode("utf-16-le"))
        self._exits_2_with_one_line(utf16, capsys)


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

    def test_missing_student_map_names_register_and_path(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R9", "a", "d", "s", "sub", "nowhere.json")])
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "R9" in err and "nowhere.json" in err

    @pytest.mark.parametrize("register_no,report_format", [
        *((name, "text") for name in ("../escaped", "a/b", "a\\b", ".", "..", "CSE\n01")),
        pytest.param("CSE\x0001", "text", marks=pytest.mark.skipif(
            sys.version_info < (3, 11),
            reason="before 3.11 the csv module rejects NUL itself (see test_unreadable_roster)")),
        # Its csv report would be overwritten by the cohort summary.
        ("cohort_summary", "csv"),
    ], ids=["../escaped", "a/b", "a\\b", ".", "..", "CSE\n01", "CSE\x0001", "cohort_summary-csv"])
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

    def test_summary_named_register_no_in_another_format(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("cohort_summary", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        code = main(["batch", "--teacher", TEACHER, "--roster", str(roster),
                     "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "text"])
        assert code == 0
        golden = (REPO_ROOT / "tests" / "golden" / "sample_report.txt").read_bytes()
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
    ], ids=["not-utf8", "oversize-field", "short-row", "quoted-newline", "bad-record-spans-lines"])
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

    def test_json_format_files(self, tmp_path):
        roster = tmp_path / "roster.csv"
        write_roster(roster, [("R1", "a", "d", "s", "sub", "student_map.json")])
        out_dir = tmp_path / "out"
        main(["batch", "--teacher", TEACHER, "--roster", str(roster),
              "--maps-dir", str(DATA_DIR), "--out-dir", str(out_dir), "--format", "json"])
        doc = json.loads((out_dir / "R1.json").read_text(encoding="utf-8"))
        assert doc["expected_result_display"] == "0.548"


class TestArgparseSurface:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--teacher", TEACHER, "--student", STUDENT, "--format", "pdf"])
        assert exc.value.code == 2
