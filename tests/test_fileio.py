from __future__ import annotations

import csv
import importlib
import json
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import DATA_DIR, REPO_ROOT, by_id
from roughmap.conceptmap import ConceptMap, MapNode, integrate, validate_map
from roughmap.errors import (
    DuplicateNodeError,
    DuplicateRegisterError,
    MapFileParseError,
    MapValidationError,
    RosterSchemaError,
    RoughMapError,
)
from roughmap.fileio import (
    parse_concept_map,
    parse_concept_map_file,
    parse_roster,
    run_analyze,
    run_batch,
)


class TestParseConceptMap:
    def test_minimal_file(self):
        cmap = parse_concept_map(b'{"subject":"demo","nodes":[{"id":"S1","parent":null}]}')
        assert cmap.subject == "demo"
        assert len(cmap.nodes) == 1

    def test_sample_file(self, teacher_map):
        assert len(teacher_map.nodes) == 20
        assert integrate(teacher_map, teacher_map).max_level == 2
        assert by_id(teacher_map)["U1"].phrase == "includes"

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"subject":"x","nodes":[{"id":"S1","parent":null},'
            '{"id":"A","parent":"S1"},{"id":"A","parent":"S1"}]}'
        )
        with pytest.raises(DuplicateNodeError, match="A"):
            parse_concept_map_file(path)

    def test_malformed_json_reports_position(self):
        with pytest.raises(MapFileParseError, match=r"line 2, column"):
            parse_concept_map(b'{"subject": "x",\n "nodes": [}')

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"subject":"x"}',
            '{"subject": 3, "nodes": []}',
            '{"subject":"x","nodes":[{"id":"S1"}]}',
            '{"subject":"x","nodes":[{"id":1,"parent":null}]}',
            '{"subject":"x","nodes":[{"id":"S1","parent":2}]}',
            '{"subject":"x","nodes":[{"id":"S1","parent":null,"phrase":7}]}',
        ],
    )
    def test_schema_violations(self, text):
        with pytest.raises(MapFileParseError):
            parse_concept_map(text.encode())

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError, match="absent.json: missing or not a regular file$"):
            parse_concept_map_file(tmp_path / "absent.json")


# A second node that breaks one field rule, and the rule's message.
FIELD_FAULTS = {
    "id-5": ((5, "S"), "nodes[1].id must be a string"),
    "id-None": ((None, "S"), "nodes[1].id must be a string"),
    "id-surrogate": (("A\ud800", "S"), "nodes[1].id is not valid UTF-8 text"),
    "parent-list": (("A", ["S"]), "nodes[1].parent must be a string or null"),
    "phrase-5": (("A", "S", 5), "nodes[1].phrase must be a string"),
}


@pytest.mark.parametrize("node, message", FIELD_FAULTS.values(), ids=FIELD_FAULTS)
def test_one_set_of_node_rules(node, message):
    """A map file and a node list break a field rule with one message: the
    file's names its source and exits 2, the node list's raises
    MapValidationError, from `validate_map` and from `ConceptMap`, given
    plain rows or MapNode instances, alike."""
    nodes = [("S", None), node]
    text = json.dumps({"nodes": [dict(zip(MapNode._fields, row)) for row in nodes]})
    with pytest.raises(MapFileParseError) as from_file:
        parse_concept_map(text.encode(), "m.json")
    assert str(from_file.value) == f"m.json: {message}"
    for build in (validate_map, lambda rows: ConceptMap("s", rows),
                  lambda rows: ConceptMap("s", [MapNode(*row) for row in rows])):
        with pytest.raises(MapValidationError) as from_list:
            build(nodes)
        assert (type(from_list.value), str(from_list.value)) == (MapValidationError, message)


class TestParseRoster:
    def test_sample_roster(self):
        records = parse_roster(DATA_DIR / "roster.csv")
        assert [r.register_no for r in records] == ["CSE001", "CSE002"]
        assert records[0].map_path == "student_map.json"
        assert records[1].name == "Vikram S"

    def test_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("register_no,name,department,semester,subject,map_path\n")
        assert parse_roster(path) == ()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("register_no,name,department,semester,subject\n")
        with pytest.raises(RosterSchemaError, match="map_path"):
            parse_roster(path)

    def test_duplicate_register_no(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "register_no,name,department,semester,subject,map_path\n"
            "R1,a,d,s,sub,m.json\nR1,b,d,s,sub,m.json\n"
        )
        with pytest.raises(DuplicateRegisterError, match="R1"):
            parse_roster(path)

    def test_empty_register_no(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "register_no,name,department,semester,subject,map_path\n,a,d,s,sub,m.json\n"
        )
        with pytest.raises(RosterSchemaError, match="line 2"):
            parse_roster(path)

    def test_printable_register_no_beside_controls(self, tmp_path):
        """Only control characters (category Cc) are refused: U+00A0, the
        first printable character after U+0080-U+009F, is kept."""
        path = tmp_path / "r.csv"
        path.write_text("register_no,name,department,semester,subject,map_path\n"
                        "R\xa01,a,d,s,sub,m.json\nR\xe92,a,d,s,sub,m.json\n", encoding="utf-8")
        assert [r.register_no for r in parse_roster(path)] == ["R\xa01", "R\xe92"]

    def test_blank_line_is_no_record(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{ROSTER_HEADER}\nR1,a,d,s,sub,m.json\n\r\n\nR2,b,d,s,sub,m.json\n\n")
        assert [r.register_no for r in parse_roster(path)] == ["R1", "R2"]

    @pytest.mark.parametrize("rows, message", [
        ("R1,a,d,s,sub,m.json\n\n\n,a,d,s,sub,m.json\n", "line 5: empty register_no"),
        ('R1,"a\nb",d,s,sub,m.json\n\nR2,a,d\n',
         "line 5: missing cell(s): semester, subject, map_path"),
        ("\r\nR1,a,d,s,sub,m.json,x\r\n", "line 3: 1 cell(s) past the header"),
    ], ids=["blank-lines", "quoted-newline", "crlf"])
    def test_line_number_counts_every_line(self, tmp_path, rows, message):
        """Blank lines and a quoted newline count as the lines they are."""
        path = tmp_path / "r.csv"
        path.write_text(ROSTER_HEADER + rows, newline="")
        with pytest.raises(RosterSchemaError) as info:
            parse_roster(path)
        assert str(info.value) == f"{path}: {message}"

    def test_repeated_column_keeps_the_last(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{ROSTER_HEADER.strip()},map_path\nR1,a,d,s,sub,first.json,last.json\n"
                        "R2,a,d,s,sub,first.json\n")
        with pytest.raises(RosterSchemaError) as info:
            parse_roster(path)
        assert str(info.value) == f"{path}: line 3: missing cell(s): map_path"
        path.write_text(f"{ROSTER_HEADER.strip()},map_path\nR1,a,d,s,sub,first.json,last.json\n")
        assert [r.map_path for r in parse_roster(path)] == ["last.json"]

    def test_bench_rosters_read_back(self, tmp_path, monkeypatch):
        """The bench's input generator keeps its own copy of the roster
        columns; each roster it writes reads back in chunk order."""
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        gen = importlib.import_module("gen")
        inputs = gen.write_inputs(tmp_path, "cohort", 1, 5, 2, scale=0.25)
        rosters = [parse_roster(path) for path in inputs.rosters]
        assert [tuple(r.register_no for r in roster) for roster in rosters] == list(inputs.chunks)
        assert all(Path(inputs.maps_dir, r.map_path) == inputs.student_map(r.register_no)
                   for roster in rosters for r in roster)


ROSTER_HEADER = "register_no,name,department,semester,subject,map_path\n"
# CSV's own syntax, path separators and a NUL, beside any other character.
CSV_TEXT = st.text(st.sampled_from(',"\r\n\x00/\\. R1') | st.characters(codec="utf-8"), max_size=80)
# The name cell of line 3 is one character longer than csv allows.
OVER_LIMIT = (f"{ROSTER_HEADER}R1,a,d,s,sub,m.json\n"
              f"R2,{'x' * (csv.field_size_limit() + 1)},d,s,sub,m.json\n")


@pytest.fixture(scope="module")
def roster_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "roster.csv"


class TestRosterFuzz:
    """Any roster file either parses or raises a RoughMapError."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120) | CSV_TEXT.map(lambda text: (ROSTER_HEADER + text).encode()))
    def test_any_bytes(self, roster_file, data):
        roster_file.write_bytes(data)
        try:
            parse_roster(roster_file)
        except RoughMapError:
            pass

    def test_field_over_the_csv_limit(self, roster_file):
        roster_file.write_text(OVER_LIMIT)
        with pytest.raises(RosterSchemaError) as info:
            parse_roster(roster_file)
        limit = csv.field_size_limit()
        assert str(info.value) == f"{roster_file}: line 3: field larger than field limit ({limit})"

    def test_nul_in_a_cell_is_data(self, roster_file):
        roster_file.write_text(f"{ROSTER_HEADER}R1,a\x00b,d,s,sub,m.json\n")
        assert [r.name for r in parse_roster(roster_file)] == ["a\x00b"]


# A UTF-8 document's bytes, recoded: three ways that are not UTF-8, one
# that is, and three that are UTF-8 only because the document is ASCII
# text: UTF-16 or UTF-32 with no byte order mark, NUL beside every character.
ENCODINGS = {
    "utf-16-bom": lambda data: data.decode("utf-8").encode("utf-16"),
    "utf-32-bom": lambda data: data.decode("utf-8").encode("utf-32"),
    "stray-0xff": lambda data: data + b"\xff",
    "utf-8-bom": lambda data: b"\xef\xbb\xbf" + data,
    "utf-16-le": lambda data: data.decode("utf-8").encode("utf-16-le"),
    "utf-16-be": lambda data: data.decode("utf-8").encode("utf-16-be"),
    "utf-32-le": lambda data: data.decode("utf-8").encode("utf-32-le"),
}
# Each way a file's bytes come in: (reader of a path, sample file, error class).
WAYS_IN = {
    "parse_concept_map": (lambda path: parse_concept_map(path.read_bytes(), str(path)).nodes,
                          "teacher_map.json", MapFileParseError),
    "parse_concept_map_file": (lambda path: parse_concept_map_file(path).nodes,
                               "teacher_map.json", MapFileParseError),
    "parse_roster": (parse_roster, "roster.csv", RosterSchemaError),
}


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("way_in", WAYS_IN)
def test_one_decode_rule(tmp_path, way_in, encoding):
    """Every way in reads UTF-8, less one byte order mark, and refuses
    anything else with its layer's error, which names a NUL when the bytes
    are UTF-8 only by accident."""
    read, name, error = WAYS_IN[way_in]
    path = tmp_path / name
    path.write_bytes(ENCODINGS[encoding]((DATA_DIR / name).read_bytes()))
    if encoding == "utf-8-bom":
        assert read(path) == read(DATA_DIR / name)
    else:
        fault = "not UTF-8 text: " if encoding.endswith(("bom", "0xff")) else ".*NUL"
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {fault}"):
            read(path)


@pytest.mark.parametrize("knob, message, absent", [
    ({"report_format": "pdf"}, "unknown report format: 'pdf'", ()),
    ({"order": "sideways"}, "order must be 'asc' or 'desc', got 'sideways'", ()),
    ({"levels": "x"}, "levels must be 'deepest' or 'all', got 'x'", ()),
    ({"report_format": "pdf"}, "unknown report format: 'pdf'", ("teacher",)),
    ({"report_format": "pdf"}, "unknown report format: 'pdf'", ("student", "roster")),
], ids=["report_format", "order", "levels", "missing_teacher", "missing_student_and_roster"])
@pytest.mark.parametrize("run", ["run_analyze", "run_batch"])
def test_bad_knob_exits_1_with_one_line(tmp_path, capsys, run, knob, message, absent):
    """A library caller's bad knob is a validation fault, not a traceback;
    both commands refuse it before they read any file, the roster included,
    or make the output directory, and blame no student."""
    paths = {"teacher": DATA_DIR / "teacher_map.json", "student": DATA_DIR / "student_map.json",
             "roster": DATA_DIR / "roster.csv"}
    paths.update((role, tmp_path / f"absent_{role}") for role in absent)
    if run == "run_analyze":
        code = run_analyze(str(paths["teacher"]), str(paths["student"]), **knob)
    else:
        code = run_batch(str(paths["teacher"]), str(paths["roster"]), str(DATA_DIR),
                         str(tmp_path / "out"), **knob)
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
