from __future__ import annotations

import pytest

from conftest import DATA_DIR
from roughmap.conceptmap import integrate
from roughmap.errors import (
    DuplicateNodeError,
    DuplicateRegisterError,
    MapFileParseError,
    RosterSchemaError,
)
from roughmap.fileio import (
    RunConfig,
    parse_concept_map,
    parse_concept_map_file,
    parse_roster,
)


class TestParseConceptMap:
    def test_minimal_file(self):
        cmap = parse_concept_map('{"subject":"demo","nodes":[{"id":"S1","parent":null}]}')
        assert cmap.subject == "demo"
        assert len(cmap.nodes) == 1

    def test_sample_file(self, teacher_map):
        assert len(teacher_map.nodes) == 20
        assert integrate(teacher_map, teacher_map).max_level == 2
        assert teacher_map.by_id["U1"].phrase == "includes"

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
            parse_concept_map('{"subject": "x",\n "nodes": [}')

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
            parse_concept_map(text)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_concept_map_file(tmp_path / "absent.json")


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


class TestRunConfig:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            RunConfig(teacher_map_path="t.json")
        with pytest.raises(ValueError):
            RunConfig(teacher_map_path="t.json", student_map_path="s.json", roster_path="r.csv")

    @pytest.mark.parametrize(
        "kwargs",
        [{"report_format": "pdf"}, {"order": "sideways"}, {"levels": "some"}],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(teacher_map_path="t.json", student_map_path="s.json", **kwargs)
