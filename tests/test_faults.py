"""Every refusal of a library call is a row of LIBRARY_FAULTS, and one runner
checks each row the same way: the call raises exactly the row's class, not a
subclass, with exactly the row's message."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import conftest
from conftest import ROSTER_HEADER, raises_exactly
from roughmap import errors
from roughmap.analysis import AnalysisResult, ImportanceRecord, analyze, level_regions
from roughmap.conceptmap import (
    ConceptMap, IntegratedMap, MapNode, NodeColor, integrate, validate_map)
from roughmap.errors import InputError, MapValidationError, UnknownParentError, ValidationError
from roughmap.fileio import parse_concept_map, parse_concept_map_file, parse_roster
from roughmap.grading import (
    RemediationPlan, assign_grade, format_fraction, grade_records, remediation_sequence,
    render_report)
from roughmap.roughset import (
    ApproximationSpace, DecisionTable, Partition, Universe, indiscernibility,
    lower_approximation, upper_approximation)

SPACE = ApproximationSpace.from_blocks((("x1", "x2"), ("x3", "x4"), ("x5", "x6")))
ONE_NODE = validate_map([("r", None)])
TWO_NODES = integrate(*[validate_map([("r", None), ("a", "r")])] * 2)
EMPTY_REPORT = (AnalysisResult((), (), Fraction(0)), (), RemediationPlan("asc", ()))


def put(name: str, text: str) -> str:
    """Write `text` to the file `name` in the working directory; return the name."""
    Path(name).write_bytes(text.encode())
    return name


def table(attributes, rows, condition=(), decision=()):
    return DecisionTable(Universe(("o1",)), attributes, rows, condition, decision)


def record(node: str, overlap: int, child_count: int) -> ImportanceRecord:
    return ImportanceRecord(node, 1, child_count, overlap, Fraction(overlap, child_count))


CHECKS = "test_values::test_construction_checks[<lambda>-"
CONTAINERS = "test_roughset::TestContainers::"
FROM_BLOCKS = "test_roughset::TestFromBlocks::test_partition_errors[blocks"
LEVELS = "levels must be 'deepest' or 'all', got "
COLUMNS = "ids, parents, levels and colors must be non-empty columns of one length, got lengths "
VALIDATE, INTEGRATE = "test_conceptmap::TestValidateMap::", "test_conceptmap::TestIntegrate::"
BY_HAND = f"{VALIDATE}test_constructor_raises_as_validate_map["
FIELDS = "test_fileio::test_one_set_of_node_rules["
SCHEMA = "test_fileio::TestParseConceptMap::test_schema_violations["
ROSTER = "test_fileio::TestParseRoster::"
# id -> (call, error, message), run in a new working directory.  A list of node
# rows runs as `validate_map(rows)`, `ConceptMap("s", rows)`, the same with MapNode
# rows, and as the map file m.json, whose message starts "m.json: " and which raises
# InputError for a field fault (one that names nodes[i]).  An id "module::[Class::]
# test[case]" is that test in tests/module.py, any other test_library_faults[id];
# a row that is an id is that id's row, checked again under a second test id.
LIBRARY_FAULTS = {
    # Rough-set values.  Where a value breaks two checks, the message names the one run first.
    f"{CHECKS}duplicate element: 'a']": (
        lambda: Universe(("a", "b", "a")), ValueError, "duplicate element: 'a'"),
    f"{CHECKS}partition contains an empty block0]": (
        lambda: Partition((("a",), ())), ValueError, "partition contains an empty block"),
    f"{CHECKS}element in more than one block: 'b'0]": (
        lambda: Partition((("a", "b"), ("b", "c"))), ValueError,
        "element in more than one block: 'b'"),
    f"{CHECKS}element in more than one block: 'b'1]": (
        lambda: Partition((("a", "b"), ("b",), ())), ValueError,
        "element in more than one block: 'b'"),
    f"{CHECKS}partition contains an empty block1]": (
        lambda: Partition(((), ("a", "a"))), ValueError, "partition contains an empty block"),
    f"{CHECKS}partition does not cover: ['b']0]": (
        lambda: ApproximationSpace(Universe(("a", "b")), Partition((("a",),))), ValueError,
        "partition does not cover: ['b']"),
    f"{CHECKS}partition exceeds the universe: ['b']]": (
        lambda: ApproximationSpace(Universe(("a",)), Partition((("a", "b"),))), ValueError,
        "partition exceeds the universe: ['b']"),
    f"{CHECKS}partition does not cover: ['b']1]": (
        lambda: ApproximationSpace(Universe(("a", "b")), Partition((("a", "c"),))), ValueError,
        "partition does not cover: ['b']"),
    # The partition's check runs first, so `Universe`'s "duplicate element" never surfaces.
    f"{FROM_BLOCKS}0-element in more than one block: 'b']": (
        lambda: ApproximationSpace.from_blocks([("a", "b"), ("b", "c")]), ValueError,
        "element in more than one block: 'b'"),
    f"{FROM_BLOCKS}1-element in more than one block: 'a']": (
        lambda: ApproximationSpace.from_blocks([("a", "a")]), ValueError,
        "element in more than one block: 'a'"),
    f"{FROM_BLOCKS}2-partition contains an empty block]": (
        lambda: ApproximationSpace.from_blocks([("a",), ()]), ValueError,
        "partition contains an empty block"),
    f"{CHECKS}duplicate attribute names]": (
        lambda: table(("a", "a"), (), condition={"zz"}), ValueError, "duplicate attribute names"),
    f"{CHECKS}condition features not among attributes: ['zz']]": (
        lambda: table(("a",), (("1",),), condition={"zz"}, decision={"yy"}), ValueError,
        "condition features not among attributes: ['zz']"),
    f"{CHECKS}decision features not among attributes: ['yy']]": (
        lambda: table(("a",), (("1",),), decision={"yy"}), ValueError,
        "decision features not among attributes: ['yy']"),
    f"{CHECKS}decision features not among attributes: ['zz']]": (
        lambda: table(("a", "b"), (("1",),), decision={"zz"}), ValueError,
        "decision features not among attributes: ['zz']"),
    f"{CHECKS}0 rows for 1 objects]": (
        lambda: table(("a", "b"), (), decision={"a"}), ValueError, "0 rows for 1 objects"),
    f"{CHECKS}2 rows for 1 objects]": (
        lambda: table(("a",), (("1",), ("2",))), ValueError, "2 rows for 1 objects"),
    f"{CHECKS}row for 'o1' has 1 values, expected 3]": (
        lambda: table(("a", "b", "c"), (("1",),)), ValueError,
        "row for 'o1' has 1 values, expected 3"),
    f"{CHECKS}row for 'o1' has 2 values, expected 1]": (
        lambda: table(("a",), (("1", "2"),)), ValueError, "row for 'o1' has 2 values, expected 1"),
    f"{CHECKS}row for 'o1' has 1 values, expected 2]": (
        lambda: DecisionTable.from_rows({"o1": ["1"]}, attributes=("a", "b")), ValueError,
        "row for 'o1' has 1 values, expected 2"),
    f"{CHECKS}row for 'o2' has 1 values, expected 2]": (
        lambda: DecisionTable.from_rows({"o1": ["1", "2"], "o2": ["3"], "o3": []}, ("a", "b")),
        ValueError, "row for 'o2' has 1 values, expected 2"),
    # The containers' checks as they were first written: each another id of a row above.
    **{f"{CONTAINERS}test_{name}": f"{CHECKS}{case}]" for name, case in (
        ("universe_rejects_duplicates", "duplicate element: 'a'"),
        ("partition_rejects_empty_block", "partition contains an empty block0"),
        ("partition_rejects_overlap", "element in more than one block: 'b'0"),
        ("space_requires_exact_cover", "partition does not cover: ['b']0"),
        ("decision_table_feature_subsets_checked", "condition features not among attributes: ['zz']"),
        ("from_rows_row_length_checked", "row for 'o1' has 1 values, expected 2"),
        ("decision_table_requires_total_values", "row for 'o2' has 1 values, expected 2"))},
    # Rough-set operations.
    "test_roughset::TestLowerApproximation::test_rejects_stray_elements": (
        lambda: lower_approximation(SPACE, {"x1", "zz"}), ValidationError,
        "elements not in the universe: ['zz']"),
    "test_roughset::TestUpperApproximation::test_rejects_stray_elements": (
        lambda: upper_approximation(SPACE, {"nope"}), ValidationError,
        "elements not in the universe: ['nope']"),
    "test_roughset::TestIndiscernibility::test_unknown_attribute": (
        lambda: indiscernibility(DecisionTable.from_rows({"o1": ["1"]}, ("a",)), {"a", "bogus"}),
        ValidationError, "unknown attribute(s): ['bogus']"),
    # Node lists.
    f"{VALIDATE}test_two_cycle": (
        [("A", "B"), ("B", "A")], MapValidationError, "cycle among nodes: A -> B -> A"),
    f"{VALIDATE}test_multiple_roots": (
        [("S1", None), ("U1", None)], MapValidationError, "multiple root nodes: ['S1', 'U1']"),
    f"{VALIDATE}test_duplicate_id_named": (
        [("S1", None), ("U1", "S1"), ("U1", "S1")], MapValidationError, "duplicate node id: 'U1'"),
    f"{VALIDATE}test_dangling_parent": (
        [("S1", None), ("U1", "GHOST")], UnknownParentError,
        "node 'U1' references unknown parent 'GHOST'"),
    f"{VALIDATE}test_cycle_disjoint_from_root": (
        [("R", None), ("A", "B"), ("B", "A")], MapValidationError,
        "cycle among nodes: A -> B -> A"),
    f"{VALIDATE}test_empty_input": (
        [], MapValidationError, "map has no nodes"),
    f"{VALIDATE}test_non_string_id[None]": (
        [("S1", None), (None, "S1")], MapValidationError, "nodes[1].id must be a string"),
    f"{VALIDATE}test_non_string_id[5]": (
        [("S1", None), (5, "S1")], MapValidationError, "nodes[1].id must be a string"),
    f"{FIELDS}id-surrogate]": (
        [("S", None), ("A\ud800", "S")], MapValidationError, "nodes[1].id is not valid UTF-8 text"),
    f"{FIELDS}parent-list]": (
        [("S", None), ("A", ["S"])], MapValidationError,
        "nodes[1].parent must be a string or null"),
    f"{FIELDS}phrase-5]": (
        [("S", None), ("A", "S", 5)], MapValidationError, "nodes[1].phrase must be a string"),
    # Each map is checked when it is made, so a node whose parent only the other map has
    # is refused before `integrate` runs, whichever side it was meant for.
    f"{INTEGRATE}test_orphan_student_node": (
        [("S1", None), ("W", "GHOST")], UnknownParentError,
        "node 'W' references unknown parent 'GHOST'"),
    f"{INTEGRATE}test_student_tree_only_with_teacher_map": (
        lambda: integrate(validate_map([("S1", None), ("U2", "S1")]),
                          validate_map([("S1", None), ("W", "U2")])),
        UnknownParentError, "node 'W' references unknown parent 'U2'"),
    f"{INTEGRATE}test_map_without_root[teacher]": (
        [("a", "b"), ("b", "a")], MapValidationError, "cycle among nodes: a -> b -> a"),
    f"{INTEGRATE}test_map_with_two_roots[teacher]": (
        [("a", None), ("c", None)], MapValidationError, "multiple root nodes: ['a', 'c']"),
    # Node-list faults as they were first written: each another id of a row above.
    **{f"{BY_HAND}{case}]": f"{VALIDATE}test_{name}" for case, name in (
        ("two-cycle", "two_cycle"), ("multiple-roots", "multiple_roots"),
        ("duplicate-id", "duplicate_id_named"), ("dangling-parent", "dangling_parent"),
        ("cycle-disjoint-from-root", "cycle_disjoint_from_root"), ("empty", "empty_input"),
        ("id-None", "non_string_id[None]"), ("id-5", "non_string_id[5]"))},
    **{f"{FIELDS}id-{value}]": f"{VALIDATE}test_non_string_id[{value}]" for value in ("None", "5")},
    "test_fileio::TestParseConceptMap::test_duplicate_id_named": f"{VALIDATE}test_duplicate_id_named",
    **{f"{INTEGRATE}test_map_{fault}[student]": f"{INTEGRATE}test_map_{fault}[teacher]"
       for fault in ("without_root", "with_two_roots")},
    f"{INTEGRATE}test_root_mismatch": (
        lambda: integrate(validate_map([("S1", None)]), validate_map([("S2", None)])),
        ValidationError, "root ids differ: teacher 'S1', student 'S2'"),
    f"{CHECKS}{COLUMNS}[3, 2, 3, 3]]": (
        lambda: IntegratedMap("s", ("r", "a", "b"), (None, "r"), (0, 1, 1),
                              (None, NodeColor.GREEN, NodeColor.RED)),
        ValueError, f"{COLUMNS}[3, 2, 3, 3]"),
    f"{CHECKS}{COLUMNS}[0, 0, 0, 0]]": (
        lambda: IntegratedMap("s", (), (), (), ()), ValueError, f"{COLUMNS}[0, 0, 0, 0]"),
    # Map files.
    "test_fileio::TestParseConceptMap::test_malformed_json_reports_position": (
        lambda: parse_concept_map(b'{"subject": "x",\n "nodes": [}'), InputError,
        "<string>: invalid JSON at line 2, column 12: Expecting value"),
    **{f"{SCHEMA}{document}]": (lambda document=document: parse_concept_map(document.encode()),
                                 InputError, f"<string>: {message}")
       for document, message in (
           ("[]", "expected an object with a 'nodes' array"),
           ('{"subject":"x"}', "expected an object with a 'nodes' array"),
           ('{"subject": 3, "nodes": []}', "'subject' must be a string"),
           ('{"subject":"x","nodes":[{"id":"S1"}]}', "nodes[0] must be an object with 'id' and 'parent'"),
           ('{"subject":"x","nodes":[{"id":1,"parent":null}]}', "nodes[0].id must be a string"),
           ('{"subject":"x","nodes":[{"id":"S1","parent":2}]}',
            "nodes[0].parent must be a string or null"),
           ('{"subject":"x","nodes":[{"id":"S1","parent":null,"phrase":7}]}',
            "nodes[0].phrase must be a string"))},
    "test_fileio::TestParseConceptMap::test_missing_file_raises_oserror": (
        lambda: parse_concept_map_file("absent.json"), OSError,
        "absent.json: missing or not a regular file"),
    # Rosters.  A line number counts blank lines and a quoted newline as the lines they are.
    f"{ROSTER}test_missing_column_named": (
        lambda: parse_roster(put("r.csv", "register_no,name,department,semester,subject\n")),
        InputError, "r.csv: missing column(s): map_path"),
    f"{ROSTER}test_duplicate_register_no": (
        lambda: parse_roster(put("r.csv", f"{ROSTER_HEADER}R1,a,d,s,sub,m.json\nR1,b,d,s,sub,m.json\n")),
        InputError, "r.csv: duplicate register_no 'R1'"),
    f"{ROSTER}test_empty_register_no": (
        lambda: parse_roster(put("r.csv", f"{ROSTER_HEADER},a,d,s,sub,m.json\n")), InputError,
        "r.csv: line 2: empty register_no"),
    f"{ROSTER}test_line_number_counts_every_line[blank-lines]": (
        lambda: parse_roster(put("r.csv", f"{ROSTER_HEADER}R1,a,d,s,sub,m.json\n\n\n,a,d,s,sub,m.json\n")),
        InputError, "r.csv: line 5: empty register_no"),
    f"{ROSTER}test_line_number_counts_every_line[quoted-newline]": (
        lambda: parse_roster(put("r.csv", f'{ROSTER_HEADER}R1,"a\nb",d,s,sub,m.json\n\nR2,a,d\n')),
        InputError, "r.csv: line 5: missing cell(s): semester, subject, map_path"),
    f"{ROSTER}test_line_number_counts_every_line[crlf]": (
        lambda: parse_roster(put("r.csv", f"{ROSTER_HEADER}\r\nR1,a,d,s,sub,m.json,x\r\n")), InputError,
        "r.csv: line 3: 1 cell(s) past the header"),
    # Analysis.
    "test_analysis::TestLevelRegions::test_single_node_map_rejected": (
        lambda: level_regions(integrate(ONE_NODE, ONE_NODE)), ValidationError,
        "map has a single node, nothing to classify"),
    "test_analysis::TestAnalyze::test_unknown_level_rejected": (
        lambda: analyze(TWO_NODES, "bogus"), ValidationError, f"{LEVELS}'bogus'"),
    "levels-list": (lambda: analyze(TWO_NODES, [1]), ValidationError, f"{LEVELS}[1]"),
    "levels-set-2": (lambda: analyze(TWO_NODES, {2}), ValidationError, f"{LEVELS}{{2}}"),
    "levels-set-3": (lambda: analyze(TWO_NODES, {3}), ValidationError, f"{LEVELS}{{3}}"),
    "levels-empty-set": (lambda: analyze(TWO_NODES, set()), ValidationError, f"{LEVELS}set()"),
    # Grades, plans and reports.  0% is in range, so the check looks past it to the bad record.
    "test_grading::TestAssignGrade::test_out_of_range[-1]": (
        lambda: assign_grade(-1), ValidationError, "percent out of range 0..100: -1"),
    "test_grading::TestAssignGrade::test_out_of_range[101]": (
        lambda: assign_grade(101), ValidationError, "percent out of range 0..100: 101"),
    "test_grading::TestAssignGrade::test_out_of_range[1000]": (
        lambda: assign_grade(1000), ValidationError, "percent out of range 0..100: 1000"),
    "test_grading::TestGradeRecords::test_out_of_range_after_a_zero_percent[-1--50]": (
        lambda: grade_records([record("zero", 0, 2), record("bad", -1, 2)]), ValidationError,
        "percent out of range 0..100: -50"),
    "test_grading::TestGradeRecords::test_out_of_range_after_a_zero_percent[3-150]": (
        lambda: grade_records([record("zero", 0, 2), record("bad", 3, 2)]), ValidationError,
        "percent out of range 0..100: 150"),
    "test_results::test_grade_records_rejects_a_percent_out_of_range[4-3]": (
        lambda: grade_records([record("a", 1, 2), record("b", 4, 3)]), ValidationError,
        "percent out of range 0..100: 133"),
    "test_results::test_grade_records_rejects_a_percent_out_of_range[-1-3]": (
        lambda: grade_records([record("a", 1, 2), record("b", -1, 3)]), ValidationError,
        "percent out of range 0..100: -34"),
    "test_results::test_grade_records_rejects_a_percent_out_of_range[101-1]": (
        lambda: grade_records([record("a", 1, 2), record("b", 101, 1)]), ValidationError,
        "percent out of range 0..100: 10100"),
    "format-fraction-negative": (lambda: format_fraction(Fraction(-1, 3), 2), ValidationError,
                                 "value must be non-negative, got -1/3"),
    "test_grading::TestRemediationSequence::test_bad_order_rejected": (
        lambda: remediation_sequence([], "upwards"), ValidationError,
        "order must be 'asc' or 'desc', got 'upwards'"),
    "test_grading::TestRenderReport::test_unknown_format": (
        lambda: render_report(*EMPTY_REPORT, "yaml"), ValidationError,
        "unknown report format: 'yaml'"),
}


def ways(call, error, message):
    """The (call, error, message) triples that check a row."""
    if callable(call):
        return [(call, error, message)]
    rows, file_error = call, InputError if message.startswith("nodes[") else error
    document = json.dumps({"nodes": [dict(zip(MapNode._fields, row)) for row in rows]})
    return [(lambda: validate_map(rows), error, message),
            (lambda: ConceptMap("s", rows), error, message),
            (lambda: ConceptMap("s", [MapNode(*row) for row in rows]), error, message),
            (lambda: parse_concept_map_file(put("m.json", document)), file_error,
             f"m.json: {message}")]


def check_row(key, tmp_path, monkeypatch, capsys):
    """Each way of the row `key`, run in `tmp_path`, raises exactly its class and
    message, and prints nothing.  A row that is a key is that key's row."""
    monkeypatch.chdir(tmp_path)
    row = LIBRARY_FAULTS[key]
    for call, error, message in ways(*LIBRARY_FAULTS[row] if isinstance(row, str) else row):
        with raises_exactly(error, message):
            call()
    assert capsys.readouterr() == ("", "")


collect_rows = partial(conftest.collect_rows, table=LIBRARY_FAULTS, check=check_row,
                       default="test_library_faults")


def test_every_error_class_has_a_row():
    """Rows raise each class of `roughmap.errors` but the base, ValueError and OSError."""
    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.RoughMapError)}
    raised = {row[1] for row in LIBRARY_FAULTS.values() if not isinstance(row, str)}
    assert raised == classes - {errors.RoughMapError} | {ValueError, OSError}


collect_rows(globals())
