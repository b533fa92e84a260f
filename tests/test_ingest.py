"""Differential and fuzz tests for map ingest: parse, validate, integrate.

On every input the columnar ingest and the per-entry, per-node reference
(`reference.py`) must return the same nodes and levels, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import json
import time
from unittest.mock import ANY

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import DATA_DIR, levels_of
import reference
from roughmap import fileio
from roughmap.analysis import analyze
from roughmap.cli import main
from roughmap.conceptmap import (
    ConceptMap, IntegratedMap, MapNode, _walk_depths, integrate, validate_map)
from roughmap.errors import CycleError, DuplicateNodeError, MapFileParseError, RoughMapError
from roughmap.fileio import parse_concept_map
from strategies import concept_maps, teacher_student_pairs


def every_level(by_level) -> tuple:
    """Buckets of every level, level 0 included, with each level's blocks as
    (parent, children) pairs, so that comparing two also compares the order
    of their parents."""
    pos, neg, blocks = by_level
    return pos, neg, [list(level.items()) for level in blocks]


def ordered(by_level) -> tuple:
    """Buckets of levels 1 and up, which analysis reads."""
    return tuple(column[1:] for column in every_level(by_level))


def outcome(fn, *args):
    """What a call did: ("ok", value) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the oracle's failures are compared, not raised
        return ("raised", type(exc), str(exc))


POOL = ("a", "b", "c", "d", "e")


def links(ids) -> st.SearchStrategy:
    """A parent: a listed id, none (another root), or an id nobody lists."""
    return st.sampled_from((*ids, None, "ghost"))


@st.composite
def node_lists(draw) -> list:
    """(id, parent) lists: trees listed parent first or shuffled, some with
    one link rewired or one node listed twice, and arbitrary links among a
    few ids in any order (unknown parents, cycles, no root or several)."""
    if draw(st.booleans()):
        ids = draw(st.lists(st.sampled_from(POOL), unique=True))
        return [(nid, draw(links(POOL))) for nid in ids]
    tree = draw(concept_maps(max_nodes=12, min_nodes=1))
    nodes = [(n.id, n.parent) for n in tree.nodes]  # parent first
    if draw(st.booleans()):
        nodes = draw(st.permutations(nodes))
    ids = [nid for nid, _ in nodes]
    change = draw(st.sampled_from(["none", "rewire", "duplicate"]))
    if change == "rewire":
        i = draw(st.integers(0, len(nodes) - 1))
        nodes[i] = (nodes[i][0], draw(links(ids)))
    elif change == "duplicate":
        nodes.insert(draw(st.integers(0, len(nodes))),
                     (draw(st.sampled_from(ids)), draw(links(ids))))
    return nodes


NOT_A_STRING = st.sampled_from([0, 2.5, True, [], ["a"], {}, {"id": "a"}])
HOSTILE_ENTRIES = st.one_of(
    st.sampled_from([1, "a", None, True, [], ["a", None]]),
    st.sampled_from([{}, {"id": "a"}, {"parent": None}, {"id": "a", "phrase": "p"}]),
    st.builds(lambda v: {"id": v, "parent": None}, NOT_A_STRING | st.none()),
    st.builds(lambda v: {"id": "a", "parent": v}, NOT_A_STRING),
    st.builds(lambda v: {"id": "a", "parent": None, "phrase": v}, NOT_A_STRING),
)


@st.composite
def map_documents(draw) -> dict:
    """A map document from `node_lists`, phrases on some entries, and up to
    two hostile entries inserted anywhere."""
    entries = []
    for nid, parent in draw(node_lists()):
        entry = {"id": nid, "parent": parent}
        if draw(st.booleans()):
            entry["phrase"] = draw(st.none() | st.text(max_size=3))
        entries.append(entry)
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), draw(HOSTILE_ENTRIES))
    return {"subject": draw(st.sampled_from(["s", "Course é"])), "nodes": entries}


@st.composite
def map_pairs(draw) -> tuple:
    """(teacher, student) (id, parent) lists with unique ids and one shared
    root listed first.  The student keeps, misplaces or omits teacher nodes
    and adds extras whose parents may be another extra, nothing (a second
    root) or an id in neither map; the teacher may have one link rewired."""
    teacher = [(n.id, n.parent) for n in draw(concept_maps(max_nodes=10)).nodes]
    ids = [nid for nid, _ in teacher]
    extras = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    anywhere = st.sampled_from([*ids, *extras])
    student = []
    for nid, parent in teacher[1:]:
        kind = draw(st.sampled_from(["keep", "misplace", "omit"]))
        if kind != "omit":
            student.append((nid, parent if kind == "keep" else draw(anywhere)))
    student += [(x, draw(links([*ids, *extras]))) for x in extras]
    student = [teacher[0]] + draw(st.permutations(student))
    if draw(st.booleans()):
        i = draw(st.integers(1, len(teacher) - 1))
        teacher[i] = (teacher[i][0], draw(links([*ids, *extras])))
    return teacher, student


def as_map(nodes, hand_built: bool) -> ConceptMap:
    """A map from `validate_map` or built by hand; either raises the same
    error when the nodes are not a tree."""
    if hand_built:
        return ConceptMap(subject="s", nodes=tuple(MapNode(*n) for n in nodes))
    return validate_map(nodes, subject="s")


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(map_documents())
    def test_parse(self, doc):
        text = json.dumps(doc)

        def parse(text):
            cmap = parse_concept_map(text.encode())
            return cmap.subject, tuple(cmap.nodes), levels_of(cmap)

        assert outcome(parse, text) == outcome(reference.parse, text)

    @settings(max_examples=400, deadline=None)
    @given(node_lists())
    # An unknown parent is reported before a cycle and after a duplicate,
    # also when it would resolve as a root of its own.
    @example([("r", None), ("b", "ghost"), ("c", "c")])
    @example([("a", "b"), ("b", "a"), ("c", "ghost")])
    @example([("a", None), ("b", "ghost"), ("b", "a")])
    # Listed parent first, but an id repeats or a second root follows.
    @example([("a", None), ("b", "a"), ("b", "a")])
    @example([("a", None), ("b", "a"), ("a", "b")])
    @example([("a", None), ("b", "a"), ("c", None), ("d", "c")])
    def test_validate(self, nodes):
        def validate(nodes):
            cmap = validate_map(nodes)
            return tuple(cmap.nodes), levels_of(cmap)

        assert outcome(validate, nodes) == outcome(reference.validate, nodes)

    @settings(max_examples=400, deadline=None)
    @given(map_pairs(), st.booleans(), st.booleans())
    # A student node under a teacher-only parent the student omitted, and two
    # invalid maps, where the teacher's error wins.
    @example(([("S1", None), ("U1", "S1"), ("U2", "S1")], [("S1", None), ("W", "U2")]),
             False, True)
    @example(([("a", "b"), ("b", "a")], [("a", None), ("W", "ghost")]), True, True)
    def test_integrate(self, pair, teacher_by_hand, student_by_hand):
        teacher, student = pair
        got = outcome(lambda: tuple(integrate(as_map(teacher, teacher_by_hand),
                                              as_map(student, student_by_hand)).nodes))
        assert got == outcome(reference.integrate, teacher, student)


def described(imap) -> tuple:
    """(node rows, children_of, max_level) of an integrated map."""
    return tuple(imap.nodes), imap.children_of, imap.max_level


def test_walk_stops_at_a_missing_id():
    """A climb that reaches an id missing from the parent links resolves
    nothing, however many nodes it passed; a resolved id ends a climb."""
    depth = {None: -1}
    assert _walk_depths({"r": None, "c": "b", "b": "ghost", "d": "c"}, depth) is None
    assert depth == {None: -1, "r": 0}
    depth = {"ghost": 3}
    assert _walk_depths({"c": "b", "b": "ghost"}, depth) is None
    assert depth == {"ghost": 3, "b": 4, "c": 5}


class TestCarriedDepths:
    """Every map carries its depths from the check made when it is made, and
    `integrate` then walks only the student-only nodes.  Node rows are built
    on first read."""

    @settings(max_examples=300, deadline=None)
    @given(teacher_student_pairs(max_nodes=15, max_extras=6))
    def test_integrate(self, pair):
        by_hand = [ConceptMap(subject=m.subject, nodes=m.nodes) for m in pair]
        for made, checked in zip(by_hand, pair):
            assert (made.depth, made.parent_of) == (checked.depth, checked.parent_of)
        assert validate_map(by_hand[0]) is by_hand[0]
        rows = reference.integrate(*([(n.id, n.parent) for n in m.nodes] for m in pair))
        children = {nid: tuple(c for c, p, _, _ in rows if p == nid) for nid, _, _, _ in rows}
        expected = (rows, children, max(level for _, _, level, _ in rows))
        assert described(integrate(*pair)) == expected
        assert described(integrate(*by_hand)) == expected

    def test_cli_run_checks_each_map_once(self, tmp_path, monkeypatch):
        """A CLI `analyze` run checks the teacher and the student map once
        each, when they are parsed, and `integrate` checks neither."""
        calls = []
        check = ConceptMap._check

        def spied_check(cmap):
            calls.append("check")
            check(cmap)

        def spied_integrate(*maps):
            calls.append("integrate")
            imap = integrate(*maps)
            calls.append("integrated")
            return imap

        monkeypatch.setattr(ConceptMap, "_check", spied_check)
        monkeypatch.setattr(fileio, "integrate", spied_integrate)
        assert main(["analyze", "--teacher", str(DATA_DIR / "teacher_map.json"),
                     "--student", str(DATA_DIR / "student_map.json"),
                     "--out", str(tmp_path / "report")]) == 0
        assert calls == ["check", "check", "integrate", "integrated"]

    @settings(max_examples=200, deadline=None)
    @given(concept_maps(max_nodes=12), st.data())
    def test_lazy_nodes(self, tree, data):
        rows = data.draw(st.permutations([
            MapNode(n.id, n.parent, data.draw(st.none() | st.text(max_size=3)))
            for n in tree.nodes]))
        cmap = parse_concept_map(json.dumps({"nodes": [row._asdict() for row in rows]}).encode())
        assert "nodes" not in vars(cmap)
        assert all(type(node) is MapNode for node in cmap.nodes)
        assert [node._asdict() for node in cmap.nodes] == [row._asdict() for row in rows]


class TestOnePass:
    """The colour-and-level pass of `integrate`, its buckets, and `analyze`
    over them, against the reference."""

    @settings(max_examples=300, deadline=None)
    @given(teacher_student_pairs(max_nodes=15, max_extras=6), st.data())
    def test_integrate(self, pair, data):
        teacher, student = pair
        if data.draw(st.booleans(), label="shuffle teacher"):
            teacher = validate_map(data.draw(st.permutations(teacher.nodes)), teacher.subject)
        teacher, student = (ConceptMap(subject=m.subject, nodes=m.nodes)
                            if data.draw(st.booleans(), label="by hand") else m
                            for m in (teacher, student))
        imap = integrate(teacher, student)
        rows = reference.integrate(*([(n.id, n.parent) for n in m.nodes] for m in (teacher, student)))
        assert (imap.ids, imap.parents, imap.levels, imap.colors) == tuple(zip(*rows))
        assert ordered(imap._by_level) == ordered(reference.by_level(rows))
        assert imap.max_level == max(imap.levels)
        for levels in ("deepest", "all"):
            assert analyze(imap, levels) == reference.analyze(rows, levels)

    @settings(max_examples=200, deadline=None)
    @given(teacher_student_pairs(max_nodes=15, max_extras=6))
    def test_map_not_made_by_integrate(self, pair):
        """A map constructed from `integrate`'s columns, positionally or by
        keyword, is bucketed when it is made, and its buckets equal
        `integrate`'s at every level, level 0 (the root, red, under None)
        included."""
        imap = integrate(*pair)
        names = ("subject", "ids", "parents", "levels", "colors")
        columns = [getattr(imap, name) for name in names]
        root = imap.ids[imap.parents.index(None)]
        expected = every_level(reference.by_level(imap.nodes))
        assert expected[1][0] == [root] and expected[2][0] == [(None, [root])]
        assert every_level(imap._by_level) == expected
        for other in (IntegratedMap(*columns), IntegratedMap(**dict(zip(names, columns)))):
            assert {"_by_level", "max_level"} <= vars(other).keys()
            assert other.max_level == imap.max_level == max(imap.levels)
            assert every_level(other._by_level) == every_level(imap._by_level)
            assert other.children_of == imap.children_of
            for levels in ("deepest", "all"):
                assert outcome(analyze, other, levels) == outcome(analyze, imap, levels)


SURROGATES = st.integers(0xD800, 0xDFFF).map(chr)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["id", "parent", "phrase", "nodes", "subject"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=20,
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | st.builds(lambda nodes: {"nodes": nodes}, st.lists(JSON_VALUES)))
    def test_any_json_value(self, value):
        try:
            parse_concept_map(json.dumps(value).encode())
        except RoughMapError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | st.text(max_size=32).map(str.encode))
    def test_any_bytes(self, data):
        try:
            parse_concept_map(data)
        except RoughMapError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab") | SURROGATES, max_size=3), min_size=1,
                    max_size=6), st.data())
    def test_surrogate_ids(self, ids, data):
        """An id holding a lone surrogate is refused, naming the first such
        entry; any other map parses or fails validation as before.  JSON
        decoding joins an escaped high and low surrogate into one valid
        character, so only what remains unpaired is lone."""
        nodes = [{"id": nid, "parent": data.draw(st.sampled_from(ids[:i])) if i else None}
                 for i, nid in enumerate(ids)]
        data = json.dumps({"nodes": nodes}).encode()
        decoded = [node["id"] for node in json.loads(data)["nodes"]]
        bad = [i for i, nid in enumerate(decoded) if any(0xD800 <= ord(c) <= 0xDFFF for c in nid)]
        if bad:
            message = f"<string>: nodes[{bad[0]}].id is not valid UTF-8 text"
            assert outcome(parse_concept_map, data) == ("raised", MapFileParseError, message)
        else:
            assert outcome(parse_concept_map, data)[:2] in (("ok", ANY), ("raised", DuplicateNodeError))



N = 10_000
CYCLIC_MAPS = {
    # 10 000 separate two-cycles
    "two-cycles": [pair for i in range(N) for pair in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))],
    # a chain listed child first that climbs into a two-cycle, then N
    # leaves under the chain's first node
    "chain-into-cycle": [(f"t{i}", f"t{i + 1}") for i in range(N - 1)]
    + [(f"t{N - 1}", "c0"), ("c0", "c1"), ("c1", "c0")]
    + [(f"x{i}", "t0") for i in range(N)],
}


@pytest.mark.parametrize("shape", CYCLIC_MAPS)
class TestScaling:
    """Cyclic maps of 20 000 nodes: each node is climbed through at most
    once, and the error is the reference's."""

    def test_validate(self, shape):
        nodes = CYCLIC_MAPS[shape]
        started = time.perf_counter()
        got = outcome(validate_map, nodes)
        elapsed = time.perf_counter() - started
        assert got == outcome(reference.validate, nodes)
        assert got[:2] == ("raised", CycleError)
        assert elapsed <= 2.0, f"validate took {elapsed:.2f}s"
