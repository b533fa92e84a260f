"""Output checks for the roughmap benchmark.

The expected importance records are recounted here from the generated node
lists, without the program's own integration or analysis code, and compared
with every format of report the program writes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from roughmap.grading import parse_report, render_report

Record = tuple[str, int, int, int]  # node, node level, child count, green children


def read_pairs(path: Path) -> list[tuple[str, str | None]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [(n["id"], n["parent"]) for n in doc["nodes"]]


def expected_records(teacher: list, student: list, all_levels: bool) -> list[Record]:
    """Records in report order: deepest child level first; within a level,
    parents in order of their first child in the merged node list (teacher
    nodes, then student-only nodes)."""
    student_parent = dict(student)
    teacher_ids = {nid for nid, _ in teacher}
    merged = [(nid, parent, student_parent.get(nid, ...) == parent) for nid, parent in teacher]
    merged += [(nid, parent, True) for nid, parent in student if nid not in teacher_ids]
    parent_of = {nid: parent for nid, parent, _ in merged}
    depth: dict[str, int] = {}
    for nid, _, _ in merged:
        chain = []
        while nid is not None and nid not in depth:
            chain.append(nid)
            nid = parent_of[nid]
        d = -1 if nid is None else depth[nid]
        for n in reversed(chain):
            d += 1
            depth[n] = d
    by_level: dict[int, list[tuple[str, str, bool]]] = {}
    for nid, parent, green in merged:
        if parent is not None:
            by_level.setdefault(depth[nid], []).append((nid, parent, green))
    deepest = max(by_level)
    records: list[Record] = []
    for level in range(deepest, 0, -1) if all_levels else (deepest,):
        counts: dict[str, list[int]] = {}
        for _, parent, green in by_level[level]:
            c = counts.setdefault(parent, [0, 0])
            c[0] += 1
            c[1] += green
        records += [(p, level - 1, n, g) for p, (n, g) in counts.items()]
    return records


def _json_records(text: str) -> list[Record]:
    result, graded, plan = parse_report(text)
    if render_report(result, graded, plan, "json") != text:
        raise ValueError("JSON report does not round-trip through parse_report")
    for r in result.records:
        if r.alpha != Fraction(r.overlap, r.child_count):
            raise ValueError(f"alpha of {r.node} is not overlap/child_count")
    return [(r.node, r.level, r.child_count, r.overlap) for r in result.records]


def _csv_records(text: str) -> list[Record]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    out = []
    for row in rows:
        if row[0] == "total":
            break
        out.append((row[0], int(row[1]) - 1, int(row[2]), int(row[3])))
    return out


def _text_records(text: str) -> list[Record]:
    lines = text.split("\n")
    start = lines.index("Result analysis") + 3  # title, underline, table header
    out = []
    for line in lines[start:]:
        if not line or line.startswith("total = "):
            break
        node, level, children, green, _ = line.split()
        out.append((node, int(level) - 1, int(children), int(green)))
    return out


PARSERS = {"text": _text_records, "csv": _csv_records, "json": _json_records}


def report_error(text: str, fmt: str, expected: list[Record]) -> str | None:
    """None if the report's records equal `expected`, else what differs."""
    try:
        got = PARSERS[fmt](text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{fmt} report unreadable: {exc}"
    if got != expected:
        diff = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                    min(len(got), len(expected)))
        return (f"{fmt} report: {len(got)} records, expected {len(expected)}; "
                f"first difference at record {diff}")
    return None


def summary_error(path: Path, registers: tuple[str, ...]) -> str | None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["register_no", "expected_result", "grades"]:
        return f"summary header {rows[0]}"
    if tuple(r[0] for r in rows[1:]) != registers:
        return f"summary has {len(rows) - 1} rows for {len(registers)} roster entries"
    return None


def regions_error(got, imap, records) -> str | None:
    """`got` are roughset regions of the deepest level, partitioned by parent,
    with the green nodes as X: POS must be the children of parents whose
    importance is 1, NEG the children of parents whose importance is 0."""
    deepest = imap.max_level
    alpha = {r.node: r.alpha for r in records if r.level == deepest - 1}
    level_nodes = [n for n in imap.nodes if n.level == deepest]
    if any(n.parent not in alpha for n in level_nodes):
        return "analysis has no record for a parent of the deepest level"
    want = (tuple(n.id for n in level_nodes if alpha[n.parent] == 1),
            tuple(n.id for n in level_nodes if alpha[n.parent] == 0),
            tuple(n.id for n in level_nodes if 0 < alpha[n.parent] < 1))
    if (got.pos, got.neg, got.bnd) != want:
        return "roughset regions disagree with the analysis"
    return None
