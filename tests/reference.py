"""One slow, plain reference for each idea of the pipeline, built from the
paper's definitions, for the differential tests to compare the program with.

A map is a list of (id, parent) pairs or (id, parent, phrase) triples; an
integrated map is rows of (id, parent, level, colour), as
`IntegratedMap.nodes` holds them.  Results are the program's own named
tuples, so that a comparison is one ``==``.  Nothing here calls the
program's pipeline: the rough-set layer is reached only through its public,
checked functions, and every count, sort and layout is written out.

- `parse` and `validate`: a map file and a node list, checked entry by entry;
- `levels`: each node's level, by walking its parents up to the root;
- `integrate`: the colours, from each id's teacher and student parent;
- `by_level`, `level_regions` and `analyze`: each level's regions and each
  boundary node's degree, through `regions` and `rough_membership` on the
  level's nodes;
- `lower` and `upper`: the approximations, block by block;
- `grades` and `plan`: from `GRADE_BANDS`, and by a tuple-key sort;
- `RENDERERS`: the text, CSV and JSON report layouts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from roughmap.analysis import ALL_LEVELS, AnalysisResult, ImportanceRecord, LevelRegions
from roughmap.conceptmap import NodeColor
from roughmap.errors import InputError, MapValidationError, UnknownParentError, ValidationError
from roughmap.grading import GRADE_BANDS, GradedRecord, PlanStep, RemediationPlan
from roughmap.roughset import ApproximationSpace, regions, rough_membership

# ingest


def levels(pairs) -> dict:
    """Each id's level in a tree: the number of parent links from it up to the root."""
    parent_of = dict(pairs)
    out = {}
    for nid in parent_of:
        level, parent = 0, parent_of[nid]
        while parent is not None:
            level, parent = level + 1, parent_of[parent]
        out[nid] = level
    return out


def validate(nodes) -> tuple:
    """(nodes as (id, parent, phrase) tuples, levels) of a valid map."""
    normalized = [(*n, None) if len(n) == 2 else tuple(n) for n in nodes]
    if not normalized:
        raise MapValidationError("map has no nodes")
    ids: set = set()
    for nid, _, _ in normalized:
        if nid in ids:
            raise MapValidationError(f"duplicate node id: {nid!r}")
        ids.add(nid)
    for nid, parent, _ in normalized:
        if parent is not None and parent not in ids:
            raise UnknownParentError(f"node {nid!r} references unknown parent {parent!r}")
    parent_of = {nid: parent for nid, parent, _ in normalized}
    resolved: set = set()
    for nid, _, _ in normalized:
        path: list = []
        on_path: set = set()
        current = nid
        while current is not None and current not in resolved:
            if current in on_path:
                cycle = path[path.index(current):] + [current]
                raise MapValidationError("cycle among nodes: " + " -> ".join(cycle))
            on_path.add(current)
            path.append(current)
            current = parent_of[current]
        resolved.update(path)
    roots = [nid for nid, parent, _ in normalized if parent is None]
    if len(roots) > 1:
        raise MapValidationError(f"multiple root nodes: {roots}")
    return tuple(normalized), levels(parent_of.items())


def parse(text: str, source: str = "<string>") -> tuple:
    """(subject, nodes, levels) of a JSON map, checked entry by entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise InputError(f"{source}: expected an object with a 'nodes' array")
    subject = doc.get("subject", "untitled")
    if not isinstance(subject, str):
        raise InputError(f"{source}: 'subject' must be a string")
    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict) or "id" not in entry or "parent" not in entry:
            raise InputError(f"{source}: nodes[{i}] must be an object with 'id' and 'parent'")
        nid, parent, phrase = entry["id"], entry["parent"], entry.get("phrase")
        if not isinstance(nid, str):
            raise InputError(f"{source}: nodes[{i}].id must be a string")
        if parent is not None and not isinstance(parent, str):
            raise InputError(f"{source}: nodes[{i}].parent must be a string or null")
        if phrase is not None and not isinstance(phrase, str):
            raise InputError(f"{source}: nodes[{i}].phrase must be a string")
        nodes.append((nid, parent, phrase))
    try:
        return (subject, *validate(nodes))
    except ValidationError as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def integrate(teacher, student) -> tuple:
    """Integrated (id, parent, level, colour) rows of two (id, parent) lists,
    each validated first: the teacher's failure, then the student's, wins.
    A teacher node keeps its teacher parent and is green when the student
    has it under that parent; the root has no colour; the student's own
    nodes follow, green, under their student parents."""
    validate(teacher)
    validate(student)
    teacher_root = next(nid for nid, parent in teacher if parent is None)
    student_root = next(nid for nid, parent in student if parent is None)
    if teacher_root != student_root:
        raise ValidationError(
            f"root ids differ: teacher {teacher_root!r}, student {student_root!r}"
        )
    student_parent = dict(student)
    teacher_ids = {nid for nid, _ in teacher}
    merged = []
    for nid, parent in teacher:
        if parent is None:
            merged.append((nid, None, None))
            continue
        consistent = nid in student_parent and student_parent[nid] == parent
        merged.append((nid, parent, NodeColor.GREEN if consistent else NodeColor.RED))
    merged += [(nid, parent, NodeColor.GREEN) for nid, parent in student if nid not in teacher_ids]
    level = levels((nid, parent) for nid, parent, _ in merged)
    return tuple((nid, parent, level[nid], color) for nid, parent, color in merged)


# analysis


def by_level(rows) -> tuple:
    """Per level 0 up, in row order: green ids, the other ids (the root
    among them), and ``{parent: [children]}``."""
    size = max(level for _, _, level, _ in rows) + 1
    pos, neg, blocks = [[] for _ in range(size)], [[] for _ in range(size)], [{} for _ in range(size)]
    for nid, parent, level, color in rows:
        (pos if color is NodeColor.GREEN else neg)[level].append(nid)
        blocks[level].setdefault(parent, []).append(nid)
    return pos, neg, blocks


def level_regions(rows) -> tuple:
    """POS, NEG and BND of each level from the deepest to 1.  Classified one
    node at a time, the finest partition of the level, the positive region
    of the green nodes is themselves and the negative region the red ones;
    BND is the parents of the level's nodes, by first appearance."""
    out = []
    for level in range(max(row[2] for row in rows), 0, -1):
        at_level = [row for row in rows if row[2] == level]
        space = ApproximationSpace.from_blocks([(nid,) for nid, _, _, _ in at_level])
        got = regions(space, [nid for nid, _, _, color in at_level if color is NodeColor.GREEN])
        parents = tuple(dict.fromkeys(parent for _, parent, _, _ in at_level))
        out.append(LevelRegions(level, got.pos, got.neg, parents))
    return tuple(out)


def analyze(rows, levels: str) -> AnalysisResult:
    """One record per boundary node of the deepest level, or of every level:
    its degree is the rough membership of its children in the green set,
    with the level's nodes partitioned by parent.  The expected result is
    the mean of the degrees truncated at two decimals."""
    all_regions = level_regions(rows)
    records = []
    for reg in all_regions if levels == ALL_LEVELS else all_regions[:1]:
        blocks = [[nid for nid, parent, level, _ in rows if level == reg.level and parent == node]
                  for node in reg.bnd]
        membership = rough_membership(ApproximationSpace.from_blocks(blocks), reg.pos)
        for node, (green, size) in zip(reg.bnd, membership):
            records.append(ImportanceRecord(node, reg.level - 1, size, green, Fraction(green, size)))
    truncated = [Fraction(math.floor(r.alpha * 100), 100) for r in records]
    return AnalysisResult(all_regions, tuple(records), sum(truncated) / len(records))


def lower(blocks, a) -> set:
    """The union of the blocks inside `a`."""
    return {e for block in blocks if set(block) <= set(a) for e in block}


def upper(blocks, a) -> set:
    """The union of the blocks that meet `a`."""
    return {e for block in blocks if set(block) & set(a) for e in block}


# grading


def grades(records) -> tuple:
    """Each degree as a whole percent, truncated, and the grade of the first
    band of `GRADE_BANDS` that it reaches."""
    out = []
    for rec in records:
        percent = math.floor(rec.alpha * 100)
        grade = next(band.grade for band in GRADE_BANDS if percent >= band.lower_bound_percent)
        out.append(GradedRecord(rec.node, 100, percent, grade))
    return tuple(out)


def plan(records, order: str) -> RemediationPlan:
    """Every record below degree 1, by degree, ascending or descending; ties by node id."""
    pending = [r for r in records if r.alpha < 1]
    key = (lambda r: (r.alpha, r.node)) if order == "asc" else (lambda r: (-r.alpha, r.node))
    return RemediationPlan(order, tuple(PlanStep(r.node, r.alpha) for r in sorted(pending, key=key)))


# reports


def display(value: Fraction, places: int = 2) -> str:
    """`value` truncated toward zero at `places` decimals, trailing zeros dropped."""
    whole, frac = divmod(math.floor(value * 10 ** places), 10 ** places)
    digits = f"{frac:0{places}d}".rstrip("0")
    return f"{whole}.{digits}" if digits else str(whole)


def table(headers, rows) -> list:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def text(result, graded, plan) -> str:
    lines = ["Level regions", "-------------"]
    for reg in result.regions:
        lines.append(
            f"level {reg.level}: POS={{{', '.join(reg.pos)}}}"
            f"  NEG={{{', '.join(reg.neg)}}}  BND={{{', '.join(reg.bnd)}}}"
        )
    lines += ["", "Result analysis", "---------------"]
    rows = [[rec.node, str(rec.level + 1), str(rec.child_count), str(rec.overlap),
             f"{rec.overlap}/{rec.child_count}={display(rec.alpha)}"]
            for rec in result.records]
    lines += table(["BND set", "Level", "Children", "Green", "Importance"], rows)
    if result.records:
        lines.append(
            f"total = {display(result.total)}"
            f"   records = {len(result.records)}"
            f"   expected result = {display(result.expected_result, 3)}"
        )
    lines += ["", "Grades", "------"]
    rows = [[g.node, str(g.expected_percent), str(g.actual_percent), g.grade] for g in graded]
    lines += table(["BND set", "Expected (%)", "Actual (%)", "Grade"], rows)
    title = ("Remediation sequence (smallest importance first)" if plan.order == "asc"
             else "Remediation sequence (largest importance first)")
    lines += ["", title, "-" * len(title)]
    for i, step in enumerate(plan.steps, start=1):
        lines.append(f"{i}. {step.node}  {display(step.alpha)}")
    return "\n".join(lines) + "\n"


def csv_text(result, graded, plan) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "level", "child_count", "overlap", "alpha",
                     "expected_percent", "actual_percent", "grade"])
    graded_by_node = {g.node: g for g in graded}
    for rec in result.records:
        g = graded_by_node[rec.node]
        writer.writerow([rec.node, rec.level + 1, rec.child_count, rec.overlap,
                         display(rec.alpha), g.expected_percent, g.actual_percent, g.grade])
    if result.records:
        writer.writerow(["total", display(result.total)])
        writer.writerow(["expected_result", display(result.expected_result, 3)])
        writer.writerow(["remediation_order", plan.order])
        for step in plan.steps:
            writer.writerow(["remediation", step.node, display(step.alpha)])
    return buf.getvalue()


def json_doc(result, graded, plan) -> dict:
    """The JSON report as a document, for ``json.dumps(..., indent=2)``."""
    return {
        "regions": [{"level": r.level, "pos": list(r.pos), "neg": list(r.neg), "bnd": list(r.bnd)}
                    for r in result.regions],
        "records": [{"node": rec.node, "level": rec.level, "child_count": rec.child_count,
                     "overlap": rec.overlap, "alpha": str(rec.alpha),
                     "alpha_display": display(rec.alpha)} for rec in result.records],
        "total": str(result.total),
        "expected_result": str(result.expected_result),
        "expected_result_display": display(result.expected_result, 3),
        "graded": [{"node": g.node, "expected_percent": g.expected_percent,
                    "actual_percent": g.actual_percent, "grade": g.grade} for g in graded],
        "plan": {"order": plan.order,
                 "steps": [{"node": s.node, "alpha": str(s.alpha), "alpha_display": display(s.alpha)}
                           for s in plan.steps]},
    }


def json_text(result, graded, plan) -> str:
    return json.dumps(json_doc(result, graded, plan), indent=2) + "\n"


RENDERERS = {"text": text, "csv": csv_text, "json": json_text}
