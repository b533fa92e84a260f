"""Byte pins for reports on larger maps than the bundled sample.

The maps are built here from fixed seeds: a 300-level chain whose spine
nodes each have two leaf siblings, and an 80 x 10 wide map whose concept ids
hold characters that csv quotes and JSON escapes.  Each map gets students
that omit, misfile and add concepts.  Every report of every student is
hashed, and the digests were recorded from the implementation that built
one record object and one Fraction per row, so any change in the bytes of a
report fails here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from roughmap.analysis import analyze
from roughmap.conceptmap import integrate, validate_map
from roughmap.grading import grade_records, remediation_sequence, render_report


def _chain_teacher() -> list:
    pairs = [("S", None)]
    prev = "S"
    for i in range(1, 301):
        pairs += [(f"P{i}", prev), (f"L{i}a", prev), (f"L{i}b", prev)]
        prev = f"P{i}"
    return pairs


def _wide_teacher() -> list:
    pairs = [("S", None)]
    for u in range(1, 81):
        pairs.append((f"U{u}", "S"))
        pairs += [(f'U{u},"é{c}"' if c % 4 == 0 else f"U{u}C{c}", f"U{u}") for c in range(10)]
    return pairs


def _student(teacher: list, seed: int, omit: float, misplace: float) -> list:
    """Walk the teacher's nodes, parents first: omit some, misfile some under
    an earlier kept internal node, reattach the children of omitted nodes to
    their nearest kept ancestor, and add a few student-only nodes."""
    rng = random.Random(seed)
    internal = {parent for _, parent in teacher if parent is not None}
    teacher_parent = dict(teacher)
    kept: dict = {}
    kept_internal: list = []
    for nid, parent in teacher:
        if parent is None:
            kept[nid] = None
            kept_internal.append(nid)
            continue
        if rng.random() < omit:
            continue
        while parent not in kept:
            parent = teacher_parent[parent]
        if rng.random() < misplace:
            parent = rng.choice(kept_internal)
        kept[nid] = parent
        if nid in internal:
            kept_internal.append(nid)
    for k in range(len(teacher) // 50):
        kept[f"X{k}"] = rng.choice(kept_internal)
    return list(kept.items())


MAPS = {"chain": _chain_teacher(), "wide": _wide_teacher()}
STUDENTS = ((11, 0.0, 0.0), (12, 0.2, 0.1), (13, 0.35, 0.25))
SETTINGS = {"deepest-asc": ("deepest", "asc"), "all-desc": ("all", "desc")}

DIGESTS = {
    ("chain", "deepest-asc", "text"):
        "27c03b19c7683adb6edbae83b492970889b8c917f6dd23015913eca9863992bd",
    ("chain", "deepest-asc", "csv"):
        "f2754ba317d744c367f712d81c801fb599d07ea77edbdb3860630ae5e4da5249",
    ("chain", "deepest-asc", "json"):
        "e2faae8749cca18e702738705bb1efc4ce211c322bdebaa5d92b62a218dcb268",
    ("chain", "all-desc", "text"):
        "5fa0dc15e86fe92124afb16f7c67cfb965541e1627003af25ed094e1bb0948be",
    ("chain", "all-desc", "csv"):
        "25b93fd09ceed7c5e9ef95e5fc9a6c521d1d7543bde243001b7f2c41eddb344c",
    ("chain", "all-desc", "json"):
        "ba535961010415499ce044b86ce29fb2b16e61c3573ad965c61d6804ea1158fe",
    ("wide", "deepest-asc", "text"):
        "6221e2b2728bce3ca49db29288fee351c2979652b34847eec46aea41fb48fa63",
    ("wide", "deepest-asc", "csv"):
        "22ad0899fcbb7bcd321e227d19eae5b8a13a140d3e04a7a7bbd284e643de7355",
    ("wide", "deepest-asc", "json"):
        "6ab072b66698e6d62b22bdc197532c3c3e75dcd8126fcc3ada24621b54e7b0c6",
    ("wide", "all-desc", "text"):
        "3c249b8c3edb1c5a6317b57db8d587e01cce7e40c3afbf3199342c8dadd83058",
    ("wide", "all-desc", "csv"):
        "dfa734b1a0e775f9c44d5194996363abf6bd24d0e9e5a694e0e544dd25f5fc70",
    ("wide", "all-desc", "json"):
        "d8967ebec10a6717282aab3dd0f40fdb71031ef3f1284a28ee6bacaa6f65dada",
}


@pytest.mark.parametrize("shape,setting,fmt", sorted(DIGESTS))
def test_report_digest(shape, setting, fmt):
    levels, order = SETTINGS[setting]
    teacher_pairs = MAPS[shape]
    teacher = validate_map(teacher_pairs, subject=shape)
    digest = hashlib.sha256()
    for seed, omit, misplace in STUDENTS:
        student = validate_map(_student(teacher_pairs, seed, omit, misplace), subject=shape)
        result = analyze(integrate(teacher, student), levels)
        graded = grade_records(result.records)
        plan = remediation_sequence(result.records, order)
        digest.update(render_report(result, graded, plan, fmt).encode("utf-8"))
    assert digest.hexdigest() == DIGESTS[shape, setting, fmt]
