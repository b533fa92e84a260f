"""Seeded synthetic inputs for the roughmap benchmark.

Every input is a function of (shape, seed, scale) only, so one seed always
gives byte-identical files.  The program under test sees nothing but the
files written here: a teacher map, one map per student and roster CSVs.

Shapes (at scale 1):

- ``cohort``: 4 units x 4 topics x 4 concepts under one root (85 nodes).
- ``wide``: 600 units x 12 concepts under one root (7801 nodes).
- ``deep``: a spine of 1200 nodes; each spine node has two leaf siblings
  (3601 nodes, 1201 levels).

Each student omits and misplaces teacher concepts at rates that differ from
student to student (up to 30% omitted and 15% misplaced), keeps the rest, and
adds a few extra concepts under internal nodes.  When a parent is omitted, its kept children reattach to the nearest
kept ancestor, so the student map stays a rooted tree.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

SHAPES = ("cohort", "wide", "deep")
SUBJECT = "Synthetic Course"
ROSTER_COLUMNS = ("register_no", "name", "department", "semester", "subject", "map_path")

Pairs = list[tuple[str, "str | None"]]


def teacher_pairs(shape: str, scale: float = 1.0) -> Pairs:
    """(id, parent) pairs of the teacher map, every parent before its children."""
    pairs: Pairs = [("S", None)]
    if shape == "cohort":
        for u in range(1, max(1, round(4 * scale)) + 1):
            pairs.append((f"U{u}", "S"))
            for t in range(1, 5):
                pairs.append((f"U{u}T{t}", f"U{u}"))
                pairs.extend((f"U{u}T{t}C{c}", f"U{u}T{t}") for c in range(1, 5))
    elif shape == "wide":
        for u in range(1, max(1, round(600 * scale)) + 1):
            pairs.append((f"U{u}", "S"))
            pairs.extend((f"U{u}C{c}", f"U{u}") for c in range(1, 13))
    elif shape == "deep":
        prev = "S"
        for i in range(1, max(1, round(1200 * scale)) + 1):
            pairs += [(f"P{i}", prev), (f"L{i}a", prev), (f"L{i}b", prev)]
            prev = f"P{i}"
    else:
        raise ValueError(f"unknown shape: {shape!r}")
    return pairs


def student_pairs(teacher: Pairs, internal: frozenset[str], rng: random.Random,
                  omit: float, misplace: float) -> Pairs:
    """One student's map derived from the teacher's (see the module docstring):
    each teacher concept is omitted with probability `omit`, else misplaced
    with probability `misplace`, else kept."""
    nearest: dict[str, str] = {}  # teacher id -> nearest kept ancestor-or-self
    present: list[str] = []  # kept ids so far; all precede the current node
    out: Pairs = []
    for nid, parent in teacher:
        if parent is None:
            parent_here = None
        else:
            r = rng.random()
            if r < omit:
                nearest[nid] = nearest[parent]
                continue
            if r < omit + misplace:
                # Only earlier nodes are candidates, so no cycle can form.
                parent_here = present[rng.randrange(len(present))]
            else:
                parent_here = nearest[parent]
        out.append((nid, parent_here))
        nearest[nid] = nid
        present.append(nid)
    hosts = [nid for nid in present if nid in internal]
    for k in range(1, rng.randint(1, 4) + 1):
        out.append((f"X{k}", hosts[rng.randrange(len(hosts))]))
    return out


def map_json(pairs: Pairs) -> str:
    nodes = [{"id": nid, "parent": parent} for nid, parent in pairs]
    return json.dumps({"subject": SUBJECT, "nodes": nodes}) + "\n"


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set; chunk i of the roster lists the
    register numbers ``chunks[i]``, whose maps are ``maps_dir/<reg>.json``."""

    teacher: Path
    maps_dir: Path
    rosters: tuple[Path, ...]
    chunks: tuple[tuple[str, ...], ...]

    def student_map(self, register_no: str) -> Path:
        return self.maps_dir / f"{register_no}.json"


def write_inputs(out_dir: Path, shape: str, seed: int, students: int, chunk: int,
                 scale: float = 1.0) -> Inputs:
    """Generate and write a teacher map, `students` student maps and a roster
    split into CSV files of `chunk` rows each."""
    rng = random.Random(f"roughmap-bench:{shape}:{scale}:{seed}")
    teacher = teacher_pairs(shape, scale)
    internal = frozenset(parent for _, parent in teacher if parent is not None)
    maps_dir = out_dir / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    teacher_path = out_dir / "teacher.json"
    teacher_path.write_text(map_json(teacher), encoding="utf-8")
    registers = [f"R{i:04d}" for i in range(1, students + 1)]
    # Student i's weakness is the midpoint of stratum strata[i] of n equal
    # strata of [0, 1]: every roster covers the rate ranges evenly, whatever
    # the seed, so a roster's cost does not depend on the seed.
    strata = rng.sample(range(students), students)
    for stratum, reg in zip(strata, registers):
        weakness = (stratum + 0.5) / students
        pairs = student_pairs(teacher, internal, rng, 0.3 * weakness, 0.15 * weakness)
        (maps_dir / f"{reg}.json").write_text(map_json(pairs), encoding="utf-8")
    chunks = tuple(tuple(registers[i:i + chunk]) for i in range(0, students, chunk))
    rosters = []
    for c, regs in enumerate(chunks):
        path = out_dir / f"roster_{c}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ROSTER_COLUMNS)
            writer.writerows((reg, f"Student {reg}", "CSE", "S5", SUBJECT, f"{reg}.json")
                             for reg in regs)
        rosters.append(path)
    return Inputs(teacher_path, maps_dir, tuple(rosters), chunks)
