"""End-to-end acceptance gate.

Each test checks one exit criterion at its exact stated tolerance and prints
one PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).
All numeric checks are exact string/rational comparisons; the only
tolerances are the stated runtime budgets.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import strategies
from conftest import DATA_DIR, by_id
from roughmap.analysis import analyze, level_regions
from roughmap.cli import main
from roughmap.conceptmap import NodeColor, integrate, validate_map
from roughmap.fileio import parse_concept_map_file
from roughmap.grading import format_fraction, grade_records
from roughmap.roughset import (
    ApproximationSpace,
    boundary,
    indiscernibility,
    is_exact,
    lower_approximation,
    regions,
    rough_membership,
    upper_approximation,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def _sample_analysis():
    teacher = parse_concept_map_file(DATA_DIR / "teacher_map.json")
    student = parse_concept_map_file(DATA_DIR / "student_map.json")
    return analyze(integrate(teacher, student))


def test_importance_table_reproduction():
    started = time.perf_counter()
    result = _sample_analysis()
    elapsed = time.perf_counter() - started
    got = [(r.child_count, r.overlap, format_fraction(r.truncated_alpha, 2))
           for r in result.records]
    expected = [(3, 2, "0.66"), (3, 1, "0.33"), (2, 2, "1"), (2, 1, "0.5"), (4, 1, "0.25")]
    ok = (
        got == expected
        and result.total == Fraction(274, 100)
        and format_fraction(result.total, 2) == "2.74"
        and result.expected_result == Fraction(137, 250)
        and format_fraction(result.expected_result, 3) == "0.548"
        and elapsed < 1.0
    )
    _report("importance-table reproduction (2.74 / 5 = 0.548)", ok,
            f"records={got}, total={result.total}, elapsed={elapsed:.3f}s")


def test_grade_table_reproduction():
    result = _sample_analysis()
    graded = grade_records(result.records)
    got = [(g.node, g.expected_percent, g.actual_percent, g.grade) for g in graded]
    expected = [("U1", 100, 66, "B"), ("U2", 100, 33, "C"), ("U3", 100, 100, "A"),
                ("U4", 100, 50, "B"), ("U5", 100, 25, "C")]
    _report("grade-table reproduction (B, C, A, B, C)", got == expected, f"got={got}")


def test_level_regions_reproduction():
    teacher = parse_concept_map_file(DATA_DIR / "teacher_map.json")
    student = parse_concept_map_file(DATA_DIR / "student_map.json")
    regs = {r.level: r for r in level_regions(integrate(teacher, student))}
    ok = (
        set(regs[1].pos) == {"U1", "U3", "U4", "U5"}
        and set(regs[1].neg) == {"U2"}
        and set(regs[1].bnd) == {"S1"}
        and set(regs[2].bnd) == {"U1", "U2", "U3", "U4", "U5"}
    )
    _report("level-1 regions reproduction (POS/NEG/BND)", ok,
            f"level1={regs[1]}, bnd2={regs[2].bnd}")


# criterion 4: exhaustive oracle sweep ---------------------------------------

def _naive_lower(blocks, subset):
    out = set()
    for block in blocks:
        if set(block) <= subset:
            out |= set(block)
    return out


def _naive_upper(blocks, subset):
    out = set()
    for block in blocks:
        if set(block) & subset:
            out |= set(block)
    return out


def _set_partitions(items):
    """All partitions of a list, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def _random_partition(rng, elements):
    labels = [rng.randrange(len(elements)) for _ in elements]
    blocks: dict[int, list[str]] = {}
    for element, label in zip(elements, labels):
        blocks.setdefault(label, []).append(element)
    return list(blocks.values())


def test_rough_set_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(402)
    mismatches = 0
    cases = 0
    per_size = {}
    for n in range(1, 7):
        elements = [f"x{i}" for i in range(n)]
        partitions = list(_set_partitions(elements))
        while len(partitions) < 50:
            partitions.append(_random_partition(rng, elements))
        per_size[n] = len(partitions)
        for blocks in partitions:
            space = ApproximationSpace.from_blocks([tuple(b) for b in blocks])
            for size in range(n + 1):
                for combo in itertools.combinations(elements, size):
                    subset = set(combo)
                    lo = _naive_lower(blocks, subset)
                    up = _naive_upper(blocks, subset)
                    got = regions(space, subset)
                    membership = rough_membership(space, subset)
                    checks = (
                        membership == tuple((len(set(b) & subset), len(b)) for b in blocks),
                        set(lower_approximation(space, subset)) == lo,
                        set(upper_approximation(space, subset)) == up,
                        set(boundary(space, subset)) == up - lo,
                        set(got.pos) == lo,
                        set(got.neg) == set(elements) - up,
                        set(got.bnd) == up - lo,
                    )
                    mismatches += sum(1 for c in checks if not c)
                    cases += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0 and all(v >= 50 for v in per_size.values())
    _report("rough-set oracle equivalence (sizes 1..6, all subsets)", ok,
            f"{cases} subset cases, partitions/size={per_size}, "
            f"mismatches={mismatches}, elapsed={elapsed:.1f}s")


# criterion 5: randomized property suite, >= 1000 cases each -----------------

_BIG = settings(max_examples=1000, deadline=None, derandomize=True)


def test_randomized_property_suite():
    @_BIG
    @given(strategies.spaces_with_subset())
    def containment(data):
        space, subset = data
        assert set(lower_approximation(space, subset)) <= subset
        assert subset <= set(upper_approximation(space, subset))

    @_BIG
    @given(strategies.spaces_with_subset())
    def duality(data):
        space, subset = data
        complement = space.universe.element_set - subset
        assert set(upper_approximation(space, subset)) == (
            space.universe.element_set - set(lower_approximation(space, complement)))

    @_BIG
    @given(strategies.spaces_with_nested_subsets())
    def monotonicity(data):
        space, small, big = data
        assert set(lower_approximation(space, small)) <= set(lower_approximation(space, big))
        assert set(upper_approximation(space, small)) <= set(upper_approximation(space, big))

    @_BIG
    @given(strategies.spaces_with_subset())
    def exactness(data):
        space, subset = data
        empty_bnd = boundary(space, subset) == ()
        same = lower_approximation(space, subset) == upper_approximation(space, subset)
        assert is_exact(space, subset) == empty_bnd == same

    @_BIG
    @given(strategies.decision_tables(), st.data())
    def ind_refinement(table, data):
        q = set(data.draw(st.sets(st.sampled_from(table.attributes))))
        p = set(data.draw(st.sets(st.sampled_from(sorted(q))))) if q else set()
        coarse = indiscernibility(table, p)
        fine = indiscernibility(table, q)
        for block in fine.blocks:
            assert any(set(block) <= set(c) for c in coarse.blocks)

    checks = [("lower within set within upper", containment),
              ("duality", duality),
              ("monotonicity", monotonicity),
              ("exactness iff empty boundary", exactness),
              ("indiscernibility refinement", ind_refinement)]
    for name, prop in checks:
        try:
            prop()
        except Exception as exc:  # print the FAIL line before pytest reports it
            _report(f"property suite (1000 cases): {name}", False, repr(exc))
            raise
    _report("property suite (1000 randomized cases each, 5 properties)", True)


# criterion 6: integration identity plus single-leaf flip --------------------

def _random_tree(rng, max_nodes=30):
    n = rng.randint(2, max_nodes)
    nodes = [("n0", None)]
    for i in range(1, n):
        nodes.append((f"n{i}", f"n{rng.randrange(i)}"))
    return validate_map(nodes, subject="generated")


def test_integration_identity_and_leaf_flip():
    rng = random.Random(20260810)
    trees = 0
    for _ in range(100):
        cmap = _random_tree(rng)
        trees += 1
        imap = integrate(cmap, cmap)
        assert all(n.color is NodeColor.GREEN for n in imap.nodes if n.parent is not None)

        # drop one random leaf from the student: exactly one record moves,
        # by exactly 1/child_count
        child_counts: dict[str, int] = {}
        for node in cmap.nodes:
            if node.parent is not None:
                child_counts[node.parent] = child_counts.get(node.parent, 0) + 1
        leaves = [n for n in cmap.nodes if n.id not in child_counts]
        dropped = rng.choice(leaves)
        student = validate_map(
            [(n.id, n.parent) for n in cmap.nodes if n.id != dropped.id],
            subject=cmap.subject,
        )
        flipped = integrate(cmap, student)
        assert by_id(flipped)[dropped.id].color is NodeColor.RED
        others = [n for n in flipped.nodes if n.parent is not None and n.id != dropped.id]
        assert all(n.color is NodeColor.GREEN for n in others)

        baseline = analyze(imap, "all").records
        moved = analyze(flipped, "all").records
        changed = [(b, a) for b, a in zip(baseline, moved) if b != a]
        assert len(changed) == 1
        before, after = changed[0]
        assert before.node == dropped.parent
        assert before.alpha - after.alpha == Fraction(1, before.child_count)
    _report("integration identity + single-leaf flip", True, f"{trees} random trees")


# criterion 7: batch determinism ----------------------------------------------

def test_batch_determinism(tmp_path):
    roster = tmp_path / "roster.csv"
    roster.write_text(
        "register_no,name,department,semester,subject,map_path\n"
        "R1,a,d,s,sub,student_map.json\n"
        "R2,b,d,s,sub,student_map.json\n",
        encoding="utf-8",
    )
    ok = True
    for fmt in ("text", "csv", "json"):
        out_a = tmp_path / f"a_{fmt}"
        out_b = tmp_path / f"b_{fmt}"
        for out in (out_a, out_b):
            code = main(["batch", "--teacher", str(DATA_DIR / "teacher_map.json"),
                         "--roster", str(roster), "--maps-dir", str(DATA_DIR),
                         "--out-dir", str(out), "--format", fmt])
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                ok = False
        # two identical students also produce byte-identical reports
        if (out_a / f"R1.{fmt}").read_bytes() != (out_a / f"R2.{fmt}").read_bytes():
            ok = False
    _report("batch determinism (byte-identical reports)", ok)
