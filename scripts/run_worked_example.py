#!/usr/bin/env python3
"""Run the bundled sample maps through the full pipeline and print the
report plus the exact fractions behind the displayed numbers."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from roughmap import (  # noqa: E402
    analyze, grade_records, integrate, remediation_sequence, render_report)
from roughmap.cli import COMMANDS  # noqa: E402
from roughmap.fileio import parse_concept_map_file  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for name, choices, default, _, flag_help in COMMANDS["analyze"][1]:
        if choices is not None:  # the report settings: --format, --order and --levels
            parser.add_argument(name, choices=choices, default=default, help=flag_help)
    args = parser.parse_args()

    teacher = parse_concept_map_file(ROOT / "data" / "teacher_map.json")
    student = parse_concept_map_file(ROOT / "data" / "student_map.json")
    result = analyze(integrate(teacher, student), levels=args.levels)
    graded = grade_records(result.records)
    plan = remediation_sequence(result.records, order=args.order)
    sys.stdout.write(render_report(result, graded, plan, args.format))

    print()
    print("exact importance degrees:")
    for rec in result.records:
        print(f"  {rec.node}: {rec.overlap}/{rec.child_count} = {rec.alpha}"
              f" (truncated {rec.truncated_alpha})")
    print(f"exact expected result: {result.expected_result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
