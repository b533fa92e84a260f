"""scripts/ab.py's summary of a campaign, fed canned runs: no git and no subprocess."""

from __future__ import annotations

import importlib.util
import json

import pytest

from conftest import REPO_ROOT

COMMITS = {"old": "a" * 40, "new": "b" * 40}


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(series):
    """Runs for both sides from `series`: (workload, metric) -> (OLD values, NEW values)."""
    pairs = len(next(iter(series.values()))[0])
    runs = {"old": [{} for _ in range(pairs)], "new": [{} for _ in range(pairs)]}
    for (workload, metric), sides in series.items():
        for side, values in zip(("old", "new"), sides):
            for pair, value in zip(runs[side], values):
                pair.setdefault(workload, {})[metric] = value
    return runs


def rows_of(record):
    return {(row["workload"], row["metric"]): row for row in record["rows"]}


def test_ratio_quartiles_wins_and_marks(ab):
    runs = canned({
        ("wide", "analyze_ms.p50"): ([10, 20, 30, 40], [5, 10, 15, 60]),  # lower is better
        ("wide", "analyze_ms.p90"): ([10, 10, 10, 10], [12, 12, 12, 12]),  # 20% worse, bound 25%
        ("wide", "peak_rss_mb"): ([30, 30, 30, 30], [34, 34, 34, 34]),  # 13% worse, bound 10%
        ("wide", "students_per_s"): ([100, 100, 100, 100], [110, 90, 120, 100]),  # higher is better
        ("cohort", "students_per_s"): ([100, 100, 100, 100], [70, 70, 70, 70]),  # 30% worse
        ("sample", "cold_start_ms"): ([10, 10, 10, 10], [20, 20, 20, 20]),  # no bound
    })
    record = ab.summary(COMMITS, [1, 2, 3, 4], runs)
    rows = rows_of(record)
    p50 = rows["wide", "analyze_ms.p50"]
    assert p50["old"] == pytest.approx([12.5, 25, 37.5])
    assert p50["new"] == pytest.approx([6.25, 12.5, 48.75])
    assert p50["ratio"] == pytest.approx(0.5)
    assert p50["new_won"] == 3 and not p50["worse"]
    per_second = rows["wide", "students_per_s"]
    assert per_second["ratio"] == pytest.approx(1.05)
    assert per_second["new_won"] == 2  # a tie counts for neither side
    assert not per_second["worse"]
    assert not rows["wide", "analyze_ms.p90"]["worse"]
    assert rows["wide", "analyze_ms.p90"]["new_won"] == 0
    assert rows["wide", "peak_rss_mb"]["worse"]
    assert rows["cohort", "students_per_s"]["worse"]
    assert rows["cohort", "students_per_s"]["new_won"] == 0
    assert rows["sample", "cold_start_ms"]["ratio"] == pytest.approx(2)
    assert not rows["sample", "cold_start_ms"]["worse"]


def test_one_pair(ab):
    rows = rows_of(ab.summary(COMMITS, [1], canned({("deep", "setup_s"): ([2], [1])})))
    assert rows["deep", "setup_s"]["old"] == [2, 2, 2]
    assert rows["deep", "setup_s"]["new_won"] == 1


def test_json_line(ab):
    runs = canned({("deep", "setup_s"): ([2, 3], [1, 4])})
    line = json.loads(json.dumps(ab.summary(COMMITS, [1, 2], runs)))
    assert set(line) == {"commits", "host", "seeds", "runs", "rows"}
    assert set(line["host"]) == {"python", "platform", "cpus"}
    assert (line["commits"], line["seeds"], line["runs"]) == (COMMITS, [1, 2], runs)
    assert set(line["rows"][0]) == {"workload", "metric", "old", "new", "ratio", "new_won",
                                    "worse"}
