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
    record = ab.summary(COMMITS, [1, 2, 3, 4], ab.side_orders(4), runs)
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
    rows = rows_of(ab.summary(COMMITS, [1], ab.side_orders(1),
                              canned({("deep", "setup_s"): ([2], [1])})))
    assert rows["deep", "setup_s"]["old"] == [2, 2, 2]
    assert rows["deep", "setup_s"]["new_won"] == 1


def test_json_line(ab):
    runs = canned({("deep", "setup_s"): ([2, 3], [1, 4])})
    orders = [("new", "old"), ("old", "new")]
    line = json.loads(json.dumps(ab.summary(COMMITS, [1, 2], orders, runs)))
    assert set(line) == {"commits", "host", "seeds", "orders", "runs", "rows"}
    assert set(line["host"]) == {"python", "platform", "cpus", "fs"}
    assert (line["commits"], line["seeds"], line["runs"]) == (COMMITS, [1, 2], runs)
    assert line["orders"] == [["new", "old"], ["old", "new"]]
    assert set(line["rows"][0]) == {"workload", "metric", "old", "new", "ratio", "new_won",
                                    "worse"}


def test_file_system(ab, tmp_path):
    """The longest mount point that a path is under, by whole names, gives the type and
    options; a space in a mount point is written \\040; an unread table gives "unknown"."""
    mounts = tmp_path / "mounts"
    mounts.write_text("/dev/vda / ext4 rw,relatime 0 0\ntmpfs /tmp tmpfs rw,nosuid 0 0\n"
                      "tmpfs /tmp/a\\040b tmpfs ro 0 0\n")
    assert ab.file_system("/tmp/a b/c", mounts) == "tmpfs ro"
    assert ab.file_system("/tmp/a", mounts) == "tmpfs rw,nosuid"
    assert ab.file_system("/tmpx", mounts) == "ext4 rw,relatime"
    assert ab.file_system("/", tmp_path / "absent") == "unknown"


def test_one_random_seed_per_pair(ab):
    """Each campaign draws one distinct seed per pair, and the JSON line carries them."""
    seeds = ab.draw_seeds(10)
    assert len(set(seeds)) == len(seeds) == 10 and seeds != ab.draw_seeds(10)
    runs = canned({("deep", "setup_s"): ([2] * 10, [1] * 10)})
    assert ab.summary(COMMITS, seeds, ab.side_orders(10), runs)["seeds"] == seeds


@pytest.mark.parametrize("pairs", [1, 2, 7, 10])
def test_side_orders_are_balanced(ab, pairs):
    """Half the pairs run OLD first and half NEW first (one either way when the
    count is odd), whatever order the shuffle gives."""
    for _ in range(20):
        orders = ab.side_orders(pairs)
        assert len(orders) == pairs
        assert set(orders) <= {("old", "new"), ("new", "old")}
        assert abs(orders.count(("old", "new")) - orders.count(("new", "old"))) == pairs % 2


STDOUT = """\
cohort seed 3: 4000 students in 80 batch calls, 300 analyze calls (the analyze_ms samples); 41 probes, mean 1.234 ms
raw (uncorrected): students_per_s 1234.5678, analyze_ms.p50 0.6543, analyze_ms.p90 0.9876, setup_s 0.7001
students_per_s                        1200.0000 1/s
{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}
"""


def test_raw_figures(ab):
    """run.py's uncorrected line becomes raw.<metric> entries; without it, none."""
    assert ab.raw_figures(STDOUT) == {"raw.students_per_s": 1234.5678,
                                      "raw.analyze_ms.p50": 0.6543,
                                      "raw.analyze_ms.p90": 0.9876, "raw.setup_s": 0.7001}
    assert ab.raw_figures(STDOUT.replace("raw (uncorrected)", "raw")) == {}


def test_raw_figures_make_no_rows(ab):
    """The table compares the corrected figures only."""
    runs = canned({("cohort", "setup_s"): ([2, 3], [1, 4]),
                   ("cohort", "raw.setup_s"): ([2, 3], [1, 4])})
    rows = rows_of(ab.summary(COMMITS, [1, 2], ab.side_orders(2), runs))
    assert set(rows) == {("cohort", "setup_s")}
