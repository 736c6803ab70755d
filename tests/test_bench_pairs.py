"""The pair runner's summary arithmetic on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OPS = {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25}
TAIL = {"name": "op_tail_s", "unit": "s", "better": "lower", "bound": 0.25}


def pairs_of(name, parent, change):
    return [({name: {"value": p}}, {name: {"value": c}}) for p, c in zip(parent, change)]


def test_a_gain_needs_nine_tenths_of_the_wins_and_a_margin_above_the_parent_iqr():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    (row,) = bench_pairs.summarize(pairs_of("ops_per_s", parent, [v + 5 for v in parent]), [OPS])
    assert (row["parent"], row["change"]) == (14.5, 19.5)
    assert (row["q1"], row["q3"]) == (12.25, 16.75)
    assert (row["wins"], row["n"]) == (10, 10)
    assert row["rel"] == pytest.approx(5 / 14.5)
    assert row["verdict"] == "gain"
    # a margin of 4 does not clear the parent's IQR of 4.5
    (row,) = bench_pairs.summarize(pairs_of("ops_per_s", parent, [v + 4 for v in parent]), [OPS])
    assert (row["wins"], row["verdict"]) == (10, "-")
    # 8 wins of 10 fall short of nine tenths, however large the margin
    change = [v + 50 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    (row,) = bench_pairs.summarize(pairs_of("ops_per_s", parent, change), [OPS])
    assert (row["wins"], row["verdict"]) == (8, "-")


def test_ties_count_for_neither_side():
    (row,) = bench_pairs.summarize(pairs_of("ops_per_s", [1, 2, 3], [1, 3, 2]), [OPS])
    assert row["wins"] == 1
    assert row["pairs"] == [(1, 1), (2, 3), (3, 2)]


def test_a_lower_is_better_metric_is_worse_only_beyond_its_bound():
    (row,) = bench_pairs.summarize(pairs_of("op_tail_s", [1.0] * 4, [1.3] * 4), [TAIL])
    assert (row["wins"], row["verdict"]) == (0, "worse")
    (row,) = bench_pairs.summarize(pairs_of("op_tail_s", [1.0] * 4, [1.2] * 4), [TAIL])
    assert row["verdict"] == "-"
    (row,) = bench_pairs.summarize(pairs_of("op_tail_s", [2.0, 2.2, 2.4], [1.0, 1.1, 1.2]), [TAIL])
    assert (row["wins"], row["verdict"]) == (3, "gain")


def test_a_pair_missing_a_metric_is_left_out_of_it():
    pairs = pairs_of("ops_per_s", [1, 2, 3], [2, 3, 4])
    pairs[1][1]["ops_per_s"]["value"] = None
    (row,) = bench_pairs.summarize(pairs, [OPS, TAIL])  # no run reports op_tail_s
    assert row["pairs"] == [(1, 2), (3, 4)]
    assert (row["parent"], row["change"], row["n"]) == (2, 3, 2)


def test_runs_that_failed_are_named():
    assert bench_pairs.problems("parent", 3, None) == ["parent seed 3: no result line"]
    bad = {"correct": False, "failed": 2, "attempted": 40}
    assert bench_pairs.problems("change", 4, bad) == ["change seed 4: correct=False failed=2 of 40"]
    assert bench_pairs.problems("change", 4, {"correct": True, "failed": 0}) == []


def test_the_report_gives_medians_quartiles_wins_and_each_pair():
    rows = bench_pairs.summarize(pairs_of("ops_per_s", [10, 12, 14], [15, 18, 21]), [OPS])
    text = bench_pairs.format_rows(rows)
    assert "ops_per_s (ops/s): parent 12 -> change 18 (+50.0%)" in text
    assert "parent quartiles 11-13 (IQR 2); change won 3 of 3; gain" in text
    assert "pairs (parent/change): 10/15, 12/18, 14/21" in text
