"""The paired benchmark's summaries leave out runs that did not check out."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, wall, correct=True, failed=0):
    return {"pair": pair, "side": side, "correct": correct, "failed": failed,
            "metrics": {"wall_s": wall}}


def test_unsound_runs_are_left_out_and_counted():
    runs = [
        _run(0, "parent", 1.0), _run(0, "change", 0.5),
        _run(1, "parent", 1.0), _run(1, "change", 0.1, correct=False),
        _run(2, "parent", 9.0, failed=3), _run(2, "change", 2.0),
        _run(3, "parent", 1.0), _run(3, "change", 2.0),
        {"pair": 4, "side": "change", "error": "exit 1: boom"},
    ]
    wall = bench_pairs.summarize(runs, [{"name": "wall_s", "better": "lower"}])["wall_s"]
    assert wall["pairs"] == 2  # pairs 0 and 3
    assert wall["change_wins"] == 1
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 1.25
    assert bench_pairs.unsound(runs) == {"parent": 1, "change": 1}

    layers = bench_pairs.per_layer(runs)
    assert layers["unsound_runs"] == {"parent": 1, "change": 1}
    assert layers["metrics"]["wall_s"]["parent"] == 1.0  # of 1.0, 1.0, 1.0
    assert layers["metrics"]["wall_s"]["change"] == 2.0  # of 0.5, 2.0, 2.0


WALL = [{"name": "wall_s", "better": "lower", "bound": 0.25}]


def _pairs(parent, change):
    return [run for k, (p, c) in enumerate(zip(parent, change))
            for run in (_run(k, "parent", p), _run(k, "change", c))]


def test_gain_needs_nine_of_ten_wins_and_a_move_past_the_parent_iqr():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    faster = [0.7] * 9 + [1.5]  # 9 of 10 wins, median far below
    assert bench_pairs.summarize(_pairs(parent, faster), WALL)["wall_s"]["gain"] is True
    eight = [0.7] * 8 + [1.5, 1.5]
    assert bench_pairs.summarize(_pairs(parent, eight), WALL)["wall_s"]["gain"] is False
    barely = [p - 0.005 for p in parent]  # wins every pair, moves less than the IQR
    wall = bench_pairs.summarize(_pairs(parent, barely), WALL)["wall_s"]
    assert wall["change_wins"] == 10 and wall["gain"] is False


def test_within_bound_compares_the_median_worsening_with_the_bound():
    parent = [1.0] * 10
    wall = bench_pairs.summarize(_pairs(parent, [1.2] * 10), WALL)["wall_s"]
    assert wall["within_bound"] is True and wall["gain"] is False
    wall = bench_pairs.summarize(_pairs(parent, [1.3] * 10), WALL)["wall_s"]
    assert wall["within_bound"] is False
    rate = [{"name": "rate", "better": "higher", "bound": 0.1}]
    runs = [{**run, "metrics": {"rate": run["metrics"]["wall_s"]}}
            for run in _pairs(parent, [0.85] * 10)]
    assert bench_pairs.summarize(runs, rate)["rate"]["within_bound"] is False
    assert bench_pairs.summarize(runs, [{"name": "rate", "better": "higher"}])["rate"][
        "within_bound"] is None


def test_unresolved_when_the_parent_spreads_past_the_bound():
    parent = [0.5, 1.5, 0.6, 1.4, 1.0, 0.5, 1.5, 0.6, 1.4, 1.0]  # IQR/median 0.8
    wall = bench_pairs.summarize(_pairs(parent, [1.0] * 10), WALL)["wall_s"]
    assert wall["unresolved"] is True
    wall = bench_pairs.summarize(_pairs(parent, [0.4] * 10), WALL)["wall_s"]
    assert wall["unresolved"] is False  # every change run beats every parent run
    steady = bench_pairs.summarize(_pairs([1.0] * 10, [1.1] * 10), WALL)["wall_s"]
    assert steady["unresolved"] is False
    assert bench_pairs.summarize([], WALL)["wall_s"]["gain"] is None
