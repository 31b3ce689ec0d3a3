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
