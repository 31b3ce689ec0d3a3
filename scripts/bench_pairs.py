#!/usr/bin/env python3
"""Paired end-to-end benchmark of two source trees.

Usage (from the repository root):

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_<n>.json \\
        [--pairs 10] [--seed 0] [--workload NAME ...]

Each tree is a checkout of this repository.  For every pair and workload the
script runs ``perfbench/run.py --trace 0`` once in each tree, one after the
other, for the ``run_seconds`` that ``BENCHMARK.json`` sets.  The tree that
goes first alternates from pair to pair, so a drift in the host's speed falls
on both sides alike.  After the pairs it runs ``TRACED_PAIRS`` alternating
pairs of ``--trace 1`` runs per workload for the per-layer metrics.  The JSON
written to ``--out`` holds every run and, per workload and end-to-end
metric, each side's median and quartiles, the relative change of the
medians, the number of pairs the change won and a verdict (``gain``,
``within_bound``, ``unresolved``; see ``verdict``); per workload and per-layer
metric, each side's median over its traced runs and the relative change of
the medians; with the CPU count, the Python and numpy versions, and what
pins each tree's code (see ``revision``).  A run whose result line has
``correct: false`` or ``failed > 0`` is kept in the file but left out of
every median and pair win; each side's count of such runs is recorded per
workload (``unsound_runs``), for the end-to-end and for the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TRACED_PAIRS = 3  # one traced run per side cannot resolve the host's speed swings


def git(tree: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(tree), *args],
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.decode("utf-8", "replace").strip()


def revision(tree: Path) -> dict:
    """What pins the tree's code: its commit, the git tree id of its ``src``
    at that commit, and, when it has local edits (``-dirty``), the SHA-256 of
    ``git diff HEAD --binary``; untracked files are listed by name."""
    commit = git(tree, "describe", "--always", "--dirty")
    out = {"commit": commit, "src_tree": git(tree, "rev-parse", "HEAD:src")}
    if commit and commit.endswith("-dirty"):
        diff = subprocess.run(["git", "-C", str(tree), "diff", "HEAD", "--binary"],
                              capture_output=True, check=True).stdout
        out["diff_sha256"] = hashlib.sha256(diff).hexdigest()
        out["untracked"] = (git(tree, "ls-files", "--others", "--exclude-standard")
                            or "").splitlines()
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` process; its result line, or the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def sound(run: dict) -> bool:
    """Whether a run finished with every check passing and no failed operation."""
    return "metrics" in run and run.get("correct") is True and run.get("failed") == 0


def unsound(runs: list[dict]) -> dict:
    """Each side's count of runs that finished but are not ``sound``."""
    return {side: sum(run["side"] == side and "metrics" in run and not sound(run) for run in runs)
            for side in SIDES}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, parent: list[float], change: list[float], lower: bool,
            bound: float | None) -> dict:
    """Three flags for one metric's ``summarize`` entry, whose pair k ran
    ``parent[k]`` and ``change[k]``.  All are None without pairs;
    ``within_bound`` and ``unresolved`` are None without a bound.

    * ``gain``: the change won at least 9/10 of the pairs, and its median
      moved the better way by more than the parent's interquartile range;
    * ``within_bound``: the median's relative worsening is at most ``bound``;
    * ``unresolved``: the parent's IQR over its median exceeds ``bound``,
      so its spread could hide a worsening, and not every change run beats
      every parent run.
    """
    if not entry["pairs"]:
        return {"gain": None, "within_bound": None, "unresolved": None}
    base, iqr = entry["parent"]["median"], entry["parent_iqr"]
    improved = (base - entry["change"]["median"]) * (1 if lower else -1)
    out = {"gain": 10 * entry["change_wins"] >= 9 * entry["pairs"] and improved > iqr,
           "within_bound": None, "unresolved": None}
    if bound is not None and base:
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        out["within_bound"] = -improved / abs(base) <= bound
        out["unresolved"] = iqr / abs(base) > bound and not beats_all
    return out


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread, the median change, the pair wins and
    the ``verdict`` against the metric's ``bound``, over the pairs whose two
    runs are both ``sound``."""
    pairs = {}
    for run in runs:
        if sound(run):
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric.get("better", "lower") == "lower"
        values = {side: [p[side][name] for p in complete] for side in SIDES}
        sides = {side: spread(values[side]) for side in SIDES}
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        wins = sum(c < p if lower else c > p for p, c in zip(values["parent"], values["change"]))
        entry = {
            **sides,
            "change_rel": (change - parent) / parent if parent else None,
            "parent_iqr": (sides["parent"]["q3"] - sides["parent"]["q1"]) if complete else None,
            "change_wins": wins,
            "pairs": len(complete),
        }
        out[name] = {**entry, **verdict(entry, values["parent"], values["change"], lower,
                                        metric.get("bound"))}
    return out


def per_layer(traced: list[dict]) -> dict:
    """Every traced run, each side's count of runs that are not ``sound``,
    and per metric each side's median over its sound runs and the relative
    change of the medians (None where a side has no sound run or the
    parent's median is 0)."""
    values = {side: {} for side in SIDES}
    for run in filter(sound, traced):
        for name, value in run["metrics"].items():
            values[run["side"]].setdefault(name, []).append(value)
    metrics = {}
    for name in sorted(set(values["parent"]) | set(values["change"])):
        parent, change = (statistics.median(values[side][name]) if name in values[side] else None
                          for side in SIDES)
        rel = (change - parent) / parent if parent and change is not None else None
        metrics[name] = {"parent": parent, "change": change, "change_rel": rel}
    return {"runs": traced, "unsound_runs": unsound(traced), "metrics": metrics}


def alternate(trees: dict, workloads: list[str], pairs: int, seed: int, seconds: float,
              trace: int) -> dict:
    """``pairs`` pairs of runs per workload, the side that goes first
    alternating from pair to pair; each workload's runs in order."""
    runs: dict[str, list] = {w: [] for w in workloads}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, seed, seconds, trace)
                runs[workload].append({"pair": pair, "side": side, **result})
                shown = result.get("metrics", {}).get("wall_s", result.get("error", "ok"))
                label = "traced pair" if trace else "pair"
                print(f"{label} {pair} {workload} {side}: {shown}", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree to compare against")
    parser.add_argument("change", type=Path, help="source tree with the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: every workload)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = alternate(trees, workloads, args.pairs, args.seed, seconds, trace=0)
    traced = alternate(trees, workloads, TRACED_PAIRS, args.seed, seconds, trace=1)

    report = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "revisions": {side: revision(tree) for side, tree in trees.items()},
        "settings": {"pairs": args.pairs, "run_seconds": seconds, "seed": args.seed,
                     "traced_runs_per_side": TRACED_PAIRS},
        "workloads": {
            w: {"metrics": summarize(runs[w], spec["end_to_end"]), "runs": runs[w],
                "unsound_runs": unsound(runs[w]), "per_layer": per_layer(traced[w])}
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
