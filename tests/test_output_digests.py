"""The output digest script runs every report, command and perfbench round it names."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("cogrowth_sweep", "main_theorem", "sup_conjugates", "wreath_counterexample")
WORKLOADS = ("free_windows", "main_theorem", "combinatorics")
COMMANDS = ("ball-dot", "intersect-dot", "cogrowth", "spectral-dirichlet", "spectral-dirichlet-perm",
            "sample-percolation", "sample-permutation", "graphing-mtp",
            "graphing-rokhlin", "graphing-embedded",
            "graphing-testfn", "experiment-main-theorem-capped", "experiment-cogrowth-long")


def test_output_digests_every_line_passes():
    proc = subprocess.run(
        [sys.executable, "scripts/output_digests.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    reports = [(f, len(h)) for kind, f, h in (l for l in lines if l[0] == "report")]
    assert reports == [(f"{e}.{fmt}", 64) for e in EXPERIMENTS for fmt in ("csv", "json")]
    commands = [(c, len(h)) for kind, c, h in (l for l in lines if l[0] == "cli")]
    assert commands == [(c, 64) for c in COMMANDS]
    rounds = [l for l in lines if l[0] == "perfbench"]
    assert [(w, seed) for _, w, _, seed, _, _ in rounds] == [
        (w, seed) for w in WORKLOADS for seed in ("0", "1")
    ]
    assert all(len(digest) == 64 and verdict == "pass" for *_, digest, verdict in rounds)
    assert len(lines) == len(reports) + len(commands) + len(rounds)
