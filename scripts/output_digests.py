#!/usr/bin/env python3
"""Print a SHA-256 of every output that a change to the package must keep.

Usage (from any directory):

    python3 scripts/output_digests.py

The first lines name each report that ``scripts/run_experiments.py --fast``
writes, with its SHA-256:

    report <file> <sha256>

Then each ``cospectral`` command in ``CLI_COMMANDS`` runs in-process,
giving the SHA-256 of what it printed followed by the bytes of the DOT file
it wrote, if any:

    cli <command> <sha256>

Then one round of each perfbench workload runs at seeds 0 and 1, giving
the SHA-256 of the round's digest and whether its operations and checks
passed:

    perfbench <workload> seed <seed> <sha256> pass|FAIL

The package is imported from this checkout's ``src/``, and ``perfbench/``
is only imported.  Every file is written under one fixed directory in the
system's temporary directory, removed at the end: the ``main_theorem``
workload's reports record their own paths, so the lines of two checkouts
compare only if both write to the same place.  Run the script in both and
``diff`` its output.  Exit status 1 if any command or round failed.
"""

import contextlib
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(tempfile.gettempdir()) / "cospectral-output-digests"
SEEDS = (0, 1)
# name -> argv; "{dot}" is a DOT file the command writes, "{rot}", "{swap}"
# and "{parts}" the graphing files and "{capped}" and "{long}" the
# experiment configs that ``cli_lines`` writes first
CLI_COMMANDS = {
    "ball-dot": ["ball", "--oracle", "stallings:gens=aab|bAb", "--radius", "4", "--dot", "{dot}"],
    "intersect-dot": ["intersect", "--gens1", "aab|bAb", "--gens2", "aa|b|abA", "--dot", "{dot}"],
    "cogrowth": ["cogrowth", "--gens", "aabAA|BA|bbaaab"],
    "spectral-dirichlet": ["spectral", "--oracle", "stallings:gens=aab|bAb", "--radius", "8"],
    "spectral-dirichlet-perm": ["spectral", "--oracle", "perm:n=50", "--seed", "0", "--radius", "12"],
    "sample-percolation": ["sample", "--family", "percolation", "--window", "40", "--seed", "2"],
    "sample-permutation": ["sample", "--family", "permutation", "--n", "12", "--seed", "3"],
    "graphing-mtp": ["graphing", "mtp", "--file", "{parts}", "--seed", "3"],
    "graphing-rokhlin": ["graphing", "rokhlin", "--file", "{parts}", "--delta", "0.1",
                         "--class-cap", "3"],
    "graphing-embedded": ["graphing", "embedded", "--file", "{rot}", "--subset", "0..6"],
    "graphing-testfn": ["graphing", "testfn", "--oracle", "zkernel:weights=1", "--radius", "8",
                        "--x2", "{swap}"],
    "experiment-main-theorem-capped": ["experiment", "main_theorem", "--config", "{capped}"],
    "experiment-cogrowth-long": ["experiment", "cogrowth_sweep", "--config", "{long}"],
}
# seed 5's intersection window alone overflows the cap, beside five that fit
CAPPED_CONFIG = ("experiment = main_theorem\nradius = 10\nseeds = 0..5\n"
                 "oracle2 = perm:n=50\nvertex_cap = 990\n")
# point 0 is undefined under every map and 1 -> 1 is explicit; under "m",
# 2..5 is a chain, 6..9 an even cycle and 10..14 a light odd cycle longer
# than the class cap of 3, which forms B; "n" is a 3-cycle on 2, 4, 6
PARTS = ([1.0] * 10 + [0.01] * 5, [
    ("m", {1: 1, 2: 3, 3: 4, 4: 5, 6: 7, 7: 8, 8: 9, 9: 6,
           10: 11, 11: 12, 12: 13, 13: 14, 14: 10}),
    ("n", {2: 4, 4: 6, 6: 2}),
])
# counts past 2**63 run in Python integers
LONG_CONFIG = "experiment = cogrowth_sweep\nseeds = 0..5\nn_lengths = 44\n"

sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# perfbench's runner pins one BLAS thread before numpy is imported
from run import import_package  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_lines():
    outdir = OUT / "reports"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_experiments.py"), "--fast",
                    "--outdir", str(outdir)], env=env, check=True, stdout=subprocess.DEVNULL)
    for path in sorted(outdir.iterdir()):
        yield f"report {path.name} {sha256(path.read_bytes())}", True


def cli_lines():
    from cospectral.cli import main as cli
    from cospectral.graphing import Graphing, graphing_to_text

    outdir = OUT / "cli"
    outdir.mkdir()
    files = {"dot": outdir / "window.dot", "rot": outdir / "rot.txt", "swap": outdir / "swap.txt",
             "parts": outdir / "parts.txt", "capped": outdir / "capped.cfg",
             "long": outdir / "long.cfg"}
    files["capped"].write_text(CAPPED_CONFIG)
    files["long"].write_text(LONG_CONFIG)
    rotation = {i: (i + 1) % 20 for i in range(20)}
    files["rot"].write_text(graphing_to_text(Graphing.from_pairs([1.0] * 20, [("rot", rotation)])))
    swap = {0: 1, 1: 0}
    files["swap"].write_text(graphing_to_text(Graphing([1.0] * 2, [("swap", swap), ("swap~", swap)])))
    files["parts"].write_text(graphing_to_text(Graphing.from_pairs(*PARTS)))
    for name, argv in CLI_COMMANDS.items():
        files["dot"].unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli([arg.format(**files) for arg in argv])
        data = out.getvalue().encode()
        if files["dot"].exists():
            data += files["dot"].read_bytes()
        yield f"cli {name} {sha256(data)}", code == 0


def round_lines():
    tracer = bench_trace.NullTracer()
    for name, workload in bench_workloads.WORKLOADS.items():
        for seed in SEEDS:
            tmp = OUT / f"{name}-seed{seed}"
            tmp.mkdir()
            cs = import_package()
            inputs = workload.setup(cs, seed, tmp, tracer)
            raw = workload.run_round(cs, inputs, tracer)
            results, ops, digest = workload.collect(cs, inputs, raw)
            ok = all(ops) and all(passed for _, passed in workload.check(cs, inputs, results))
            yield (f"perfbench {name} seed {seed} {sha256(digest.encode())} "
                   f"{'pass' if ok else 'FAIL'}"), ok


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    failed = False
    try:
        for line, ok in itertools.chain(report_lines(), cli_lines(), round_lines()):
            print(line, flush=True)
            failed |= not ok
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
