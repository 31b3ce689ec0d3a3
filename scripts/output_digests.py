#!/usr/bin/env python3
"""Print a SHA-256 of every output that a change to the package must keep.

Usage (from any directory):

    python3 scripts/output_digests.py

The first lines name each report that ``scripts/run_experiments.py --fast``
writes, with its SHA-256:

    report <file> <sha256>

Then one round of each perfbench workload runs at seeds 0 and 1, giving
the SHA-256 of the round's digest and whether its operations and checks
passed:

    perfbench <workload> seed <seed> <sha256> pass|FAIL

The package is imported from this checkout's ``src/``, and ``perfbench/``
is only imported.  Every file is written under one fixed directory in the
system's temporary directory, removed at the end: the ``main_theorem``
workload's reports record their own paths, so the lines of two checkouts
compare only if both write to the same place.  Run the script in both and
``diff`` its output.  Exit status 1 if any round failed.
"""

import hashlib
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
        for line, ok in itertools.chain(report_lines(), round_lines()):
            print(line, flush=True)
            failed |= not ok
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
