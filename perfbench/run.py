#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``cospectral`` package.

Usage (from the repository root):

    python3 perfbench/run.py --workload free_windows --seed 0 --seconds 20 --trace 0

One process runs one workload: it imports the package from ``src/`` and
builds the workload's inputs from the seed several times (set-up), then
repeats whole rounds of the workload until ``--seconds`` have passed, then
checks the first round's outputs against independent computations and
checks that every later round produced the same outputs.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over rounds
and set-ups); with ``--trace 1`` the package's layers are wrapped, spans are
written to ``.bench_build/traces/<workload>-seed<seed>.jsonl`` and the
metrics are the per-layer ones.  See perfbench/README.md.
"""

import os

# Pin the BLAS thread count before numpy is imported: the workloads are
# single-threaded Python plus small numpy kernels, and one BLAS thread keeps
# timings and floating-point reductions repeatable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cospectral"
BUILD = ROOT / ".bench_build"
N_SETUPS = 9
MODULES = bench_trace.LAYERS + ("errors",)


def import_package() -> SimpleNamespace:
    """Import ``cospectral`` afresh from ``src/`` (dropping any copy already
    loaded, so every set-up pays the import) and return its modules."""
    for name in [m for m in sys.modules if m == "cospectral" or m.startswith("cospectral.")]:
        del sys.modules[name]
    package = importlib.import_module("cospectral")
    if Path(package.__file__).resolve().parent != PACKAGE.resolve():
        raise ImportError(f"cospectral imported from {package.__file__}, not {PACKAGE}")
    return SimpleNamespace(**{name: importlib.import_module(f"cospectral.{name}")
                              for name in MODULES})


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(PACKAGE.glob("*.py")))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = bench_trace.Tracer() if trace else bench_trace.NullTracer()
    tmp = BUILD / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for k in range(N_SETUPS):
            tracer.set_phase(f"setup:{k}")
            t0 = time.perf_counter()
            cs = import_package()
            tracer.install()
            inputs = workload.setup(cs, seed, tmp, tracer)
            setup_times.append(time.perf_counter() - t0)
            gc.collect()  # free the previous import's module cycles untimed

        walls, cpus = [], []
        ops_attempted = ops_failed = mismatched = 0
        checks = first_digest = None
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            tracer.set_phase(f"round:{len(walls)}")
            gc.collect()  # every round starts from the same heap state
            c0, t0 = time.process_time(), time.perf_counter()
            raw = workload.run_round(cs, inputs, tracer)
            t1, c1 = time.perf_counter(), time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            tracer.set_phase("collect")
            results, ops, digest = workload.collect(cs, inputs, raw)
            del raw
            ops_attempted += len(ops)
            ops_failed += sum(1 for ok in ops if not ok)
            if checks is None:
                # check round 1 now, so no round's outputs outlive it; the
                # checks' time does not count against the measuring time
                tracer.set_phase("check")
                t2 = time.perf_counter()
                checks = workload.check(cs, inputs, results)
                deadline += time.perf_counter() - t2
                first_digest = digest
            elif digest != first_digest:
                mismatched += 1
            del results

        failed_checks = [name for name, ok in checks if not ok]
        peak_rss = bench_trace.peak_rss_mib()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_rounds = len(walls)
    for name in failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    if mismatched:
        print(f"{mismatched} rounds differed from the first", file=sys.stderr)
    print(f"{workload.name} seed {seed}: {n_rounds} rounds, wall "
          + " ".join(f"{w:.3f}" for w in walls)
          + f" s; setup {' '.join(f'{s:.3f}' for s in setup_times)} s; "
          f"{len(checks)} checks", file=sys.stderr)

    if trace:
        path = BUILD / "traces" / f"{workload.name}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"trace: {path} ({len(tracer.spans)} spans)", file=sys.stderr)
        metrics = bench_trace.per_layer_metrics(
            tracer.spans, N_SETUPS, n_rounds, src_lines(), statistics.median(walls))
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    # every round is verified by the same checks (later rounds through the
    # digest), so failures are the same share of attempts whatever the count
    return {
        "correct": not failed_checks and not mismatched,
        "attempted": ops_attempted + n_rounds * len(checks),
        "failed": ops_failed + n_rounds * len(failed_checks) + mismatched,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(bench_workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
