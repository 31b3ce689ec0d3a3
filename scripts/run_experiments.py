#!/usr/bin/env python3
"""Run all four experiments with desk-scale defaults and write reports.

Outputs land in ./results as <name>.json and <name>.csv; reruns are
byte-identical.  Pass --fast to shrink radii and seed counts; the wreath
search runs to length 10 in both modes.
"""

import argparse
import os
import sys

# One BLAS thread unless the caller sets one, before numpy is imported: the
# Lanczos basis products are small, and with the default threads a solver
# step took 3.6 times as long on 2 CPUs while another process kept one busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from cospectral.experiments import ExperimentConfig, export, run_experiment  # noqa: E402


def configs(fast: bool):
    seeds = tuple(range(5 if fast else 20))
    radius = 20 if fast else 40
    return [
        ExperimentConfig(
            experiment="main_theorem",
            radius=radius,
            seeds=seeds,
            oracle1="zkernel:weights=1|0",
            oracle2="perm:n=50",
        ),
        ExperimentConfig(
            experiment="sup_conjugates",
            radius=8 if fast else 10,
            oracle1="zkernel:weights=1|0",
            oracle2="stallings:gens=a",
            component_cap=2_000,
        ),
        ExperimentConfig(
            experiment="wreath_counterexample",
            set_a="0..9",
            set_b="10..19",
            max_len=10,
            window=40,
        ),
        ExperimentConfig(
            experiment="cogrowth_sweep",
            seeds=tuple(range(3 if fast else 10)),
            oracle1="zkernel:weights=1|0",
            n_lengths=12 if fast else 16,
        ),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller radii and fewer seeds")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for config in configs(args.fast):
        report = run_experiment(config)
        base = os.path.join(args.outdir, config.experiment)
        export(report, "json", base + ".json")
        export(report, "csv", base + ".csv")
        summary = report.get("summary", {})
        print(f"{config.experiment}: wrote {base}.json / .csv")
        for key, value in summary.items():
            if not isinstance(value, (list, dict)):
                print(f"    {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
