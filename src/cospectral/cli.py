"""Command-line interface.

Exit codes: 0 on success, 2 on validation errors (bad arguments, malformed
inputs), 3 on resource-cap errors (vertex budgets, percolation windows).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ResourceCapError, ValidationError
from .experiments import (
    ExperimentConfig,
    EXPERIMENTS,
    _write_text,
    export,
    load_config,
    parse_int_set,
    parse_oracle_spec,
    report_to_json,
    run_experiment,
)
from .graphing import (
    TestFunction,
    embedded_spectral_radius,
    graphing_from_text,
    interior_of,
    mtp_check,
    orbit_decomposition,
    product_test_function,
    random_kernel,
    rokhlin_partition,
)
from .irs import (
    permutation_stabilizer_oracle,
    sample_bernoulli_percolation,
    sample_to_json,
)
from .schreier import DEFAULT_VERTEX_CAP, ball_to_dot, folner_search, generate_ball
from .spectral import dirichlet_lower_bound
from .stallings import (
    automaton_to_dot,
    build_automaton,
    cogrowth_rate,
    intersect_automata,
    read_generator_file,
    subgroup_index,
)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_ball(args) -> int:
    oracle = parse_oracle_spec(args.oracle, seed=args.seed)
    ball = generate_ball(oracle, args.radius, vertex_cap=args.cap)
    if args.dot:
        _write_text(args.dot, ball_to_dot(ball))
    _emit(ball.summary(), args.out)
    return 0


def _cmd_spectral(args) -> int:
    oracle = parse_oracle_spec(args.oracle, seed=args.seed)
    ball = generate_ball(oracle, args.radius, vertex_cap=args.cap)
    _emit(dirichlet_lower_bound(ball).to_json(), args.out)
    return 0


def _gens(arg: str):
    """Inline 'aa|b|abA' generators, or '@path' for one-word-per-line files."""
    if arg.startswith("@"):
        return read_generator_file(arg[1:])
    return arg.replace("|", ",")


def _cmd_intersect(args) -> int:
    a1 = build_automaton(_gens(args.gens1), args.d)
    a2 = build_automaton(_gens(args.gens2), args.d)
    inter = intersect_automata(a1, a2)
    if args.dot:
        _write_text(args.dot, automaton_to_dot(inter))
    index = subgroup_index(inter)
    _emit(
        {
            "states": inter.n_states,
            "index": index if index is not None else "infinite",
            "cogrowth": cogrowth_rate(inter).to_json(),
        },
        args.out,
    )
    return 0


def _cmd_cogrowth(args) -> int:
    automaton = build_automaton(_gens(args.gens), args.d)
    result = cogrowth_rate(automaton)
    index = subgroup_index(automaton)
    payload = result.to_json()
    payload["states"] = automaton.n_states
    payload["index"] = index if index is not None else "infinite"
    _emit(payload, args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.family == "percolation":
        sample = sample_bernoulli_percolation(args.p, args.window, args.seed)
        _emit(sample_to_json(sample), args.out)
    else:
        oracle = permutation_stabilizer_oracle(args.n, args.d, args.seed)
        _emit(sample_to_json(oracle), args.out)
    return 0


def _load_graphing(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read graphing file {path}: {exc}") from exc
    return graphing_from_text(text)


def _cmd_mtp(args) -> int:
    g = _load_graphing(args.file)
    kernel = random_kernel(g, args.seed, density=args.density)
    lhs, rhs = mtp_check(g, kernel)
    _emit({"lhs": lhs, "rhs": rhs, "difference": lhs - rhs, "kernel_entries": len(kernel)}, args.out)
    return 0


def _cmd_rokhlin(args) -> int:
    g = _load_graphing(args.file)
    part = rokhlin_partition(g, args.delta, class_cap=args.class_cap)
    payload = part.to_json()
    payload["B_weight"] = float(g.weights[list(part.B)].sum()) if part.B else 0.0
    payload["delta"] = args.delta
    _emit(payload, args.out)
    return 0


def _cmd_embedded(args) -> int:
    g = _load_graphing(args.file)
    subset = parse_int_set(args.subset) if args.subset else list(range(g.n_points))
    value = embedded_spectral_radius(g, subset)
    _emit({"embedded_spectral_radius": value, "subset_size": len(subset)}, args.out)
    return 0


def _cmd_testfn(args) -> int:
    oracle = parse_oracle_spec(args.oracle, seed=args.seed)
    ball = generate_ball(oracle, args.radius, vertex_cap=args.cap)
    component, defect = folner_search(ball)
    x2 = _load_graphing(args.x2)
    decomposition = orbit_decomposition(x2)
    biggest = max(decomposition.components, key=len)
    interior = interior_of(x2, biggest)
    if len(interior) == 0:
        raise ValidationError(
            "the largest orbit component of the factor system has empty interior"
        )
    values = np.zeros(x2.n_points)
    values[interior] = 1.0
    f2 = TestFunction(values, tuple(biggest))
    _, report = product_test_function(ball, component.subset, x2, f2)
    payload = report.to_json()
    payload["folner_search_defect"] = defect
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.radius is not None:
        overrides["radius"] = args.radius
    if args.out is not None:
        overrides["out"] = args.out
    if args.config:
        config = load_config(args.config, overrides)
        if config.experiment != args.name:
            raise ValidationError(
                f"config names experiment {config.experiment!r} but the command "
                f"line asked for {args.name!r}"
            )
    else:
        config = ExperimentConfig(experiment=args.name, **overrides)
    report = run_experiment(config)
    if config.out:
        export(report, "json", config.out + ".json")
        export(report, "csv", config.out + ".csv")
        sys.stdout.write(f"wrote {config.out}.json and {config.out}.csv\n")
    else:
        sys.stdout.write(report_to_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cospectral",
        description="Co-spectral radius toolkit: Schreier balls, Stallings "
        "automata, graphings, and intersection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="generate a Schreier ball and summarize it")
    p.add_argument("--oracle", required=True, help="oracle spec, e.g. zkernel:weights=1|0")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p.set_defaults(fn=_cmd_ball)

    p = sub.add_parser("spectral", help="Dirichlet lower bound for the co-spectral radius")
    p.add_argument("--oracle", required=True)
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("intersect", help="intersect two f.g. subgroups of F_d")
    p.add_argument("--gens1", required=True, help="generators, e.g. 'aa|b|abA'")
    p.add_argument("--gens2", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=_cmd_intersect)

    p = sub.add_parser("cogrowth", help="cogrowth rate of a f.g. subgroup")
    p.add_argument("--gens", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cogrowth)

    p = sub.add_parser("sample", help="draw and serialize an IRS-style sample")
    p.add_argument("--family", choices=["percolation", "permutation"], required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--window", type=int, default=1000)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("graphing", help="finite graphing operations")
    gsub = p.add_subparsers(dest="graphing_cmd", required=True)

    q = gsub.add_parser("mtp", help="mass transport check with a seeded kernel")
    q.add_argument("--file", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--density", type=float, default=0.5)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_mtp)

    q = gsub.add_parser("rokhlin", help="Rokhlin-type partition")
    q.add_argument("--file", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--class-cap", type=int, default=64, dest="class_cap")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_rokhlin)

    q = gsub.add_parser("embedded", help="embedded spectral radius of a subset")
    q.add_argument("--file", required=True)
    q.add_argument("--subset", default=None, help="e.g. '0..6|9'")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_embedded)

    q = gsub.add_parser("testfn", help="product test function report")
    q.add_argument("--oracle", required=True)
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--x2", required=True, help="graphing text file for the factor system")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_testfn)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--out", default=None, help="basename for .json and .csv outputs")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
