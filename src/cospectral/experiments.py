"""Experiment driver: desk-scale reproductions of the intersection theorems.

Each experiment takes an ExperimentConfig (bit-reproducible: seeds, radii and
tolerances all live in the config) and returns a JSON-clean report dict with
per-seed rows and a summary.  Estimates on the two sides of a comparison
always use the same radius; lower bounds are only comparable at matched
truncation.  Per-seed resource-cap failures become status rows, not crashes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from itertools import islice
from typing import Callable

import numpy as np

from .errors import ResourceCapError, ValidationError, _number
from .irs import (
    kernel_to_Z_oracle,
    longest_segment,
    maximal_segments,
    percolation_from_sites,
    sample_bernoulli_percolation,
    wreath_percolation_oracle,
    permutation_stabilizer_oracle,
)
from .schreier import (
    DEFAULT_VERTEX_CAP,
    SubgroupOracle,
    StallingsOracle,
    _reduced_return_paths,
    _return_counts,
    _return_radius,
    count_reduced_returns,
    enumerate_double_cosets,
    folner_defect_ids,
    generate_ball,
    generate_balls,
    product_oracle,
    reroot,
    trivial_subgroup_oracle,
    whole_group_oracle,
)
from .spectral import critical_exponent, dirichlet_lower_bound
from .stallings import build_automaton, cogrowth_rate, inverse_slot, parse_generator_list
from .words import WREATH_D, WREATH_LETTERS, Word, wreath_from_word

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_oracle_spec",
    "parse_int_set",
    "random_subgroup_words",
    "exp_main_theorem",
    "exp_sup_conjugates",
    "exp_wreath_counterexample",
    "exp_cogrowth_sweep",
    "EXPERIMENTS",
    "run_experiment",
    "export",
]


@dataclass
class ExperimentConfig:
    """Flat, fully explicit description of one experiment run."""

    experiment: str
    radius: int = 10
    seeds: tuple[int, ...] = (0,)
    d: int = 2
    oracle1: str = "zkernel:weights=1|0"
    oracle2: str = "perm:n=50"
    gap_tol: float = 0.1
    component_cap: int = 10_000
    vertex_cap: int = DEFAULT_VERTEX_CAP
    # wreath counterexample
    window: int = 40
    set_a: str = "0..9"
    set_b: str = "10..19"
    max_len: int = 10
    # cogrowth sweep: sampled H2 by default, or a fixed one via gens2
    # ("trivial" for the trivial subgroup, else '|'-separated generator words)
    n_lengths: int = 16
    max_generators: int = 3
    max_word_len: int = 6
    gens2: str = ""
    out: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("seeds must name at least one seed")

    def to_json(self) -> dict:
        record = asdict(self)
        record["seeds"] = list(self.seeds)
        return record


# config-file values of these fields are read as numbers of their declared type
_NUMBER_TYPES = {
    f.name: {"int": int, "float": float}[f.type]
    for f in fields(ExperimentConfig)
    if f.type in ("int", "float")
}


def parse_int_set(spec: str) -> list[int]:
    """Parse "0..9" / "0..9|15|20..22" into a sorted list of integers."""
    out: set[int] = set()
    for part in str(spec).split("|"):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, _, hi = part.partition("..")
            lo, hi = _number(int, lo, "range bound"), _number(int, hi, "range bound")
            if hi < lo:
                raise ValidationError(f"empty range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(_number(int, part, "integer"))
    return sorted(out)


def _coerce(key: str, value: str):
    value = value.strip()
    if key == "seeds":
        return tuple(parse_int_set(value))
    if key in _NUMBER_TYPES:
        return _number(_NUMBER_TYPES[key], value, key)
    return value


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read the flat "key = value" config file, then apply CLI overrides."""
    known = {f.name for f in fields(ExperimentConfig)}
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in known:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _coerce(key, str(value)) if isinstance(value, str) else value
    if "experiment" not in values:
        raise ValidationError(f"{path}: config must set 'experiment'")
    return ExperimentConfig(**values)


# the keys each oracle family reads; any other key is a validation error
_SPEC_KEYS = {
    "trivial": {"d"}, "whole": {"d"}, "stallings": {"gens", "d"}, "zkernel": {"weights", "d"},
    "perm": {"n", "d", "seed"}, "percolation": {"p", "window", "seed"},
}


def parse_oracle_spec(spec: str, seed: int | None = None, d: int | None = None) -> SubgroupOracle:
    """Build an oracle from a compact spec string.

    Grammar: family[:key=value,key=value...]; list values use '|'.
    Families: trivial (d), whole (d), stallings (gens, d), zkernel
    (weights, d), perm (n, d, seed), percolation (p, window, seed).  A key
    the family does not read, or a zkernel ``d`` other than its number of
    weights, is a ValidationError.  An explicit ``seed`` argument fills in
    samplers whose spec omits one.
    """
    family, _, rest = str(spec).strip().partition(":")
    family = family.strip()
    if family not in _SPEC_KEYS:
        raise ValidationError(f"unknown oracle family {family!r} in {spec!r}")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValidationError(f"malformed oracle parameter {item!r} in {spec!r}")
            params[key.strip()] = value.strip()
    unknown = sorted(set(params) - _SPEC_KEYS[family])
    if unknown:
        raise ValidationError(f"unknown {family} oracle key(s) {', '.join(unknown)} in {spec!r}")
    rank = _number(int, params.get("d", d if d is not None else 2), "rank d")
    use_seed = _number(int, params["seed"], "seed") if "seed" in params else seed
    if use_seed is None and "seed" in _SPEC_KEYS[family]:
        raise ValidationError(f"{family} oracle spec {spec!r} needs a seed")
    if family == "trivial":
        return trivial_subgroup_oracle(rank)
    if family == "whole":
        return whole_group_oracle(rank)
    if family == "stallings":
        gens = params.get("gens", "")
        return StallingsOracle(build_automaton(gens.replace("|", ","), rank))
    if family == "zkernel":
        weights = [_number(int, x, "weight") for x in params.get("weights", "1").split("|")]
        if "d" in params and rank != len(weights):
            raise ValidationError(f"zkernel spec {spec!r} has d={rank} but {len(weights)} weights")
        return kernel_to_Z_oracle(len(weights), weights)
    if family == "perm":
        n = _number(int, params.get("n", 50), "point count n")
        return permutation_stabilizer_oracle(n, rank, use_seed)
    # percolation
    p = _number(float, params.get("p", 0.5), "probability p")
    window = _number(int, params.get("window", 1000), "window")
    return wreath_percolation_oracle(sample_bernoulli_percolation(p, window, use_seed))


def random_subgroup_words(seed: int, d: int = 2, max_generators: int = 3, max_word_len: int = 6) -> list[Word]:
    """Seeded random f.g. subgroup: up to max_generators reduced words."""
    for name, value in (("d", d), ("max_generators", max_generators), ("max_word_len", max_word_len)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, max_generators + 1))
    out = []
    for _ in range(n_gens):
        length = int(rng.integers(1, max_word_len + 1))
        letters: list[int] = []
        alphabet = list(range(1, d + 1)) + list(range(-1, -d - 1, -1))
        while len(letters) < length:
            letter = int(alphabet[rng.integers(0, len(alphabet))])
            if letters and letters[-1] == -letter:
                continue
            letters.append(letter)
        out.append(Word(tuple(letters)))
    return out


# --- experiments -------------------------------------------------------------

def exp_main_theorem(config: ExperimentConfig) -> dict:
    """Intersect a deterministic co-amenable subgroup with sampled subgroups
    and compare co-spectral estimates at matched radius.

    The gap estimate(H2) - estimate(intersection) should stay small; the
    trivial inequality guarantees it is never meaningfully negative.  Every
    seed's H2 window, and every seed's intersection window, comes from one
    shared BFS where the sampled family stacks (``generate_balls``); a seed
    whose own window overflows ``vertex_cap`` gets an error row, its H2
    window's error first.
    """
    h1 = parse_oracle_spec(config.oracle1, d=config.d)
    h2s = [parse_oracle_spec(config.oracle2, seed=seed, d=config.d) for seed in config.seeds]
    balls2 = generate_balls(h2s, config.radius, config.vertex_cap)
    balls12 = generate_balls([product_oracle(h1, h2) for h2 in h2s], config.radius, config.vertex_cap)
    rows = []
    gaps = []
    for seed, ball2, ball12 in zip(config.seeds, balls2, balls12):
        failed = next((b for b in (ball2, ball12) if isinstance(b, ResourceCapError)), None)
        if failed is not None:
            rows.append({"seed": seed, "status": "error", "error": str(failed)})
            continue
        est2 = dirichlet_lower_bound(ball2)
        est12 = dirichlet_lower_bound(ball12)
        gap = est2.value - est12.value
        gaps.append(gap)
        rows.append({
            "seed": seed,
            "status": "ok",
            "estimate_h2": est2.value,
            "estimate_intersection": est12.value,
            "gap": gap,
            "h2_graph_covered": ball2.n_outer == 0,
            "h2_ball_vertices": ball2.n_vertices,
            "intersection_ball_vertices": ball12.n_vertices,
        })
    summary = {
        "n_seeds": len(config.seeds),
        "n_ok": len(gaps),
        "gap_min": min(gaps) if gaps else None,
        "gap_median": float(np.median(gaps)) if gaps else None,
        "gap_max": max(gaps) if gaps else None,
        "frequency_gap_leq_tol": (
            sum(1 for gap in gaps if gap <= config.gap_tol) / len(gaps) if gaps else None
        ),
        "gap_tol": config.gap_tol,
    }
    return {
        "experiment": "main_theorem",
        "config": config.to_json(),
        "rows": rows,
        "summary": summary,
    }


def exp_sup_conjugates(config: ExperimentConfig) -> dict:
    """Estimate the co-spectral radius on every double-coset component within
    reach and report the supremum against the plain H2 estimate."""
    o1 = parse_oracle_spec(config.oracle1, seed=config.seeds[0], d=config.d)
    o2 = parse_oracle_spec(config.oracle2, seed=config.seeds[0], d=config.d)
    entries = enumerate_double_cosets(
        o1, o2, config.radius,
        component_cap=config.component_cap, vertex_cap=config.vertex_cap,
    )
    prod = product_oracle(o1, o2)
    rows = []
    best = None
    for entry in entries:
        try:
            ball = generate_ball(
                reroot(prod, entry.entry_pair), config.radius, vertex_cap=config.vertex_cap
            )
            est = dirichlet_lower_bound(ball)
            row = {
                "representative": str(entry.representative),
                "component_size": entry.size,
                "component_truncated": entry.truncated,
                "estimate": est.value,
                "status": "ok",
            }
            if best is None or est.value > best[0]:
                best = (est.value, str(entry.representative))
        except ResourceCapError as exc:
            row = {
                "representative": str(entry.representative),
                "component_size": entry.size,
                "component_truncated": entry.truncated,
                "status": "error",
                "error": str(exc),
            }
        rows.append(row)
    ball2 = generate_ball(o2, config.radius, vertex_cap=config.vertex_cap)
    est2 = dirichlet_lower_bound(ball2)
    return {
        "experiment": "sup_conjugates",
        "config": config.to_json(),
        "rows": rows,
        "summary": {
            "n_entries": len(entries),
            "n_truncated": sum(entry.truncated for entry in entries),
            "max_estimate": best[0] if best else None,
            "argmax_representative": best[1] if best else None,
            "estimate_h2": est2.value,
        },
    }


def _wreath_oracle(sites, window: int):
    return wreath_percolation_oracle(percolation_from_sites(sites, window))


def _common_elements(sites_a, sites_b, max_len: int, window: int):
    """Count the reduced words of length 1..max_len over {s,a,b}^(+-1) that
    are nontrivial elements of both H_A and H_B, and list the first 10 in
    preorder with letters in slot order (s, a, b, S, A, B).

    A word lies in H_A and H_B iff its path closes at the root of the
    product Schreier graph, and it is trivial iff its path closes in the
    Cayley graph, the oracle over the empty site set.  So the count is a
    difference of closed reduced-path counts.  The examples come from a
    walk of the product ball that follows an edge only if a closed path of
    the remaining length starts along it.
    """
    product = product_oracle(_wreath_oracle(sites_a, window), _wreath_oracle(sites_b, window))
    window_ab = generate_ball(product, _return_radius(max_len), prune_hanging=True)
    table, vectors = _reduced_return_paths(window_ab, max_len)
    # first[s, u]: least k with a closed path of k steps leaving u along slot s
    first = np.full(table.T.shape, max_len + 1)
    hits = 0
    for k, x in enumerate(vectors, start=1):
        hits += int(x[:, 0].sum())
        first[(first > max_len) & (x > 0)] = k
    hits -= sum(count_reduced_returns(_wreath_oracle((), window), max_len))
    if hits == 0:
        return 0, []
    table, first = table.tolist(), first.T.tolist()

    def closed(u: int, back: int, prefix: tuple):
        """Closed reduced words extending ``prefix`` from vertex u, in preorder."""
        for s, letter in enumerate(WREATH_LETTERS):
            if s != back and first[u][s] <= max_len - len(prefix):
                t, word = table[u][s], prefix + (letter,)
                if t == 0:
                    yield word
                yield from closed(t, inverse_slot(s, WREATH_D), word)

    nontrivial = (w for w in closed(0, -1, ()) if not wreath_from_word(Word(w)).is_identity())
    return hits, [str(Word(w)) for w in islice(nontrivial, 10)]


def exp_wreath_counterexample(config: ExperimentConfig) -> dict:
    """Finite surrogate of the disjoint-percolation counterexample.

    (i) exhaustively verifies that no nontrivial element of length <=
    max_len lies in both H_A and H_B; (ii) measures Folner defects of
    shift-interval candidates along the longest segment of A; (iii) wraps
    everything in a JSON narrative, recording the finite window sizes that
    stand in for "arbitrarily long segments".
    """
    sites_a = set(parse_int_set(config.set_a))
    sites_b = set(parse_int_set(config.set_b))
    window = config.window
    for x in sites_a | sites_b:
        if abs(x) > window:
            raise ValidationError(f"site {x} lies outside the window [-{window}, {window}]")
    if config.max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {config.max_len}")
    if config.max_len > window:
        raise ValidationError(
            f"max_len {config.max_len} exceeds the window {window}; walks could escape"
        )

    hits, examples = _common_elements(sites_a, sites_b, config.max_len, window)

    oracle_a = _wreath_oracle(sites_a, window)
    folner_rows = []
    seg_len = longest_segment(sites_a)
    for lo, hi in maximal_segments(sites_a):
        ids = [((), n) for n in range(lo, hi + 1)]
        defect = folner_defect_ids(oracle_a, ids)
        folner_rows.append({
            "segment": f"{lo}..{hi}",
            "size": hi - lo + 1,
            "defect": defect,
        })
    best_defect = min((r["defect"] for r in folner_rows), default=None)

    return {
        "experiment": "wreath_counterexample",
        "config": config.to_json(),
        "rows": folner_rows,
        "summary": {
            "sets_disjoint": not (sites_a & sites_b),
            "common_nontrivial_elements": hits,
            "example_common_elements": examples,
            # every reduced word of length 1..max_len is decided
            "words_enumerated": 6 * (5**config.max_len - 1) // 4,
            "max_len": config.max_len,
            "folner_best_defect": best_defect,
            "longest_segment_a": seg_len,
            "longest_segment_b": longest_segment(sites_b),
            "window": window,
            "narrative": (
                "H_A and H_B are co-amenable (long segments give low-defect "
                "Folner sets along the shift direction), yet no nontrivial "
                "element of the scanned lengths lies in both: the finite "
                "window stands in for 'arbitrarily long segments', so this "
                "is evidence at scale, not a proof."
                if not (sites_a & sites_b)
                else "A and B overlap: common elements exist at length 1."
            ),
        },
    }


def exp_cogrowth_sweep(config: ExperimentConfig) -> dict:
    """Cogrowth of sampled subgroups against their intersection with a
    deterministic co-amenable subgroup, via exact non-backtracking closed
    path counts at the product root.  The counts are those of
    ``count_reduced_returns``, taken on the pruned windows that one shared
    BFS grows for every seed's subgroup (``generate_balls``)."""
    o1 = parse_oracle_spec(config.oracle1, seed=config.seeds[0], d=config.d)
    n = config.n_lengths
    subgroups = []
    for seed in config.seeds:
        if config.gens2 == "trivial":
            words = []
        elif config.gens2:
            words = parse_generator_list(config.gens2.replace("|", ","))
        else:
            words = random_subgroup_words(
                seed, d=config.d,
                max_generators=config.max_generators, max_word_len=config.max_word_len,
            )
        subgroups.append((words, build_automaton(words, config.d)))
    windows = generate_balls(
        [product_oracle(o1, StallingsOracle(automaton)) for _, automaton in subgroups],
        _return_radius(n), config.vertex_cap, prune_hanging=True,
    )
    rows = []
    for seed, (words, automaton), window in zip(config.seeds, subgroups, windows):
        if isinstance(window, ResourceCapError):
            rows.append({
                "seed": seed,
                "generators": ",".join(str(w) for w in words),
                "status": "error",
                "error": str(window),
            })
            continue
        cg = cogrowth_rate(automaton)
        counts = _return_counts(window, n)
        alpha_root = counts[-1] ** (1.0 / n) if counts[-1] > 0 else 0.0
        alpha_ratio = (
            (counts[-1] / counts[-3]) ** 0.5 if n >= 3 and counts[-3] > 0 else None
        )
        delta_h2 = cg.delta
        delta_int = critical_exponent(alpha_root) if alpha_root > 0 else None
        rows.append({
            "seed": seed,
            "generators": ",".join(str(w) for w in words),
            "status": "ok",
            "alpha_h2": cg.alpha,
            "delta_h2": delta_h2,
            "alpha_intersection_root": alpha_root,
            "alpha_intersection_ratio": alpha_ratio,
            "delta_intersection": delta_int,
            "delta_ratio": (
                delta_int / delta_h2 if delta_int is not None and delta_h2 else None
            ),
            "counts": counts,
        })
    return {
        "experiment": "cogrowth_sweep",
        "config": config.to_json(),
        "rows": rows,
        "summary": {
            "n_seeds": len(config.seeds),
            "n_ok": sum(1 for r in rows if r["status"] == "ok"),
            "note": (
                "alpha estimates from finite path counts converge slowly "
                "(polynomial corrections); counts are exact integers"
            ),
        },
    }


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], dict]] = {
    "main_theorem": exp_main_theorem,
    "sup_conjugates": exp_sup_conjugates,
    "wreath_counterexample": exp_wreath_counterexample,
    "cogrowth_sweep": exp_cogrowth_sweep,
}


def run_experiment(config: ExperimentConfig) -> dict:
    fn = EXPERIMENTS.get(config.experiment)
    if fn is None:
        raise ValidationError(
            f"unknown experiment {config.experiment!r}; "
            f"choose one of {sorted(EXPERIMENTS)}"
        )
    return fn(config)


# --- export ------------------------------------------------------------------

def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    rows = report.get("rows", [])
    buf = io.StringIO()
    if not rows:
        return ""
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            json.dumps(row[k]) if isinstance(row.get(k), (list, dict)) else row.get(k, "")
            for k in header
        ])
    return buf.getvalue()


def export(report: dict, fmt: str, path: str) -> None:
    """Write a report as JSON (full) or CSV (per-seed rows); DOT payloads
    under report["dot"] are written verbatim."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    elif fmt == "dot":
        text = report.get("dot", "")
        if not text:
            raise ValidationError("report carries no DOT payload")
    else:
        raise ValidationError(f"unknown export format {fmt!r}")
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    """Write text to a file; an unwritable path is a ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
