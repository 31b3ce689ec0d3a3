"""Span tracing for the benchmark, kept entirely outside the package.

A traced run wraps the public functions of each ``cospectral`` layer where
the package binds them (the package modules re-import names from one
another, e.g. ``cospectral.experiments.generate_ball``), so calls made by
the package itself are traced too.  Only whole-function calls are wrapped,
never per-coset calls such as ``oracle.act``.  Spans nest by caller through
a stack, are kept in memory, and are written as JSONL when the run ends.

With tracing off, ``NullTracer`` patches nothing and its ``span`` is a no-op,
so the untraced run measures the unmodified package.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("words", "stallings", "schreier", "spectral", "graphing", "irs",
          "experiments", "cli")


def peak_rss_mib() -> float:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NullTracer:
    """Tracing off: no wrappers, no spans."""

    def install(self) -> None:
        pass

    @contextmanager
    def span(self, name: str, **counts):
        yield counts

    def set_phase(self, phase: str) -> None:
        pass


class Tracer:
    """In-memory span recorder.

    Each span is a dict with its id, the id of the span that was open when
    it started (its caller), name, layer, phase (``setup:k``, ``round:k`` or
    ``check``), start and end in seconds since the tracer was made, and
    counts.  Counts derived from a call's result are computed after the
    span's end time is taken, so deriving them costs the span nothing.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.phase = "init"

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def _open(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "layer": name.split(".", 1)[0],
            "phase": self.phase,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self.stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter() - self.t0
        self.stack.pop()

    @contextmanager
    def span(self, name: str, **counts):
        """Span around a block of the benchmark's own calls into a layer.

        The yielded dict is the span's counts; the block may add to it.
        """
        record = self._open(name)
        record["counts"].update(counts)
        try:
            yield record["counts"]
        finally:
            self._close(record)

    def wrap(self, name: str, fn, counter=None):
        """A traced stand-in for ``fn``; ``counter(result, args, kwargs)``
        returns the span's counts."""

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                record["counts"].update(counter(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a loaded package module
        binds it, as a module attribute or as a value of a module-level
        dict (the experiment registry dispatches through one)."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "cospectral" or name.startswith("cospectral.")]
        for (module_name, attr), (span_name, counter) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, counter)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def write_jsonl(self, path: Path) -> None:
        """One span per line, with duration and self time (duration minus
        the time covered by its direct children)."""
        child_time = _child_time(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                dur = s["end"] - s["start"]
                line = dict(s, dur=dur, self=dur - child_time[s["id"]])
                fh.write(json.dumps(line, sort_keys=True) + "\n")


# --- what a traced run wraps, and the counts it takes from each call ---------

def _ball_counts(ball, args, kwargs):
    return {
        "vertices": ball.n_vertices + ball.n_outer,
        "rim": ball.n_outer,
        "rss_mib": peak_rss_mib(),
    }


def _interior_rows(ball, radius: int) -> int:
    """Interior row count from the ball's public ``dist`` and ``nbr``:
    vertices within ``radius`` all of whose neighbours stay within it."""
    n = ball.n_vertices
    dist = np.asarray(ball.dist)
    nbr = np.asarray(ball.nbr)
    cand = np.nonzero(dist <= radius)[0]
    targets = nbr[cand]
    inside = targets < n
    target_dist = np.where(inside, dist[np.minimum(targets, n - 1)], radius + 1)
    return int((target_dist <= radius).all(axis=1).sum())


def _solver_counts(result, args, kwargs):
    estimate = result[0]
    ball = args[0]
    radius = kwargs.get("radius")
    if radius is None and len(args) > 1:
        radius = args[1]
    if radius is None:
        radius = ball.radius
    rows = _interior_rows(ball, radius)
    return {
        "iterations": estimate.iterations,
        "row_matvecs": rows * estimate.iterations,
        "unconverged": int("not_converged" in estimate.flags),
    }


def _states(automaton, args, kwargs):
    return {"states": automaton.n_states}


def _cogrowth_counts(result, args, kwargs):
    return {"iterations": result.iterations}


def _rokhlin_counts(result, args, kwargs):
    return {"points": args[0].n_points}


def _wreath_counts(report, args, kwargs):
    return {"nodes": report["summary"]["words_enumerated"]}


TRACED = {
    ("cospectral.stallings", "build_automaton"): ("stallings.build", _states),
    ("cospectral.stallings", "intersect_automata"): ("stallings.intersect", _states),
    ("cospectral.stallings", "cogrowth_rate"): ("stallings.cogrowth", _cogrowth_counts),
    ("cospectral.schreier", "generate_ball"): ("schreier.ball", _ball_counts),
    ("cospectral.schreier", "enumerate_double_cosets"): ("schreier.double_coset", None),
    ("cospectral.schreier", "count_reduced_returns"): ("schreier.returns", None),
    ("cospectral.schreier", "folner_search"): ("schreier.folner", None),
    ("cospectral.spectral", "dirichlet_vector"): ("spectral.solver", _solver_counts),
    ("cospectral.graphing", "rokhlin_partition"): ("graphing.rokhlin", _rokhlin_counts),
    ("cospectral.graphing", "mtp_check"): ("graphing.mtp", None),
    ("cospectral.graphing", "embedded_spectral_radius"): ("graphing.embedded", None),
    ("cospectral.graphing", "product_test_function"): ("graphing.testfn", None),
    ("cospectral.irs", "sample_bernoulli_percolation"): ("irs.sample", None),
    ("cospectral.irs", "permutation_stabilizer_oracle"): ("irs.sample", None),
    ("cospectral.experiments", "exp_main_theorem"): ("experiments.main_theorem", None),
    ("cospectral.experiments", "exp_sup_conjugates"): ("experiments.sup_conjugates", None),
    ("cospectral.experiments", "exp_cogrowth_sweep"): ("experiments.cogrowth_sweep", None),
    ("cospectral.experiments", "exp_wreath_counterexample"): ("experiments.wreath", _wreath_counts),
    ("cospectral.experiments", "run_experiment"): ("experiments.run", None),
    ("cospectral.experiments", "export"): ("experiments.export", None),
    ("cospectral.cli", "main"): ("cli.experiment", None),
}


# --- per-layer metrics from the spans ----------------------------------------

def _child_time(spans) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return child_time


def _phase_totals(spans, prefix: str):
    """Per phase with the given prefix: {phase: {key: total}} where keys are
    '<span name>' (seconds), '<span name>#<count>' (summed counts) and
    '<layer>.self' (self seconds)."""
    child_time = _child_time(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        if not s["phase"].startswith(prefix):
            continue
        acc = totals.setdefault(s["phase"], {})
        dur = s["end"] - s["start"]
        acc[s["name"]] = acc.get(s["name"], 0.0) + dur
        self_key = s["layer"] + ".self"
        acc[self_key] = acc.get(self_key, 0.0) + dur - child_time[s["id"]]
        for key, value in s["counts"].items():
            k = f"{s['name']}#{key}"
            acc[k] = acc.get(k, 0.0) + value
    return totals


def layer_totals(spans, n_setups: int, n_rounds: int) -> dict[str, float]:
    """Median setup plus median round of every span total (a phase without
    a given span contributes 0, so medians stay per phase)."""
    out: dict[str, float] = {}
    for prefix, count in (("setup:", n_setups), ("round:", n_rounds)):
        totals = _phase_totals(spans, prefix)
        phases = list(totals.values()) + [{}] * (count - len(totals))
        keys = {k for acc in phases for k in acc}
        for key in keys:
            out[key] = out.get(key, 0.0) + statistics.median(acc.get(key, 0.0) for acc in phases)
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(spans, n_setups: int, n_rounds: int, src_lines: int,
                      traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric named in BENCHMARK.json, as (value, unit)."""
    totals = layer_totals(spans, n_setups, n_rounds)

    def g(key: str) -> float:
        return totals.get(key, 0.0)

    rss = max((s["counts"].get("rss_mib", 0.0) for s in spans
               if s["name"] == "schreier.ball" and not s["phase"].startswith("check")),
              default=0.0)
    m = {
        "schreier.ball_s": (g("schreier.ball"), "s"),
        "schreier.vertices_per_s": (_rate(g("schreier.ball#vertices"),
                                          g("schreier.ball")), "1/s"),
        "schreier.ball_vertices": (g("schreier.ball#vertices"), "count"),
        "schreier.rim_vertices": (g("schreier.ball#rim"), "count"),
        "schreier.peak_rss_mib": (rss, "MiB"),
        "schreier.double_coset_s": (g("schreier.double_coset"), "s"),
        "schreier.returns_s": (g("schreier.returns"), "s"),
        "schreier.folner_s": (g("schreier.folner"), "s"),
        "spectral.solver_s": (g("spectral.solver"), "s"),
        "spectral.matvecs": (g("spectral.solver#iterations"), "count"),
        "spectral.row_matvecs_per_s": (_rate(g("spectral.solver#row_matvecs"),
                                             g("spectral.solver")), "1/s"),
        "spectral.unconverged": (g("spectral.solver#unconverged"), "count"),
        "stallings.build_s": (g("stallings.build"), "s"),
        "stallings.intersect_s": (g("stallings.intersect"), "s"),
        "stallings.membership_s": (g("stallings.membership"), "s"),
        "stallings.cogrowth_s": (g("stallings.cogrowth"), "s"),
        "stallings.cogrowth_iterations": (g("stallings.cogrowth#iterations"), "count"),
        "stallings.states": (g("stallings.build#states")
                             + g("stallings.intersect#states"), "count"),
        "graphing.rokhlin_s": (g("graphing.rokhlin"), "s"),
        "graphing.rokhlin_points_per_s": (_rate(g("graphing.rokhlin#points"),
                                                g("graphing.rokhlin")), "1/s"),
        "graphing.embedded_s": (g("graphing.embedded"), "s"),
        "graphing.mtp_s": (g("graphing.mtp"), "s"),
        "graphing.testfn_s": (g("graphing.testfn"), "s"),
        "irs.sample_s": (g("irs.sample"), "s"),
        "words.reduce_s": (g("words.reduce"), "s"),
        "experiments.wreath_s": (g("experiments.wreath"), "s"),
        "experiments.words_per_s": (_rate(g("experiments.wreath#nodes"),
                                          g("experiments.wreath")), "1/s"),
        "experiments.export_s": (g("experiments.export"), "s"),
        "cli.experiment_s": (g("cli.experiment"), "s"),
        "package.src_lines": (float(src_lines), "lines"),
        "trace.wall_s": (traced_wall_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (g(f"{layer}.self"), "s")
    return m
