"""The three workloads: seeded inputs, one round of work, and its checks.

Each workload has

* ``setup(cs, seed, tmp, tracer)``: builds every input from the seed
  (sampled oracles, automata, graphings, config files in ``tmp``) and
  returns them;
* ``run_round(cs, inputs, tracer)``: the timed work;
* ``collect(cs, inputs, raw)``: turns what a round returned into
  ``(results, ops, digest)`` outside the timed interval, where ``ops`` lists
  one bool per operation (True = succeeded) and ``digest`` is a
  deterministic summary compared across rounds;
* ``check(cs, inputs, results)``: independent checks of the first round's
  results, run as soon as that round is collected, returning
  ``[(name, passed), ...]``.

``cs`` is a namespace of freshly imported ``cospectral`` modules; calls go
through module attributes so a traced run sees them.  The seed picks the
inputs; the package sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import bench_checks as chk

# --- free_windows ------------------------------------------------------------

TREE_RADIUS = 10
TREE_RADII = (4, 6, 8, 10)
SUBGROUP_RADIUS = 6
N_SUBGROUPS = 64
N_PAIRS = 16
MEMBERSHIP_LEN = 6
SUP_CONJUGATES = dict(experiment="sup_conjugates", radius=8,
                      oracle1="zkernel:weights=1|0", oracle2="stallings:gens=a",
                      component_cap=2000)


def random_letters(rng, d: int, length: int) -> tuple[int, ...]:
    """A uniformly random reduced word of the given length, as letters."""
    letters: list[int] = []
    while len(letters) < length:
        a = int(rng.integers(1, d + 1)) * (1 if rng.random() < 0.5 else -1)
        if letters and letters[-1] == -a:
            continue
        letters.append(a)
    return tuple(letters)


def random_generators(rng) -> list:
    """Criterion-3 style subgroup of F_2: 1-3 random reduced words of
    length 1-6."""
    n = int(rng.integers(1, 4))
    return [random_letters(rng, 2, int(rng.integers(1, 7))) for _ in range(n)]


def _words(cs, gens):
    return [cs.words.Word(g) for g in gens]


class Workload:
    name = ""

    def collect(self, cs, inp: dict, raw):
        return raw


class FreeWindows(Workload):
    name = "free_windows"

    def setup(self, cs, seed: int, tmp: Path, tracer) -> dict:
        rng = np.random.default_rng([seed, 1])
        subgroup_gens = [random_generators(rng) for _ in range(N_SUBGROUPS)]
        pair_gens = [(random_generators(rng), random_generators(rng)) for _ in range(N_PAIRS)]
        build = cs.stallings.build_automaton
        automata = [build(_words(cs, g), 2) for g in subgroup_gens]
        pairs = [(build(_words(cs, g1), 2), build(_words(cs, g2), 2)) for g1, g2 in pair_gens]
        with tracer.span("words.reduce") as counts:
            letter_words = chk.reduced_letter_words(2, MEMBERSHIP_LEN)
            words = [cs.words.reduce_word(w, 2) for w in letter_words]
            counts["words"] = len(words)
        config = cs.experiments.ExperimentConfig(**SUP_CONJUGATES)
        return {"automata": automata, "pairs": pairs, "words": words, "sup_config": config}

    def run_round(self, cs, inp: dict, tracer):
        generate_ball = cs.schreier.generate_ball
        dirichlet = cs.spectral.dirichlet_lower_bound
        cap_error = cs.errors.ResourceCapError
        ops: list[bool] = []

        tree_values = {}
        try:
            tree = generate_ball(cs.schreier.trivial_subgroup_oracle(2), TREE_RADIUS)
            for r in TREE_RADII:
                tree_values[r] = dirichlet(tree, radius=r).value
                ops.append(True)
            del tree
        except cap_error:
            ops.extend([False] * (len(TREE_RADII) - len(tree_values)))

        subgroups = []
        for automaton in inp["automata"]:
            try:
                ball = generate_ball(cs.schreier.StallingsOracle(automaton), SUBGROUP_RADIUS)
                estimate = dirichlet(ball).value
                cogrowth = cs.stallings.cogrowth_rate(automaton)
                index = cs.stallings.subgroup_index(automaton)
                subgroups.append((estimate, cogrowth.alpha, index))
                ops.append(True)
            except cap_error:
                subgroups.append(None)
                ops.append(False)

        membership = cs.stallings.membership
        words = inp["words"]
        accepted = []
        for a1, a2 in inp["pairs"]:
            inter = cs.stallings.intersect_automata(a1, a2)
            with tracer.span("stallings.membership", words=3 * len(words)):
                accepted.append(tuple(
                    bytes(membership(a, w) for w in words) for a in (a1, a2, inter)
                ))
            ops.append(True)

        report = cs.experiments.run_experiment(inp["sup_config"])
        bad_rows = sum(1 for row in report["rows"] if row["status"] != "ok")
        ops.append(bad_rows == 0)

        results = {"tree": tree_values, "subgroups": subgroups, "accepted": accepted,
                   "sup": report}
        digest = json.dumps([tree_values, subgroups, report], sort_keys=True,
                            default=str) + repr(accepted)
        return results, ops, digest

    def check(self, cs, inp: dict, res: dict) -> list:
        out = []
        for r, value in res["tree"].items():
            exact = chk.radial_tree_value(r)
            out.append((f"tree R={r} radial", abs(value - exact) <= 1e-9
                        and value <= math.sqrt(3.0) / 2.0))
        rho = cs.spectral.grigorchuk_rho
        for k, (automaton, row) in enumerate(zip(inp["automata"], res["subgroups"])):
            if row is None:
                continue
            estimate, alpha, index = row
            dense = chk.dense_nonbacktracking_alpha(automaton.table, automaton.d)
            out.append((f"subgroup {k} estimate <= rho(alpha)+0.02",
                        estimate <= rho(alpha, 2) + 0.02))
            out.append((f"subgroup {k} alpha dense", abs(alpha - dense) <= 1e-6))
            if index is not None:
                out.append((f"subgroup {k} finite index alpha=3", abs(alpha - 3.0) <= 1e-6))
        for k, (acc1, acc2, acc12) in enumerate(res["accepted"]):
            both = bytes(x & y for x, y in zip(acc1, acc2))
            out.append((f"pair {k} intersection membership", both == acc12))
        # the intersection (empty representative) is a subgroup of H2, so its
        # Schreier graph covers H2's and its matched-radius bound is no larger
        sup = res["sup"]
        root_rows = [row for row in sup["rows"]
                     if row["representative"] == "" and row["status"] == "ok"]
        out.append(("sup_conjugates intersection <= H2",
                    len(root_rows) == 1
                    and root_rows[0]["estimate"] <= sup["summary"]["estimate_h2"] + 1e-6))
        return out


# --- main_theorem ------------------------------------------------------------

MAIN_RADIUS = 20
MAIN_SEEDS = 8
COGROWTH_SEEDS = 40
COGROWTH_LENGTHS = 12
COGROWTH_CHECK_LEN = 7
GAP_TOL = 0.1


def _report_bytes(base: Path) -> tuple[bytes, bytes]:
    """The JSON and CSV reports the CLI wrote under ``base``."""
    return (Path(str(base) + ".json").read_bytes(), Path(str(base) + ".csv").read_bytes())


def _seed_block(seed: int, size: int) -> str:
    return f"{seed * size}..{seed * size + size - 1}"


class MainTheorem(Workload):
    name = "main_theorem"

    def setup(self, cs, seed: int, tmp: Path, tracer) -> dict:
        main_cfg = tmp / "main_theorem.cfg"
        main_cfg.write_text(
            "experiment = main_theorem\n"
            f"radius = {MAIN_RADIUS}\n"
            f"seeds = {_seed_block(seed, MAIN_SEEDS)}\n"
            "oracle1 = zkernel:weights=1|0\n"
            "oracle2 = perm:n=50\n"
            f"gap_tol = {GAP_TOL}\n",
            encoding="utf-8",
        )
        cog_cfg = tmp / "cogrowth_sweep.cfg"
        cog_cfg.write_text(
            "experiment = cogrowth_sweep\n"
            f"seeds = {_seed_block(seed, COGROWTH_SEEDS)}\n"
            "oracle1 = zkernel:weights=1|0\n"
            f"n_lengths = {COGROWTH_LENGTHS}\n",
            encoding="utf-8",
        )
        seeds = range(seed * MAIN_SEEDS, seed * MAIN_SEEDS + MAIN_SEEDS)
        h2 = {s: cs.irs.permutation_stabilizer_oracle(50, 2, s) for s in seeds}
        return {"main_cfg": main_cfg, "cog_cfg": cog_cfg, "h2": h2,
                "main_out": tmp / "main", "cog_out": tmp / "cog"}

    def _cli(self, cs, cfg: Path, out: Path, name: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cs.cli.main(["experiment", name, "--config", str(cfg), "--out", str(out)])

    def run_round(self, cs, inp: dict, tracer):
        codes = (
            self._cli(cs, inp["main_cfg"], inp["main_out"], "main_theorem"),
            self._cli(cs, inp["cog_cfg"], inp["cog_out"], "cogrowth_sweep"),
        )
        return codes

    def collect(self, cs, inp: dict, codes):
        """Read the reports a round wrote (outside the timed interval)."""
        results = {"codes": codes}
        ops = []
        for key, code, n_seeds in (("main", codes[0], MAIN_SEEDS),
                                   ("cog", codes[1], COGROWTH_SEEDS)):
            path = Path(str(inp[f"{key}_out"]) + ".json")
            if code != 0 or not path.exists():
                results[key] = None
                ops.extend([False] * n_seeds)
                continue
            results[key + "_bytes"] = _report_bytes(inp[f"{key}_out"])
            report = json.loads(results[key + "_bytes"][0])
            results[key] = report
            ops.extend(row["status"] == "ok" for row in report["rows"])
        digest = repr((codes, results.get("main_bytes"), results.get("cog_bytes")))
        return results, ops, digest

    def check(self, cs, inp: dict, res: dict) -> list:
        out = []
        main = res["main"]
        if main is not None:
            for row in main["rows"]:
                if row["status"] != "ok":
                    continue
                seed = row["seed"]
                orbit = len(inp["h2"][seed].orbit_of_root())
                covered = row["h2_graph_covered"] and row["h2_ball_vertices"] == orbit
                out.append((f"seed {seed} covered graph gives rho=1",
                            not covered or row["estimate_h2"] >= 1.0 - 1e-9))
                out.append((f"seed {seed} gap <= gap_tol", row["gap"] <= GAP_TOL))
        cog = res["cog"]
        if cog is not None:
            letter_words = chk.reduced_letter_words(2, COGROWTH_CHECK_LEN)
            words = [cs.words.Word(w) for w in letter_words]
            o1 = cs.experiments.parse_oracle_spec("zkernel:weights=1|0")
            for row in cog["rows"]:
                if row["status"] != "ok":
                    continue
                automaton = cs.stallings.build_automaton(row["generators"], 2)
                o2 = cs.schreier.StallingsOracle(automaton)
                brute = [0] * COGROWTH_CHECK_LEN
                for w in words:
                    if o1.membership(w) and o2.membership(w):
                        brute[len(w) - 1] += 1
                out.append((f"cogrowth seed {row['seed']} brute-force counts",
                            row["counts"][:COGROWTH_CHECK_LEN] == brute))
        # byte-identical reports: a CLI rerun and a direct run of one config
        cfg, base = inp["cog_cfg"], inp["cog_out"]
        first = res.get("cog_bytes")
        code = self._cli(cs, cfg, base, "cogrowth_sweep")
        out.append(("cli rerun exit 0 and identical bytes",
                     code == 0 and _report_bytes(base) == first))
        config = cs.experiments.load_config(str(cfg), {"out": str(base)})
        direct = cs.experiments.report_to_json(cs.experiments.run_experiment(config))
        out.append(("run_experiment bytes match cli report",
                    first is not None and first[0] == direct.encode("utf-8")))
        return out


# --- combinatorics -----------------------------------------------------------

WREATH = dict(experiment="wreath_counterexample", set_a="0..9", set_b="10..19",
              max_len=8, window=40)
N_WREATH_SAMPLES = 2000
N_PERCOLATION = 16
PERCOLATION_RADIUS = 4
N_ROKHLIN = 4
ROKHLIN_POINTS = 2000
ROKHLIN_MAPS = 3
ROKHLIN_DELTA = 0.1
N_MTP = 20
N_EMBEDDED = 6
EMBEDDED_CYCLE = 120
EMBEDDED_ARC = 60
N_TESTFN = 8
BUCKETS = (0.5, 1.0, 1.5, 2.0)


def rokhlin_graphing(rng):
    """Criterion-8 style graphing of fixed size whose maps each carry an odd
    cycle longer than the Rokhlin class cap, so the cap-raising pass runs.

    Weights come in equal-size buckets; each map permutes a subset of one
    bucket, so every map is measure preserving exactly.
    """
    n = ROKHLIN_POINTS
    weights = np.array(BUCKETS)[rng.permutation(np.arange(n) % len(BUCKETS))]
    pairs = []
    for k in range(ROKHLIN_MAPS):
        bucket = np.nonzero(weights == BUCKETS[int(rng.integers(len(BUCKETS)))])[0]
        subset = rng.permutation(bucket)[: (4 * len(bucket)) // 5]
        odd = 2 * int(rng.integers(50, 100)) + 1
        mapping = {int(subset[i]): int(subset[(i + 1) % odd]) for i in range(odd)}
        rest = subset[odd:]
        mapping.update(zip(rest.tolist(), rng.permutation(rest).tolist()))
        pairs.append((f"m{k}", mapping))
    return weights, pairs


def small_graphing(rng):
    """Criterion-7 style small random measure-preserving graphing: 2-60
    points and 1-4 maps, each permuting part of one weight bucket."""
    n = int(rng.integers(2, 61))
    weights = np.array(BUCKETS)[rng.integers(0, len(BUCKETS), size=n)]
    pairs = []
    for k in range(int(rng.integers(1, 5))):
        bucket = np.nonzero(weights == weights[int(rng.integers(0, n))])[0]
        src = rng.choice(bucket, size=int(rng.integers(0, len(bucket) + 1)), replace=False)
        pairs.append((f"m{k}", dict(zip(src.tolist(), rng.permutation(src).tolist()))))
    return weights, pairs


def long_orbit_graphing(rng):
    """One long orbit: the rotation of a cycle, with an arc as the subset.

    The arc's interior is a path, so the embedded power iteration needs
    thousands of steps; the seed places the arc and picks the weight, which
    leaves the amount of work the same on every seed.
    """
    n = EMBEDDED_CYCLE
    rotation = {i: (i + 1) % n for i in range(n)}
    start = int(rng.integers(n))
    arc = [(start + i) % n for i in range(EMBEDDED_ARC)]
    weight = BUCKETS[int(rng.integers(len(BUCKETS)))]
    return np.full(n, weight), [("r", rotation)], arc


class Combinatorics(Workload):
    name = "combinatorics"

    def setup(self, cs, seed: int, tmp: Path, tracer) -> dict:
        rng = np.random.default_rng([seed, 3])
        irs = cs.irs
        graphing = cs.graphing
        percolation = [
            irs.wreath_percolation_oracle(
                irs.sample_bernoulli_percolation(0.5, 40, int(rng.integers(2**31))))
            for _ in range(N_PERCOLATION)
        ]
        rokhlin = [graphing.Graphing.from_pairs(*rokhlin_graphing(rng)) for _ in range(N_ROKHLIN)]
        mtp = []
        for _ in range(N_MTP):
            g = graphing.Graphing.from_pairs(*small_graphing(rng))
            mtp.append((g, graphing.random_kernel(g, int(rng.integers(2**31)))))
        embedded = []
        for _ in range(N_EMBEDDED):
            weights, pairs, arc = long_orbit_graphing(rng)
            embedded.append((graphing.Graphing.from_pairs(weights, pairs), arc))
        testfn = [self._testfn_inputs(cs, rng) for _ in range(N_TESTFN)]
        return {"wreath_config": cs.experiments.ExperimentConfig(**WREATH),
                "percolation": percolation, "rokhlin": rokhlin, "mtp": mtp,
                "embedded": embedded, "testfn": testfn, "seed": seed}

    @staticmethod
    def _testfn_inputs(cs, rng):
        """Criterion-9 style: a cycle's Schreier graph against a finite
        measure-preserving factor with a positive test function."""
        n = int(rng.integers(10, 60))
        cycle = cs.irs.PermutationStabilizerOracle(n, 1, None, perms=[[(i + 1) % n for i in range(n)]])
        m = int(rng.integers(2, 9))
        buckets = np.array([1.0, 2.0])[rng.integers(0, 2, size=m)]
        perm = np.arange(m)
        for value in (1.0, 2.0):
            idx = np.nonzero(buckets == value)[0]
            perm[idx] = rng.permutation(idx)
        forward = {i: int(perm[i]) for i in range(m)}
        backward = {v: k for k, v in forward.items()}
        x2 = cs.graphing.Graphing(buckets, [("p", forward), ("p~", backward)])
        f2 = cs.graphing.TestFunction(rng.random(m) + 0.05, tuple(range(m)))
        size = int(rng.integers(1, n))
        return cycle, n, x2, f2, size

    def run_round(self, cs, inp: dict, tracer):
        schreier = cs.schreier
        graphing = cs.graphing
        cap_error = cs.errors.ResourceCapError
        ops: list[bool] = []

        wreath = cs.experiments.exp_wreath_counterexample(inp["wreath_config"])
        ops.append(True)

        windows = []
        for oracle in inp["percolation"]:
            try:
                ball = schreier.generate_ball(oracle, PERCOLATION_RADIUS)
                value = cs.spectral.dirichlet_lower_bound(ball).value
                component, defect = schreier.folner_search(ball)
                # keep the tables, not the ball and its coset ids
                windows.append(((ball.dist, ball.nbr, ball.radius), value,
                                component.subset_ids(), defect))
                del ball, component
                ops.append(True)
            except cap_error:
                windows.append(None)
                ops.append(False)

        partitions = [graphing.rokhlin_partition(g, ROKHLIN_DELTA) for g in inp["rokhlin"]]
        ops.extend([True] * len(partitions))
        transports = [graphing.mtp_check(g, kernel) for g, kernel in inp["mtp"]]
        ops.extend([True] * len(transports))
        embedded = [graphing.embedded_spectral_radius(g, arc) for g, arc in inp["embedded"]]
        ops.extend([True] * len(embedded))

        reports = []
        for cycle, n, x2, f2, size in inp["testfn"]:
            ball = schreier.generate_ball(cycle, n)
            interval = [ball.index[i] for i in range(size)]
            f, report = graphing.product_test_function(ball, interval, x2, f2)
            reports.append((f.values, report))
            ops.append(True)

        results = {"wreath": wreath, "windows": windows, "partitions": partitions,
                   "transports": transports, "embedded": embedded, "testfn": reports}
        digest = json.dumps(
            [wreath, [w[1:] if w else None for w in windows],
             [(p.B, p.classes) for p in partitions], transports, embedded,
             [r.to_json() for _, r in reports]],
            sort_keys=True, default=str)
        return results, ops, digest

    def check(self, cs, inp: dict, res: dict) -> list:
        out = []
        summary = res["wreath"]["summary"]
        length = summary["max_len"]
        out.append(("wreath words enumerated",
                    summary["words_enumerated"] == 6 * (5**length - 1) // 4))
        out.append(("wreath no common elements", summary["common_nontrivial_elements"] == 0))

        # seeded sample of words through wreath_from_word and both oracles
        irs, words = cs.irs, cs.words
        window = WREATH["window"]
        oracles = [irs.wreath_percolation_oracle(irs.percolation_from_sites(
            cs.experiments.parse_int_set(spec), window)) for spec in (WREATH["set_a"], WREATH["set_b"])]
        rng = np.random.default_rng([inp["seed"], 4])
        agree = True
        for _ in range(N_WREATH_SAMPLES):
            letters = random_letters(rng, 3, int(rng.integers(1, length + 1)))
            element = words.wreath_from_word(words.Word(letters))
            inside = []
            for oracle in oracles:
                coset = oracle.root
                for a in letters:
                    coset = oracle.act(a, coset)
                member = oracle.membership(element)
                agree &= member == (coset == oracle.root)
                inside.append(member)
            agree &= element.is_identity() or not all(inside)
        out.append(("wreath sample agrees with oracles", agree))

        for k, (oracle, window_res) in enumerate(zip(inp["percolation"], res["windows"])):
            if window_res is None:
                continue
            tables, value, ids, defect = window_res
            out.append((f"percolation {k} dense Dirichlet",
                        abs(value - chk.dense_dirichlet(*tables)) <= 1e-8))
            fset = set(ids)
            image = {oracle.act(a, c) for c in fset for a in oracle.letters}
            exact = (len(image - fset) + len(fset - image)) / len(fset)
            out.append((f"percolation {k} folner defect", abs(defect - exact) <= 1e-12))

        for k, (g, part) in enumerate(zip(inp["rokhlin"], res["partitions"])):
            out.append((f"rokhlin {k} invariants", chk.rokhlin_invariants_hold(
                g.weights, [m.mapping for m in g.maps], part.B, part.classes, ROKHLIN_DELTA)))
        for k, (lhs, rhs) in enumerate(res["transports"]):
            out.append((f"mtp {k}", abs(lhs - rhs) <= 1e-9))
        for k, ((g, arc), value) in enumerate(zip(inp["embedded"], res["embedded"])):
            dense = chk.dense_embedded(g.weights, [m.mapping for m in g.maps], arc)
            out.append((f"embedded {k} dense", abs(value - dense) <= 1e-6))
        for k, (values, report) in enumerate(res["testfn"]):
            maps = [m.mapping for m in report.product.maps]
            energy = chk.naive_energy(report.product.weights, maps, values)
            out.append((f"testfn {k} energy inequality",
                        report.slack >= -1e-9 and abs(report.lhs - energy) <= 1e-9))
        return out


WORKLOADS = {w.name: w for w in (FreeWindows(), MainTheorem(), Combinatorics())}
