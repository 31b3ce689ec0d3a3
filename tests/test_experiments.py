import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cospectral.cli import main
from cospectral.errors import ValidationError
from cospectral.experiments import (
    ExperimentConfig,
    exp_cogrowth_sweep,
    exp_main_theorem,
    exp_sup_conjugates,
    exp_wreath_counterexample,
    export,
    load_config,
    parse_int_set,
    parse_oracle_spec,
    random_subgroup_words,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from cospectral.schreier import StallingsOracle, count_reduced_returns, generate_ball, product_oracle
from cospectral.spectral import critical_exponent, dirichlet_lower_bound
from cospectral.stallings import build_automaton, cogrowth_rate
from cospectral.words import parse_word


def test_parse_int_set():
    assert parse_int_set("0..3") == [0, 1, 2, 3]
    assert parse_int_set("0..2|7|-3") == [-3, 0, 1, 2, 7]
    with pytest.raises(ValidationError):
        parse_int_set("5..2")


def test_parse_oracle_spec_families():
    assert parse_oracle_spec("trivial").d == 2
    assert parse_oracle_spec("whole:d=3").d == 3
    assert parse_oracle_spec("stallings:gens=aa|b,d=2").membership(parse_word("aab"))
    assert parse_oracle_spec("zkernel:weights=1|0").weights == (1, 0)
    assert parse_oracle_spec("perm:n=10,seed=4").n_points == 10
    assert parse_oracle_spec("perm:n=10", seed=4).n_points == 10
    assert parse_oracle_spec("percolation:p=1.0,window=5,seed=0").sample.window == 5
    with pytest.raises(ValidationError):
        parse_oracle_spec("perm:n=10")  # no seed anywhere
    with pytest.raises(ValidationError):
        parse_oracle_spec("martian")
    with pytest.raises(ValidationError):
        parse_oracle_spec("perm:n")
    # keys a family does not read, and a zkernel rank that its weights contradict
    for spec in ("percolation:p=0.5,windw=5,seed=1", "zkernel:weight=1|1", "zkernel:weights=1|0,d=3"):
        with pytest.raises(ValidationError):
            parse_oracle_spec(spec)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "experiment = main_theorem\n"
        "radius = 7\n"
        "seeds = 0..4\n"
        "oracle2 = perm:n=12\n"
    )
    config = load_config(str(path))
    assert config.radius == 7
    assert config.seeds == (0, 1, 2, 3, 4)
    override = load_config(str(path), {"radius": 9, "seeds": "1|3"})
    assert override.radius == 9
    assert override.seeds == (1, 3)


def test_config_file_numbers_get_their_declared_types(tmp_path):
    numeric = [f for f in fields(ExperimentConfig) if f.type in ("int", "float")]
    assert {f.name for f in numeric} >= {"radius", "vertex_cap", "gap_tol"}
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = main_theorem\n" + "".join(f"{f.name} = 3\n" for f in numeric))
    config = load_config(str(path))
    for f in numeric:
        value = getattr(config, f.name)
        assert type(value).__name__ == f.type and value == 3, f.name


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = main_theorem\nbogus = 1\n")
    with pytest.raises(ValidationError):
        load_config(str(path))
    path2 = tmp_path / "bad2.cfg"
    path2.write_text("radius 7\n")
    with pytest.raises(ValidationError):
        load_config(str(path2))


def test_random_subgroup_words_deterministic():
    assert random_subgroup_words(5) == random_subgroup_words(5)
    words = random_subgroup_words(5, max_generators=3, max_word_len=6)
    assert 1 <= len(words) <= 3
    assert all(1 <= len(w) <= 6 for w in words)


def test_main_theorem_whole_h2():
    # intersection with the whole group is H1 itself
    config = ExperimentConfig(
        experiment="main_theorem", radius=8, seeds=(0,), oracle2="whole"
    )
    report = exp_main_theorem(config)
    row = report["rows"][0]
    h1_ball = generate_ball(parse_oracle_spec(config.oracle1), 8)
    h1_est = dirichlet_lower_bound(h1_ball)
    assert row["estimate_h2"] == pytest.approx(1.0)
    assert row["estimate_intersection"] == pytest.approx(h1_est.value, abs=1e-9)
    assert row["gap"] == pytest.approx(1.0 - h1_est.value, abs=1e-9)


def test_main_theorem_whole_h1():
    config = ExperimentConfig(
        experiment="main_theorem", radius=8, seeds=(3,), oracle1="whole",
        oracle2="perm:n=15",
    )
    report = exp_main_theorem(config)
    row = report["rows"][0]
    assert row["estimate_intersection"] == pytest.approx(row["estimate_h2"], abs=1e-9)


def test_main_theorem_records_cap_errors_per_seed():
    config = ExperimentConfig(
        experiment="main_theorem", radius=8, seeds=(0, 1), oracle2="trivial",
        vertex_cap=50,
    )
    report = exp_main_theorem(config)
    assert [r["status"] for r in report["rows"]] == ["error", "error"]
    assert report["summary"]["n_ok"] == 0


def test_sup_conjugates_normal_kernel():
    config = ExperimentConfig(
        experiment="sup_conjugates", radius=6,
        oracle1="zkernel:weights=1|0", oracle2="zkernel:weights=1|0",
        component_cap=300,
    )
    report = exp_sup_conjugates(config)
    assert report["summary"]["n_entries"] == 13
    assert report["summary"]["n_truncated"] == 13
    values = [r["estimate"] for r in report["rows"] if r["status"] == "ok"]
    # all fibers of k1 - k2 are isomorphic lines: equal estimates
    assert max(values) == pytest.approx(min(values), abs=1e-9)
    assert report["summary"]["max_estimate"] == pytest.approx(
        report["summary"]["estimate_h2"], abs=1e-9
    )


def test_sup_conjugates_finite_index_reaches_one():
    config = ExperimentConfig(
        experiment="sup_conjugates", radius=10,
        oracle1="perm:n=3,seed=1", oracle2="perm:n=4,seed=2",
    )
    report = exp_sup_conjugates(config)
    assert report["summary"]["max_estimate"] >= 1.0 - 1e-9


def test_sup_conjugates_dominates_h2_estimate():
    config = ExperimentConfig(
        experiment="sup_conjugates", radius=10,
        oracle1="zkernel:weights=1|0", oracle2="stallings:gens=a",
        component_cap=2000,
    )
    report = exp_sup_conjugates(config)
    assert (
        report["summary"]["max_estimate"]
        >= report["summary"]["estimate_h2"] - 0.05
    )


def test_wreath_counterexample_disjoint_sets():
    config = ExperimentConfig(
        experiment="wreath_counterexample", set_a="0..4", set_b="5..9",
        max_len=6, window=10,
    )
    report = exp_wreath_counterexample(config)
    assert report["summary"]["sets_disjoint"]
    assert report["summary"]["common_nontrivial_elements"] == 0
    assert report["summary"]["folner_best_defect"] == pytest.approx(2 / 5)
    assert report["summary"]["longest_segment_a"] == 5


def test_wreath_counterexample_equal_sets_hit_at_length_one():
    config = ExperimentConfig(
        experiment="wreath_counterexample", set_a="0..4", set_b="0..4",
        max_len=1, window=10,
    )
    report = exp_wreath_counterexample(config)
    assert not report["summary"]["sets_disjoint"]
    assert report["summary"]["common_nontrivial_elements"] >= 1
    assert any(len(w) == 1 for w in report["summary"]["example_common_elements"])


def test_wreath_counterexample_window_validation():
    with pytest.raises(ValidationError, match="lies outside the window"):
        exp_wreath_counterexample(ExperimentConfig(
            experiment="wreath_counterexample", set_a="0..50", set_b="60..70",
            window=40,
        ))
    with pytest.raises(ValidationError):
        exp_wreath_counterexample(ExperimentConfig(
            experiment="wreath_counterexample", set_a="0..4", set_b="5..9",
            max_len=20, window=10,
        ))
    for max_len in (0, -1):
        with pytest.raises(ValidationError):
            exp_wreath_counterexample(ExperimentConfig(
                experiment="wreath_counterexample", set_a="0..4", set_b="0..4",
                max_len=max_len, window=10,
            ))


def test_cogrowth_sweep_whole_h1_is_exact():
    config = ExperimentConfig(
        experiment="cogrowth_sweep", oracle1="whole", gens2="aa|b|abA",
        seeds=(0,), n_lengths=10,
    )
    report = exp_cogrowth_sweep(config)
    row = report["rows"][0]
    automaton = build_automaton("aa,b,abA", 2)
    own_counts = count_reduced_returns(StallingsOracle(automaton), 10)
    assert row["counts"] == own_counts  # exact integer equality
    assert row["alpha_h2"] == pytest.approx(3.0, abs=1e-6)


def test_cogrowth_sweep_trivial_h2_sentinels():
    config = ExperimentConfig(
        experiment="cogrowth_sweep", gens2="trivial", seeds=(0,), n_lengths=6,
    )
    report = exp_cogrowth_sweep(config)
    row = report["rows"][0]
    assert row["alpha_h2"] == 0.0
    assert row["delta_h2"] is None
    assert row["delta_intersection"] is None


def test_cogrowth_sweep_delta_is_the_cogrowth_delta(capsys):
    # ln(alpha) by numpy and by math differ in the last bit for this subgroup
    gens = "aabAA|BA|bbaaab"
    result = cogrowth_rate(build_automaton(gens.replace("|", ","), 2))
    assert result.delta == math.log(result.alpha) == critical_exponent(result.alpha)
    config = ExperimentConfig(
        experiment="cogrowth_sweep", oracle1="whole", gens2=gens, seeds=(0,), n_lengths=4,
    )
    row = exp_cogrowth_sweep(config)["rows"][0]
    assert row["alpha_h2"] == result.alpha
    assert row["delta_h2"] == result.delta
    assert main(["cogrowth", "--gens", gens]) == 0
    assert json.loads(capsys.readouterr().out)["delta"] == result.delta


def test_cogrowth_sweep_kernel_intersection_estimate():
    config = ExperimentConfig(
        experiment="cogrowth_sweep", oracle1="zkernel:weights=1|0",
        gens2="aa|b|abA", seeds=(0,), n_lengths=16,
    )
    report = exp_cogrowth_sweep(config)
    row = report["rows"][0]
    # true value 3; convergence is slow with polynomial corrections, so the
    # threshold is intentionally loose
    assert row["alpha_intersection_root"] >= 2.0
    assert row["counts"][-1] > 0


def test_reports_are_byte_identical_on_rerun():
    config = ExperimentConfig(
        experiment="main_theorem", radius=6, seeds=(0, 1, 2), oracle2="perm:n=8"
    )
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert report_to_json(r1) == report_to_json(r2)
    assert report_to_csv(r1) == report_to_csv(r2)


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_export_roundtrip_and_csv_rows(tmp_path):
    config = ExperimentConfig(
        experiment="main_theorem", radius=6, seeds=(0, 1, 2), oracle2="perm:n=8"
    )
    report = run_experiment(config)
    json_path = tmp_path / "report.json"
    export(report, "json", str(json_path))
    assert json.loads(json_path.read_text()) == report
    csv_path = tmp_path / "report.csv"
    export(report, "csv", str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(config.seeds)  # header + one row per seed
    with pytest.raises(ValidationError):
        export(report, "yaml", str(tmp_path / "x"))
    with pytest.raises(ValidationError):
        export(report, "json", str(tmp_path / "nodir" / "x.json"))


def test_gap_never_meaningfully_negative():
    # trivial inequality: the intersection estimate cannot exceed the H2
    # estimate beyond numerical residual
    config = ExperimentConfig(
        experiment="main_theorem", radius=10, seeds=(0, 1, 2, 3), oracle2="perm:n=12"
    )
    report = exp_main_theorem(config)
    for row in report["rows"]:
        assert row["status"] == "ok"
        assert row["gap"] >= -1e-9


def test_common_element_search_matches_naive_products():
    from cospectral.experiments import _common_elements
    from cospectral.words import Word, WreathElement, wreath_generator

    letters = (1, 2, 3, -1, -2, -3)

    def naive(sites_a, sites_b, max_len):
        gens = {l: wreath_generator(l) for l in letters}
        hits = 0
        words = []
        frontier = [((), WreathElement())]
        for _ in range(max_len):
            nxt = []
            for word, elt in frontier:
                for l in letters:
                    if word and word[-1] == -l:
                        continue
                    new = elt * gens[l]
                    nxt.append((word + (l,), new))
                    if (new.shift == 0 and new.support
                            and all(p in sites_a for p, _ in new.support)
                            and all(p in sites_b for p, _ in new.support)):
                        hits += 1
                        words.append(word + (l,))
            frontier = nxt
        return hits, words

    cases = [
        ({0, 1}, {2, 3}, 5),
        ({0, 1, 2}, {0, 1, 2}, 4),
        ({0}, {0, 1}, 5),
        ({-1, 1}, {0, 2}, 5),
        (set(), {0}, 4),
        (set(range(5)), set(range(3, 8)), 8),
    ]
    for sites_a, sites_b, max_len in cases:
        fast, examples = _common_elements(sites_a, sites_b, max_len, max_len)
        hits, words = naive(sites_a, sites_b, max_len)
        assert fast == hits
        preorder = sorted(words, key=lambda w: [letters.index(l) for l in w])
        assert examples == [str(Word(w)) for w in preorder[:10]]


def test_run_experiments_script_is_byte_identical(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        subprocess.run(
            [sys.executable, str(root / "scripts" / "run_experiments.py"), "--fast",
             "--outdir", str(outdir)],
            check=True, env=env, capture_output=True,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert len(outputs[0]) == 8  # a .json and a .csv per experiment
    assert outputs[0] == outputs[1]
    wreath = json.loads(outputs[0]["wreath_counterexample.json"])
    assert wreath["summary"]["max_len"] == 10


def test_every_experiment_rejects_empty_seeds():
    from cospectral.experiments import EXPERIMENTS

    for name in EXPERIMENTS:
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment=name, seeds=())


def test_main_theorem_rows_are_each_seeds_own_under_a_cap():
    # at R=10 the seeds' intersection windows store 983..991 vertices each,
    # and their H2 orbits, at most 50 points each, share one BFS
    base = dict(experiment="main_theorem", radius=10, oracle2="perm:n=50", vertex_cap=990)
    report = exp_main_theorem(ExperimentConfig(seeds=tuple(range(6)), **base))
    own = [exp_main_theorem(ExperimentConfig(seeds=(seed,), **base))["rows"][0] for seed in range(6)]
    assert report["rows"] == own
    assert [row["status"] for row in own] == ["ok"] * 5 + ["error"]
    assert own[5]["error"].startswith("vertex cap 990 exceeded")


def test_cogrowth_sweep_long_counts_are_each_seeds_own():
    n = 44  # past 2**63 the counts run in Python integers
    report = exp_cogrowth_sweep(ExperimentConfig(
        experiment="cogrowth_sweep", seeds=tuple(range(6)), n_lengths=n,
    ))
    o1 = parse_oracle_spec("zkernel:weights=1|0")
    for seed, row in zip(range(6), report["rows"]):
        h2 = StallingsOracle(build_automaton(random_subgroup_words(seed), 2))
        counts = count_reduced_returns(product_oracle(o1, h2), n)
        assert row["counts"] == counts and all(type(c) is int for c in row["counts"])
