import json

import numpy as np
import pytest

from cospectral.cli import main
from cospectral.graphing import Graphing, graphing_to_text
from cospectral.irs import permutation_stabilizer_oracle


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_ball_command(capsys, tmp_path):
    dot_path = tmp_path / "ball.dot"
    code, out = run(capsys, [
        "ball", "--oracle", "trivial", "--radius", "2", "--dot", str(dot_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"vertices": 17, "edges": 68, "radius": 2, "truncated": False}
    assert dot_path.read_text().count("[shape=") == 17


def test_spectral_command_dirichlet(capsys):
    code, out = run(capsys, [
        "spectral", "--oracle", "zkernel:weights=1", "--radius", "10",
    ])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - np.cos(np.pi / 20)) < 1e-6


@pytest.mark.parametrize("option, value", [("method", "return"), ("steps", "3")])
def test_spectral_command_has_no_return_options(option, value):
    # the return-probability estimator is gone; the Dirichlet bound dominates it
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--oracle", "whole", f"--{option}", value])
    assert exc.value.code == 2


def test_intersect_command(capsys, tmp_path):
    dot_path = tmp_path / "inter.dot"
    code, out = run(capsys, [
        "intersect", "--gens1", "aa|b|abA", "--gens2", "a|b", "--dot", str(dot_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 2
    assert abs(payload["cogrowth"]["alpha"] - 3.0) < 1e-6
    assert dot_path.read_text() == (
        "digraph stallings {\n"
        "  q0 [shape=doublecircle];\n"
        "  q1 [shape=circle];\n"
        '  q0 -> q1 [label="a"];\n'
        '  q0 -> q0 [label="b"];\n'
        '  q1 -> q0 [label="a"];\n'
        '  q1 -> q1 [label="b"];\n'
        "}\n"
    )


def test_cogrowth_command(capsys):
    code, out = run(capsys, ["cogrowth", "--gens", "a"])
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == "infinite"
    assert abs(payload["alpha"] - 1.0) < 1e-6


def test_sample_command(capsys):
    code, out = run(capsys, [
        "sample", "--family", "percolation", "--p", "1.0", "--window", "3",
        "--seed", "0",
    ])
    assert code == 0
    assert json.loads(out)["data"]["sites"] == list(range(-3, 4))
    code, out = run(capsys, [
        "sample", "--family", "permutation", "--n", "12", "--d", "2", "--seed", "3",
    ])
    assert code == 0
    perms = permutation_stabilizer_oracle(12, 2, 3).perms
    assert json.loads(out)["data"]["perms"] == [p.tolist() for p in perms]


def _write_graphing(tmp_path, n=6):
    g = Graphing.from_pairs([1.0] * n, [("rot", {i: (i + 1) % n for i in range(n)})])
    path = tmp_path / "g.txt"
    path.write_text(graphing_to_text(g))
    return path


def test_graphing_mtp_command(capsys, tmp_path):
    path = _write_graphing(tmp_path)
    code, out = run(capsys, ["graphing", "mtp", "--file", str(path), "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["difference"]) <= 1e-9


def test_graphing_rokhlin_command(capsys, tmp_path):
    path = _write_graphing(tmp_path, n=5)
    code, out = run(capsys, [
        "graphing", "rokhlin", "--file", str(path), "--delta", "0.1",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["B_size"] == 0
    assert payload["n_classes"] == 5


def test_graphing_embedded_command(capsys, tmp_path):
    path = _write_graphing(tmp_path, n=20)
    code, out = run(capsys, [
        "graphing", "embedded", "--file", str(path), "--subset", "0..6",
    ])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["embedded_spectral_radius"] - np.cos(np.pi / 6)) < 1e-6


def test_graphing_testfn_command(capsys, tmp_path):
    g = Graphing(
        [1.0, 1.0],
        [("swap", {0: 1, 1: 0}), ("swap~", {0: 1, 1: 0})],
    )
    path = tmp_path / "swap.txt"
    path.write_text(graphing_to_text(g))
    code, out = run(capsys, [
        "graphing", "testfn", "--oracle", "zkernel:weights=1", "--radius", "8",
        "--x2", str(path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["inequality_holds"]
    assert payload["slack"] >= -1e-9


def test_experiment_command_with_config(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = main_theorem\nradius = 6\nseeds = 0..1\noracle2 = perm:n=8\n"
    )
    out_base = tmp_path / "report"
    code, _ = run(capsys, [
        "experiment", "main_theorem", "--config", str(cfg), "--out", str(out_base),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["experiment"] == "main_theorem"
    assert len(report["rows"]) == 2
    csv_text = (tmp_path / "report.csv").read_text()
    assert len(csv_text.strip().splitlines()) == 3


def test_experiment_command_inline(capsys):
    code, out = run(capsys, [
        "experiment", "sup_conjugates", "--radius", "4", "--seed", "1",
    ])
    assert code == 0
    assert json.loads(out)["experiment"] == "sup_conjugates"


def test_exit_code_validation_error(capsys):
    code = main(["ball", "--oracle", "martian", "--radius", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_resource_cap(capsys):
    code = main(["ball", "--oracle", "trivial", "--radius", "9", "--cap", "40"])
    assert code == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", ["whole", "trivial"])
def test_root_layer_counts_against_the_cap(capsys, oracle):
    code = main(["ball", "--oracle", oracle, "--radius", "3", "--cap", "0"])
    assert code == 3
    assert "attained radius -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    pytest.param(["ball", "--oracle", "perm:n=abc", "--radius", "1", "--seed", "0"], None, id="perm-n"),
    pytest.param(["ball", "--oracle", "trivial:d=x", "--radius", "1"], None, id="trivial-d"),
    pytest.param(["experiment", "main_theorem", "--config", "{cfg}"],
                 "experiment = main_theorem\nradius = abc\n", id="config-radius"),
    pytest.param(["experiment", "main_theorem", "--config", "{cfg}"],
                 "experiment = main_theorem\nseeds = 1..x\n", id="config-seed-range"),
    pytest.param(["experiment", "sup_conjugates", "--config", "{cfg}"],
                 "experiment = sup_conjugates\nseeds =\n", id="config-empty-seeds"),
    pytest.param(["experiment", "main_theorem", "--config", "{missing}"], None, id="missing-config"),
    pytest.param(["experiment", "cogrowth_sweep", "--config", "{cfg}"],
                 "experiment = cogrowth_sweep\nd = 0\n", id="config-d"),
    pytest.param(["experiment", "cogrowth_sweep", "--config", "{cfg}"],
                 "experiment = cogrowth_sweep\nmax_generators = 0\n", id="config-max-generators"),
    pytest.param(["experiment", "cogrowth_sweep", "--config", "{cfg}"],
                 "experiment = cogrowth_sweep\nmax_word_len = 0\n", id="config-max-word-len"),
    pytest.param(["cogrowth", "--gens", "@{missing}"], None, id="missing-generator-file"),
    pytest.param(["graphing", "mtp", "--file", "{missing}"], None, id="missing-graphing-file"),
    pytest.param(["ball", "--oracle", "trivial", "--radius", "1", "--out", "{missing}/x.json"],
                 None, id="unwritable-out"),
    pytest.param(["graphing", "mtp", "--file", "{cfg}"], "weights 1 1\nm: 0->x\n",
                 id="graphing-point"),
    pytest.param(["graphing", "mtp", "--file", "{cfg}"], "weights 1 z\nm: 0->1\n",
                 id="graphing-weight"),
    pytest.param(["graphing", "mtp", "--file", "{cfg}"], "weights 1 1\nm: 0->1 0->0\n",
                 id="graphing-duplicate-source"),
    pytest.param(["experiment", "main_theorem", "--config", "{cfg}"],
                 b"experiment = main_theorem\n# \xff\n", id="config-not-utf8"),
    pytest.param(["cogrowth", "--gens", "@{cfg}"], b"aa\n\xff\n", id="generator-file-not-utf8"),
    pytest.param(["graphing", "mtp", "--file", "{cfg}"], b"weights 1 1\n\xff\n",
                 id="graphing-file-not-utf8"),
])
def test_malformed_input_exits_with_validation_code(capsys, tmp_path, argv, config):
    cfg = tmp_path / "exp.cfg"
    if config is not None:
        cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
    paths = {"cfg": cfg, "missing": tmp_path / "missing.txt"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "error" in capsys.readouterr().err


def test_config_experiment_name_mismatch(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = main_theorem\n")
    code = main(["experiment", "cogrowth_sweep", "--config", str(cfg)])
    assert code == 2


def test_generator_file_input(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("# index-two kernel\naa\nb\nabA\n")
    code, out = run(capsys, [
        "cogrowth", "--gens", f"@{gens}",
    ])
    assert code == 0
    assert json.loads(out)["index"] == 2


def test_ball_command_wreath_oracle(capsys):
    code, out = run(capsys, [
        "ball", "--oracle", "percolation:p=1.0,window=10,seed=0", "--radius", "4",
    ])
    assert code == 0
    assert json.loads(out)["vertices"] == 9  # the shift line -4..4
