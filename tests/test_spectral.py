import functools
import itertools
import math

import numpy as np
import pytest

from helpers import dense_dirichlet
from cospectral import spectral, stallings
from cospectral.errors import ValidationError
from cospectral.irs import (
    kernel_to_Z_oracle,
    permutation_stabilizer_oracle,
    sample_bernoulli_percolation,
    wreath_percolation_oracle,
)
from cospectral.schreier import (
    StallingsOracle,
    generate_ball,
    product_oracle,
    trivial_subgroup_oracle,
    whole_group_oracle,
)
from cospectral.spectral import (
    critical_exponent,
    dirichlet_lower_bound,
    dirichlet_vector,
    grigorchuk_rho,
)
from cospectral.stallings import build_automaton, cogrowth_rate


def test_line_ball_matches_path_eigenvalue():
    # interior of the radius-10 ball of Z is a 19-vertex path
    ball = generate_ball(kernel_to_Z_oracle((1,)), 10)
    est = dirichlet_lower_bound(ball)
    assert est.value == pytest.approx(math.cos(math.pi / 20), abs=1e-10)
    assert est.residual <= 1e-10
    assert est.value == pytest.approx(dense_dirichlet(ball), abs=1e-9)


def test_tree_ball_value_and_dense_oracle():
    ball = generate_ball(trivial_subgroup_oracle(2), 6)
    est = dirichlet_lower_bound(ball)
    assert 0.79 < est.value < math.sqrt(3) / 2 + 1e-12
    assert est.value == pytest.approx(dense_dirichlet(ball), abs=1e-9)


def test_tree_ball_krylov_space_is_radial():
    # the constant start is radial, so the Krylov space is the R radial
    # functions on the interior B(R-1), and Lanczos stops after R+1 matvecs
    for radius in range(3, 8):
        ball = generate_ball(trivial_subgroup_oracle(2), radius)
        est = dirichlet_lower_bound(ball)
        assert est.value == pytest.approx(dense_dirichlet(ball), abs=1e-9)
        assert est.iterations == radius + 1


def test_covered_orbit_solves_in_one_matvec():
    # every vertex of a finite orbit is interior once the ball covers it, and
    # the constant start is then the top eigenvector
    for n, d, seed in itertools.product((5, 12, 40), (1, 2, 3), range(3)):
        ball = generate_ball(permutation_stabilizer_oracle(n, d, seed), n)
        est, _, rows = dirichlet_vector(ball)
        assert ball.n_outer == 0 and len(rows) == ball.n_vertices
        assert est.iterations == 1 and est.value == pytest.approx(1.0, abs=1e-15)
    # main_theorem's stabilisers (50 points, rank 2) read 1 exactly
    for seed in range(20):
        est = dirichlet_lower_bound(generate_ball(permutation_stabilizer_oracle(50, 2, seed), 40))
        assert (est.value, est.iterations) == (1.0, 1)


def test_dirichlet_vector_matches_dense_on_every_family():
    oracles = [kernel_to_Z_oracle((1, 0)), kernel_to_Z_oracle((2, 1))]
    for seed in range(3):
        oracles.append(permutation_stabilizer_oracle(40, 2, seed))
        oracles.append(wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 50, seed)))
    for gens in ("ab,ba", "aab,bab", "a,bb"):
        oracles.append(StallingsOracle(build_automaton(gens, 2)))
    oracles.append(product_oracle(kernel_to_Z_oracle((1, 0)), permutation_stabilizer_oracle(12, 2, 0)))
    for oracle in oracles:
        ball = generate_ball(oracle, 5)
        est, vector, rows = dirichlet_vector(ball)
        assert est.value == pytest.approx(dense_dirichlet(ball), abs=1e-9)
        assert vector.shape == rows.shape
        assert vector.min() >= -1e-12


def test_single_vertex_all_loops():
    est = dirichlet_lower_bound(generate_ball(whole_group_oracle(2), 1))
    assert est.value == 1.0


def test_monotone_in_radius():
    for oracle in (
        kernel_to_Z_oracle((1,)),
        trivial_subgroup_oracle(2),
        StallingsOracle(build_automaton("a", 2)),
        StallingsOracle(build_automaton("ab,ba", 2)),
    ):
        ball = generate_ball(oracle, 9)
        values = [dirichlet_lower_bound(ball, radius=r).value for r in (3, 5, 7, 9)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


def test_dirichlet_below_cogrowth_formula_value():
    for gens in ("a", "ab", "aa,b", "a,b"):
        automaton = build_automaton(gens, 2)
        oracle = StallingsOracle(automaton)
        est = dirichlet_lower_bound(generate_ball(oracle, 10))
        rho = grigorchuk_rho(cogrowth_rate(automaton).alpha, 2)
        assert est.value <= rho + 0.02
        assert est.value <= 1.0


def test_dirichlet_validations():
    ball = generate_ball(whole_group_oracle(2), 1)
    with pytest.raises(ValidationError):
        dirichlet_lower_bound(ball, radius=0)
    with pytest.raises(ValidationError):
        dirichlet_lower_bound(ball, radius=5)


def test_grigorchuk_values():
    assert grigorchuk_rho(3, 2) == pytest.approx(1.0)
    assert grigorchuk_rho(math.sqrt(3), 2) == pytest.approx(math.sqrt(3) / 2)
    assert grigorchuk_rho(0, 2) == pytest.approx(math.sqrt(3) / 2)
    assert grigorchuk_rho(1.0, 2) == pytest.approx(math.sqrt(3) / 2)


def test_grigorchuk_continuity_at_branch_point():
    bp = math.sqrt(3)
    for eps in (1e-9, -1e-9):
        assert abs(grigorchuk_rho(bp + eps, 2) - bp / 2) <= 1e-6


def test_grigorchuk_monotone_above_branch():
    grid = np.linspace(math.sqrt(3), 3.0, 50)
    values = [grigorchuk_rho(a, 2) for a in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


def test_grigorchuk_equals_one_only_at_top():
    assert grigorchuk_rho(2.9, 2) < 1.0


def test_grigorchuk_validations():
    with pytest.raises(ValidationError):
        grigorchuk_rho(3.5, 2)
    with pytest.raises(ValidationError):
        grigorchuk_rho(-0.5, 2)
    with pytest.raises(ValidationError):
        grigorchuk_rho(1.0, 1)


def test_critical_exponent():
    assert critical_exponent(3.0) == pytest.approx(math.log(3))
    assert critical_exponent(1.0) == 0.0
    assert critical_exponent(0.0) is None
    assert critical_exponent(cogrowth_rate(build_automaton([], 2)).alpha) is None
    with pytest.raises(ValidationError):
        critical_exponent(-1.0)


def test_estimate_json_record():
    est = dirichlet_lower_bound(generate_ball(whole_group_oracle(2), 1))
    record = est.to_json()
    assert list(record) == [
        "method", "value", "radius", "iterations", "residual", "truncated", "flags",
    ]
    assert record["method"] == "dirichlet"


def test_non_convergence_flagged(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_MATVECS", 3)
    ball = generate_ball(kernel_to_Z_oracle((1,)), 10)
    est = dirichlet_lower_bound(ball)
    assert "not_converged" in est.flags
    assert est.iterations <= 3
    assert est.value <= math.cos(math.pi / 20) + 1e-12  # Rayleigh quotient is still a bound


def test_cogrowth_iteration_cap_flags_residual(monkeypatch):
    monkeypatch.setattr(stallings, "_MAX_ITERATIONS", 1)
    result = cogrowth_rate(build_automaton("ab,ba", 2))
    assert not result.converged
    assert result.iterations == 1
    assert result.residual > 1e-10


def _average_inputs(rng, n, width):
    table = rng.integers(0, n + 1, (n, width))  # index n is the sentinel column
    table[0, 0] = n
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return table, x, np.append(x, 0.0)


@pytest.mark.parametrize("width", [2, 4, 6])
def test_slot_major_average_keeps_the_row_major_bits(width):
    rng = np.random.default_rng(width)
    for n in (1, 7, 300):
        table, x, padded = _average_inputs(rng, n, width)
        expected = padded[table].sum(axis=1) / width
        assert np.array_equal(spectral._neighbor_average(table)(x), expected)


@pytest.mark.parametrize("width", range(1, 17))
def test_average_adds_the_slots_in_order(width):
    rng = np.random.default_rng(100 + width)
    for n in (2, 7, 300):
        table, x, padded = _average_inputs(rng, n, width)
        expected = functools.reduce(np.add, padded[table].T) / width
        assert np.array_equal(spectral._neighbor_average(table)(x), expected)
