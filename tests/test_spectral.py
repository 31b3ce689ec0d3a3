import math

import numpy as np
import pytest

from helpers import dense_dirichlet
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
    return_probability_bound,
)
from cospectral.stallings import build_automaton, cogrowth_rate


def test_line_ball_matches_path_eigenvalue():
    # interior of the radius-10 ball of Z is a 19-vertex path
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 10)
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
    # from the root indicator the Krylov space is the R radial functions on
    # the interior B(R-1), so Lanczos stops after about R matvecs
    for radius in range(3, 8):
        ball = generate_ball(trivial_subgroup_oracle(2), radius)
        est = dirichlet_lower_bound(ball)
        assert est.value == pytest.approx(dense_dirichlet(ball), abs=1e-9)
        assert est.iterations <= radius + 2


def test_dirichlet_vector_matches_dense_on_every_family():
    oracles = [kernel_to_Z_oracle(2, (1, 0)), kernel_to_Z_oracle(2, (2, 1))]
    for seed in range(3):
        oracles.append(permutation_stabilizer_oracle(40, 2, seed))
        oracles.append(wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 50, seed)))
    for gens in ("ab,ba", "aab,bab", "a,bb"):
        oracles.append(StallingsOracle(build_automaton(gens, 2)))
    oracles.append(product_oracle(kernel_to_Z_oracle(2, (1, 0)), permutation_stabilizer_oracle(12, 2, 0)))
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
        kernel_to_Z_oracle(1, (1,)),
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
    with pytest.raises(ValidationError):
        dirichlet_lower_bound(ball, tol=0.0)


def test_return_probability_line():
    est = return_probability_bound(kernel_to_Z_oracle(1, (1,)), 2, truncation_radius=4)
    assert est.value == pytest.approx((6 / 16) ** 0.25)
    assert not est.truncated
    assert est.iterations == 4


def test_return_probability_tree():
    est = return_probability_bound(trivial_subgroup_oracle(2), 1, truncation_radius=2)
    assert est.value == pytest.approx(0.5)


def test_return_probability_whole_group():
    for n in (1, 3, 5):
        assert return_probability_bound(whole_group_oracle(2), n).value == pytest.approx(1.0)


def test_return_probability_truncation_is_still_lower_bound():
    oracle = trivial_subgroup_oracle(2)
    truncated = return_probability_bound(oracle, 3)  # default radius n=3
    full = return_probability_bound(oracle, 3, truncation_radius=6)
    assert truncated.value <= full.value + 1e-12
    assert not full.truncated


def test_supermultiplicativity_untruncated():
    for oracle in (
        kernel_to_Z_oracle(1, (1,)),
        trivial_subgroup_oracle(2),
        StallingsOracle(build_automaton("aa,b", 2)),
    ):
        p = {}
        for n in (1, 2, 3, 4, 5):
            est = return_probability_bound(oracle, n, truncation_radius=2 * n)
            assert not est.truncated
            p[2 * n] = est.value ** (2 * n)
        for m in (1, 2):
            for n in (1, 2):
                assert p[2 * (m + n)] >= p[2 * m] * p[2 * n] - 1e-12


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
    assert critical_exponent(cogrowth_rate(build_automaton([], 2))) is None
    with pytest.raises(ValidationError):
        critical_exponent(-1.0)


def test_estimate_json_record():
    est = dirichlet_lower_bound(generate_ball(whole_group_oracle(2), 1))
    record = est.to_json()
    assert list(record) == [
        "method", "value", "radius", "iterations", "residual", "truncated", "flags",
    ]
    assert record["method"] == "dirichlet"


def test_return_probability_validations():
    with pytest.raises(ValidationError):
        return_probability_bound(whole_group_oracle(2), 0)


def test_return_probability_below_formula_value():
    # both estimators stay under the cogrowth-formula rho for f.g. subgroups
    for gens in ("a", "aa,b", "a,b"):
        automaton = build_automaton(gens, 2)
        oracle = StallingsOracle(automaton)
        rho = grigorchuk_rho(cogrowth_rate(automaton).alpha, 2)
        est = return_probability_bound(oracle, 4, truncation_radius=8)
        assert est.value <= rho + 0.02


def test_return_probability_state_cap_flags_truncated():
    est = return_probability_bound(trivial_subgroup_oracle(2), 4, truncation_radius=8, state_cap=10)
    assert est.truncated
    assert est.value <= math.sqrt(3) / 2  # still a valid lower bound


def test_non_convergence_flagged():
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 10)
    est = dirichlet_lower_bound(ball, max_iterations=3)
    assert "not_converged" in est.flags
    assert est.value <= math.cos(math.pi / 20) + 1e-12  # Rayleigh quotient is still a bound
    with pytest.raises(ValidationError):
        dirichlet_lower_bound(ball, max_iterations=0)


def test_cogrowth_iteration_cap_flags_residual():
    from cospectral.stallings import cogrowth_rate as cg
    automaton = build_automaton("ab,ba", 2)
    result = cg(automaton, max_iterations=1)
    assert not result.converged
    assert result.residual > 1e-10
    with pytest.raises(ValidationError):
        cg(automaton, max_iterations=0)
