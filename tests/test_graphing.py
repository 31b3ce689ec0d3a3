import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import dense_embedded, naive_energy, naive_mtp, random_graphing, union_find_components
from cospectral.errors import ValidationError
from cospectral.graphing import (
    Graphing,
    PartialMap,
    TestFunction,
    cesaro_average,
    check_rokhlin,
    embedded_spectral_radius,
    graphing_from_text,
    graphing_to_text,
    interior_of,
    mtp_check,
    orbit_decomposition,
    product_test_function,
    random_kernel,
    rokhlin_partition,
    validate_test_function,
)
from cospectral.irs import PermutationStabilizerOracle
from cospectral.schreier import generate_ball


def cycle_graphing(n, weights=None):
    return Graphing.from_pairs(
        weights if weights is not None else [1.0] * n,
        [("rot", {i: (i + 1) % n for i in range(n)})],
    )


def test_orbit_decomposition_two_cycles():
    g = Graphing.from_pairs([1.0] * 6, [("r", {0: 1, 1: 2, 2: 0}), ("s", {3: 4, 4: 5, 5: 3})])
    dec = orbit_decomposition(g)
    assert dec.components == ((0, 1, 2), (3, 4, 5))
    assert dec.class_weights == (3.0, 3.0)


def test_orbit_decomposition_identity_map():
    g = Graphing.from_pairs([1.0] * 5, [("e", {i: i for i in range(5)})])
    dec = orbit_decomposition(g)
    assert dec.n_classes == 5
    assert all(len(c) == 1 for c in dec.components)


def test_orbit_decomposition_against_union_find():
    for seed in range(10):
        g = random_graphing(seed, max_points=100)
        dec = orbit_decomposition(g)
        assert sorted(dec.components) == union_find_components(g)
        assert sum(dec.class_weights) == pytest.approx(g.total_weight())


def test_mtp_constant_kernel_on_cycle():
    lhs, rhs = mtp_check(cycle_graphing(3), lambda x, y: 1.0)
    assert lhs == rhs == 9.0


def test_mtp_graph_kernel_measures_domain():
    g = Graphing.from_pairs([1.0] * 7, [("m", {0: 1, 1: 2, 5: 6})])
    phi = g.maps[0].mapping
    lhs, rhs = mtp_check(g, lambda x, y: 1.0 if phi.get(x) == y else 0.0)
    assert lhs == rhs == 3.0  # the domain has mass 3


def test_mtp_fifty_random_graphings():
    for seed in range(50):
        g = random_graphing(seed, max_points=60)
        kernel = random_kernel(g, seed + 1000)
        lhs, rhs = mtp_check(g, kernel)
        assert abs(lhs - rhs) <= 1e-9
        # independent double-sum oracle, computed both ways
        dec = orbit_decomposition(g)
        nl, nr = naive_mtp(g, kernel, dec.components)
        assert lhs == pytest.approx(nl, abs=1e-9)
        assert rhs == pytest.approx(nr, abs=1e-9)


def test_mtp_kernel_off_relation_ignored():
    g = Graphing.from_pairs([1.0] * 4, [("r", {0: 1, 1: 0}), ("s", {2: 3, 3: 2})])
    kernel = {(0, 2): 5.0, (0, 1): 1.0}  # (0,2) crosses orbits: contributes 0
    lhs, rhs = mtp_check(g, kernel)
    assert lhs == 1.0 and rhs == 1.0


def test_rokhlin_even_cycle():
    g = cycle_graphing(12)
    part = rokhlin_partition(g, 0.01)
    assert part.B == ()
    assert part.n_classes == 2
    assert check_rokhlin(g, part, 0.01)


def test_rokhlin_five_cycle_phases():
    g = cycle_graphing(5)
    part = rokhlin_partition(g, 0.1)
    assert part.B == ()
    assert part.n_classes == 5
    phi = g.maps[0].mapping
    classes = {c[0]: set(c) for c in part.classes}
    # phases advance cyclically: phi(A_j) = A_(j+1 mod 5)
    order = sorted(classes)
    for j, key in enumerate(order):
        image = {phi[x] for x in classes[key]}
        assert image in classes.values()
    assert check_rokhlin(g, part, 0.1)


def test_rokhlin_identity_single_class():
    g = Graphing.from_pairs([1.0] * 6, [("e", {i: i for i in range(6)})])
    part = rokhlin_partition(g, 0.5)
    assert part.B == ()
    assert part.classes == (tuple(range(6)),)


def test_rokhlin_chain_parities():
    # partial shift on a path: 0->1->2->3, undefined at 3
    g = Graphing.from_pairs([1.0] * 4, [("m", {0: 1, 1: 2, 2: 3})])
    part = rokhlin_partition(g, 0.5)
    assert check_rokhlin(g, part, 0.5)
    assert part.n_classes == 2
    assert set(part.classes[0]) | set(part.classes[1]) == {0, 1, 2, 3}


def test_rokhlin_large_odd_cycle_raises_cap():
    g = cycle_graphing(101)
    part = rokhlin_partition(g, 0.1)  # default cap 64 would leave B heavy
    assert part.B == ()
    assert part.n_classes == 101
    assert check_rokhlin(g, part, 0.1)


def test_rokhlin_fifty_random_graphings_exact():
    for seed in range(50):
        g = random_graphing(seed + 500, max_points=200)
        part = rokhlin_partition(g, 0.1)
        # direct constraint verification, separate from check_rokhlin
        all_points = sorted(part.B + tuple(x for c in part.classes for x in c))
        assert all_points == list(range(g.n_points))
        if part.B:
            assert float(g.weights[list(part.B)].sum()) <= 0.1
        for cls in part.classes:
            members = set(cls)
            for m in g.maps:
                for x in cls:
                    y = m.mapping.get(x)
                    if y is not None and y in members:
                        assert y == x  # only fixed points may stay


def test_rokhlin_rejects_nonpositive_delta():
    with pytest.raises(ValidationError):
        rokhlin_partition(cycle_graphing(4), 0.0)


def test_embedded_whole_orbit_is_one():
    g = cycle_graphing(20)
    assert embedded_spectral_radius(g, range(20)) >= 1.0 - 1e-9


def test_embedded_isolated_point_is_zero():
    g = cycle_graphing(20)
    assert embedded_spectral_radius(g, [4]) == 0.0


def test_embedded_path_inside_cycle():
    g = cycle_graphing(20)
    value = embedded_spectral_radius(g, range(7))  # interior is a 5-point path
    assert value == pytest.approx(math.cos(math.pi / 6), abs=1e-9)


def test_embedded_respects_weights():
    # doubling all weights must not move the Rayleigh quotient
    g1 = cycle_graphing(9)
    g2 = cycle_graphing(9, weights=[2.0] * 9)
    assert embedded_spectral_radius(g1, range(5)) == pytest.approx(
        embedded_spectral_radius(g2, range(5)), abs=1e-9
    )


def test_embedded_multiple_components_takes_max():
    g = Graphing.from_pairs(
        [1.0] * 10,
        [("r", {i: (i + 1) % 5 for i in range(5)}), ("s", {5 + i: 5 + (i + 1) % 5 for i in range(5)})],
    )
    # first component entire (value 1), second only partially included
    value = embedded_spectral_radius(g, [0, 1, 2, 3, 4, 5, 6])
    assert value >= 1.0 - 1e-9


def test_embedded_max_from_later_partly_included_component():
    # a 12-cycle of weight 2 and a 20-cycle of weight 0.5, both cut to arcs:
    # interiors are paths of 3 and 8 points, so the later component wins
    rotation = {i: (i + 1) % 12 for i in range(12)}
    rotation.update({12 + i: 12 + (i + 1) % 20 for i in range(20)})
    g = Graphing.from_pairs([2.0] * 12 + [0.5] * 20, [("r", rotation)])
    subset = list(range(5)) + list(range(12, 22))
    value = embedded_spectral_radius(g, subset)
    assert value == pytest.approx(dense_embedded(g, subset), abs=1e-9)
    assert value == pytest.approx(math.cos(math.pi / 9), abs=1e-9)
    assert dense_embedded(g, range(5)) < value


def test_embedded_matches_dense_on_random_graphings():
    for seed in range(30):
        g = random_graphing(seed)
        rng = np.random.default_rng(1000 + seed)
        subset = rng.choice(g.n_points, size=int(rng.integers(1, g.n_points + 1)), replace=False)
        assert embedded_spectral_radius(g, subset) == pytest.approx(
            dense_embedded(g, subset), abs=1e-9
        )


def test_cesaro_identity_and_constant():
    g = cycle_graphing(8)
    f = np.arange(8, dtype=float)
    assert np.array_equal(cesaro_average(g, f, 1), f)
    const = np.full(8, 3.5)
    assert np.allclose(cesaro_average(g, const, 17), const)


def test_cesaro_cycle_flattens_indicator():
    n = 10
    g = cycle_graphing(n)
    f = np.zeros(n)
    f[0] = 1.0
    avg = cesaro_average(g, f, 500)
    assert np.allclose(avg, 1.0 / n, atol=0.02)
    assert avg.sum() == pytest.approx(1.0)


def test_cesaro_validates_m():
    with pytest.raises(ValidationError):
        cesaro_average(cycle_graphing(4), np.zeros(4), 0)


def _two_point_swap():
    swap = {0: 1, 1: 0}
    return Graphing([1.0, 1.0], [("swap", swap), ("swap~", swap)])


def _cycle_ball(n):
    oracle = PermutationStabilizerOracle(n, 1, None, perms=[[(i + 1) % n for i in range(n)]])
    return generate_ball(oracle, n)


def test_product_test_function_cycle_and_swap():
    ball = _cycle_ball(100)
    x2 = _two_point_swap()
    f2 = TestFunction(np.array([1.0, 0.0]), (0, 1))
    interval = [ball.index[i] for i in range(20)]
    f, report = product_test_function(ball, interval, x2, f2)
    assert report.folner_defect == pytest.approx(0.1)
    assert report.slack >= 0.0
    assert report.inequality_holds
    # independent quadratic-form recomputation of the energy
    assert report.lhs == pytest.approx(naive_energy(report.product, f.values), abs=1e-9)
    assert sum(report.component_shares) == pytest.approx(1.0)


def test_product_test_function_whole_component_equality():
    ball = _cycle_ball(30)
    x2 = _two_point_swap()
    f2 = TestFunction(np.array([1.0, 0.0]), (0, 1))
    f, report = product_test_function(ball, list(range(ball.n_vertices)), x2, f2)
    assert report.folner_defect == 0.0
    energy2 = naive_energy(x2, f2.values) / 2.0  # norm of f2 is 1, weights 1+1... explicit below
    norm2 = float((x2.weights * f2.values ** 2).sum())
    assert report.lhs / report.norm_sq == pytest.approx(
        naive_energy(x2, f2.values) / norm2, abs=1e-12
    )
    assert energy2 is not None


def test_product_test_function_constant_factor():
    ball = _cycle_ball(60)
    x2 = _two_point_swap()
    f2 = TestFunction(np.array([1.0, 1.0]), (0, 1))
    interval = [ball.index[i] for i in range(10)]
    _, report = product_test_function(ball, interval, x2, f2)
    assert report.lambda2_prime == pytest.approx(1.0)
    assert report.lhs / report.norm_sq <= report.n_letters * report.folner_defect + 1e-12


def test_product_test_function_random_pairs_nonnegative_slack():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(8, 40))
        ball = _cycle_ball(n)
        m = int(rng.integers(2, 7))
        forward = {i: (i + 1) % m for i in range(m)}
        backward = {v: k for k, v in forward.items()}
        x2 = Graphing([1.0] * m, [("c", forward), ("c~", backward)])
        values = rng.random(m) + 0.05
        f2 = TestFunction(values, tuple(range(m)))
        size = int(rng.integers(1, n))
        interval = [ball.index[i] for i in range(size)]
        f, report = product_test_function(ball, interval, x2, f2)
        assert report.slack >= -1e-9
        assert report.lhs == pytest.approx(naive_energy(report.product, f.values), abs=1e-9)


def test_product_test_function_support_violation_rejected():
    ball = _cycle_ball(10)
    x2 = _two_point_swap()
    bad = TestFunction(np.array([1.0, 0.0]), (0,))  # component without its neighbor
    with pytest.raises(ValidationError):
        product_test_function(ball, [0, 1], x2, bad)
    with pytest.raises(ValidationError):
        validate_test_function(x2, TestFunction(np.array([-1.0, 0.0]), (0, 1)))
    with pytest.raises(ValidationError):
        validate_test_function(x2, TestFunction(np.array([0.0, 0.0]), (0, 1)))


def test_product_test_function_slot_alignment_enforced():
    ball = _cycle_ball(10)
    lopsided = Graphing(
        [1.0, 1.0, 1.0],
        [("r", {0: 1, 1: 2, 2: 0}), ("r~", {1: 0, 2: 1, 0: 2})],
    )
    # maps are inverse-closed but slot order pairs r with r~ correctly: works
    f2 = TestFunction(np.array([1.0, 1.0, 1.0]), (0, 1, 2))
    product_test_function(ball, [0], lopsided, f2)
    mismatched = Graphing(
        [1.0, 1.0, 1.0, 1.0],
        [("r", {0: 1, 1: 0}), ("s", {2: 3, 3: 2})],
    )
    with pytest.raises(ValidationError):
        product_test_function(ball, [0], mismatched, TestFunction(np.array([1, 1, 0, 0.0]), (0, 1)))


def test_interior_of_graphing():
    g = cycle_graphing(10)
    assert interior_of(g, range(4)).tolist() == [1, 2]
    assert interior_of(g, range(10)).tolist() == list(range(10))


def test_graphing_validation_errors():
    with pytest.raises(ValidationError):
        Graphing([1.0, -1.0], [("m", {0: 1, 1: 0})])
    with pytest.raises(ValidationError):
        Graphing([1.0, 2.0], [("m", {0: 1, 1: 0})])  # not measure preserving
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {0: 1})])  # inverse missing
    with pytest.raises(ValidationError):
        PartialMap("m", {0: 1, 1: 1})  # not injective


def test_text_format_roundtrip():
    g = random_graphing(3, max_points=20)
    text = graphing_to_text(g)
    g2 = graphing_from_text(text)
    assert np.array_equal(g.weights, g2.weights)
    assert [m.mapping for m in g.maps] == [m.mapping for m in g2.maps]
    assert [m.label for m in g.maps] == [m.label for m in g2.maps]


def test_text_format_errors():
    with pytest.raises(ValidationError):
        graphing_from_text("m: 0->1\n")  # missing weights
    with pytest.raises(ValidationError):
        graphing_from_text("weights 1 1\nm 0->1\n")
    with pytest.raises(ValidationError):
        graphing_from_text("weights 1 1\nm: 0-1\n")


@given(st.integers(min_value=0, max_value=10_000))
def test_random_graphings_are_valid_and_markov_is_stochastic(seed):
    g = random_graphing(seed % 100, max_points=30)
    ones = np.ones(g.n_points)
    assert np.allclose(g.apply_markov(ones), ones)  # lazy M preserves constants


def test_graphing_requires_a_map():
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [])
