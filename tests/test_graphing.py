import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    check_rokhlin,
    dense_embedded,
    naive_energy,
    naive_markov,
    naive_mtp,
    random_graphing,
    reference_rokhlin,
    union_find_components,
)
from cospectral.errors import ValidationError
from cospectral.graphing import (
    Graphing,
    PartialMap,
    RokhlinPartition,
    TestFunction,
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
from cospectral.schreier import generate_ball, trivial_subgroup_oracle


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
    assert len(dec.components) == 5
    assert all(len(c) == 1 for c in dec.components)


def test_orbit_decomposition_against_union_find():
    for seed in range(10):
        g = random_graphing(seed, max_points=100)
        dec = orbit_decomposition(g)
        assert sorted(dec.components) == union_find_components(g)
        assert sum(dec.class_weights) == pytest.approx(g.weights.sum())
        assert dec.class_weights == pytest.approx([g.weights[list(c)].sum() for c in dec.components])


def test_orbit_decomposition_of_long_paths_against_union_find():
    # 60 paths of 1-80 points each under one partial shift, on shuffled
    # point ids, so a component's least point can sit anywhere along it
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 81, size=60)
    ids = rng.permutation(int(sizes.sum()))
    shift = {}
    for path in np.split(ids, np.cumsum(sizes)[:-1]):
        shift.update(zip(path[:-1].tolist(), path[1:].tolist()))
    g = Graphing.from_pairs([1.0] * len(ids), [("m", shift)])
    dec = orbit_decomposition(g)
    assert len(dec.components) == 60
    assert list(dec.components) == union_find_components(g)
    assert dec.component_of.tolist() == [
        next(k for k, c in enumerate(dec.components) if x in c) for x in range(g.n_points)
    ]


def test_mtp_constant_kernel_on_cycle():
    lhs, rhs = mtp_check(cycle_graphing(3), {(x, y): 1.0 for x in range(3) for y in range(3)})
    assert lhs == rhs == 9.0


def test_mtp_graph_kernel_measures_domain():
    g = Graphing.from_pairs([1.0] * 7, [("m", {0: 1, 1: 2, 5: 6})])
    phi = g.maps[0].mapping
    lhs, rhs = mtp_check(g, {(x, y): 1.0 for x, y in phi.items()})
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


def test_mtp_rejects_kernel_keys_outside_the_graphing():
    g = cycle_graphing(3)
    for key in [(-2, 1), (0, 5), (3, 0)]:
        with pytest.raises(ValidationError):
            mtp_check(g, {key: 1.0})


def test_mtp_rejects_malformed_kernel_keys():
    g = cycle_graphing(3)
    for key in [(1.5, 0), (True, 1), ("0", 1), (0,)]:
        with pytest.raises(ValidationError):
            mtp_check(g, {key: 1.0})
    assert mtp_check(g, {(np.int64(0), 2): 1.0}) == (1.0, 1.0)


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


def test_rokhlin_light_long_cycle_forms_b():
    # a light 101-cycle (0..100) and a heavy 4-cycle (101..104) in one map
    cycle = {i: (i + 1) % 101 for i in range(101)}
    cycle.update({101 + i: 101 + (i + 1) % 4 for i in range(4)})
    g = Graphing.from_pairs([1e-4] * 101 + [1.0] * 4, [("r", cycle)])
    part = rokhlin_partition(g, 0.1)  # the 101-cycle weighs 0.0101
    assert part.B == tuple(range(101))
    assert part.classes == ((101, 103), (102, 104))
    assert check_rokhlin(g, part, 0.1)
    heavy = rokhlin_partition(g, 0.01)
    assert heavy.B == ()
    assert heavy.n_classes == 103
    assert check_rokhlin(g, heavy, 0.01)


def test_rokhlin_matches_dict_walk_reference_on_random_grid():
    nonempty = 0
    for seed in range(300):
        for max_points in (8, 30, 80):
            g = random_graphing(seed, max_points=max_points)
            for delta in (0.01, 0.1, 0.5, 100):
                for cap in (1, 3, 64):
                    part = rokhlin_partition(g, delta, class_cap=cap)
                    assert (part.B, part.classes) == reference_rokhlin(g, delta, cap)
                    nonempty += bool(part.B)
    assert nonempty


def test_rokhlin_long_chain_and_cycles_beside_undefined_points():
    # one map, on shuffled ids: a 1,000-point chain, odd cycles of 7 and 3
    # points, an even 6-cycle, an explicit fixed point and two points
    # where the map is undefined (one of them isolated)
    rng = np.random.default_rng(5)
    ids = rng.permutation(1020).tolist()
    shift = {ids[i]: ids[i + 1] for i in range(999)}
    for start, length in ((1000, 7), (1007, 3), (1010, 6)):
        shift.update({ids[start + i]: ids[start + (i + 1) % length] for i in range(length)})
    shift[ids[1016]] = ids[1016]
    shift[ids[1017]] = ids[1018]  # a two-point chain; ids[1019] is isolated
    weights = np.ones(1020)
    weights[ids[1000:1007]] = 1e-3  # the 7-cycle weighs 0.007
    g = Graphing.from_pairs(weights, [("m", shift)])
    for delta in (0.001, 0.01):
        for cap in (1, 3, 5, 7, 64):
            part = rokhlin_partition(g, delta, class_cap=cap)
            assert (part.B, part.classes) == reference_rokhlin(g, delta, cap)
            assert check_rokhlin(g, part, delta)
    part = rokhlin_partition(g, 0.01, class_cap=3)
    assert part.B == tuple(sorted(ids[1000:1007]))
    # chain parity 0 and 1 (with the 6-cycle's phases), the fixed point,
    # and the 3-cycle's three phases
    assert part.n_classes == 6
    assert (ids[1016],) in part.classes
    parity = {x: k % 2 for k, x in enumerate(reversed(ids[:1000]))}
    parity.update({ids[1017]: 1, ids[1018]: 0, ids[1019]: 0})
    chain_classes = [c for c in part.classes if parity.keys() & set(c)]
    assert len(chain_classes) == 2
    for cls in chain_classes:
        assert len({parity[x] for x in cls if x in parity}) == 1
        assert len(set(ids[1010:1016]) & set(cls)) == 3


def _long_odd_cycle_points(g, cap):
    """Points on an odd cycle longer than cap of some map, by walking each
    point's forward orbit under each map."""
    out = set()
    for m in g.maps:
        for x in range(g.n_points):
            y, length = m.mapping.get(x), 1
            while y is not None and y != x:
                y, length = m.mapping.get(y), length + 1
            if y == x and length % 2 and length > cap:
                out.add(x)
    return out


def test_rokhlin_b_is_exactly_the_light_long_odd_cycles():
    nonempty = 0
    for seed in range(60):
        g = random_graphing(seed + 1300, max_points=80)
        for cap in (1, 3, 64):
            long = tuple(sorted(_long_odd_cycle_points(g, cap)))
            weight = float(g.weights[list(long)].sum())
            for delta in (0.01, 0.1, 100):
                part = rokhlin_partition(g, delta, class_cap=cap)
                assert part.B == (long if weight <= delta else ())
                assert check_rokhlin(g, part, delta)
                nonempty += bool(part.B)
    assert nonempty


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


def test_check_rokhlin_rejects_broken_partitions():
    g = cycle_graphing(6)
    assert check_rokhlin(g, RokhlinPartition((), ((0, 2, 4), (1, 3, 5))), 0.1)
    # a class holding a point and its image
    assert not check_rokhlin(g, RokhlinPartition((), ((0, 1, 2, 4), (3, 5))), 0.1)
    # point 5 is in no part
    assert not check_rokhlin(g, RokhlinPartition((), ((0, 2, 4), (1, 3))), 0.1)
    # B weighs 2 > delta, although its complement's classes are fine
    assert not check_rokhlin(g, RokhlinPartition((0, 1), ((2, 4), (3, 5))), 0.1)
    assert check_rokhlin(g, RokhlinPartition((0, 1), ((2, 4), (3, 5))), 2.0)


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


def test_product_test_function_rejects_an_empty_folner_set():
    f2 = TestFunction(np.array([1.0, 0.0]), (0, 1))
    with pytest.raises(ValidationError, match="empty set"):
        product_test_function(_cycle_ball(10), [], _two_point_swap(), f2)


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


def test_product_test_function_pair_layout_on_tree_ball():
    ball = generate_ball(trivial_subgroup_oracle(2), 3)
    nbr, n1, n2 = ball.nbr, ball.n_vertices, 5
    a = {i: (i + 1) % n2 for i in range(n2)}
    b = {0: 2, 2: 3, 3: 0}  # undefined at 1 and 4
    phi = [a, b, {y: x for x, y in a.items()}, {y: x for x, y in b.items()}]
    x2 = Graphing([1.0] * n2, list(zip("abAB", phi)))
    f2 = TestFunction(np.linspace(0.5, 1.5, n2), tuple(range(n2)))
    in_f = ball.dist <= 1
    f, report = product_test_function(ball, np.flatnonzero(in_f), x2, f2)
    for i in range(n1):
        for j in range(n2):
            assert f.values[i * n2 + j] == (f2.values[j] if in_f[i] else 0.0)
    assert (nbr >= n1).any()  # the rim targets the product must skip
    for s, m in enumerate(report.product.maps[:4]):
        assert m.mapping == {
            i * n2 + j: int(nbr[i, s]) * n2 + phi[s][j]
            for i in range(n1) if nbr[i, s] < n1 for j in phi[s]
        }
    halo = np.flatnonzero(ball.dist <= 2)  # F and its outer boundary
    assert f.component == tuple(i * n2 + j for i in halo for j in range(n2))
    assert report.inequality_holds


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_test_functions_rejected(bad):
    x2 = _two_point_swap()
    with pytest.raises(ValidationError):
        validate_test_function(x2, TestFunction(np.array([bad, 1.0]), (0, 1)))
    with pytest.raises(ValidationError):
        product_test_function(_cycle_ball(10), [0, 1], x2, TestFunction(np.array([bad, 1.0]), (0, 1)))


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


def test_points_outside_the_graphing_rejected():
    g = cycle_graphing(4)
    for subset in ([-1, 7], [-1], [4], [0, 1, 4]):
        with pytest.raises(ValidationError):
            interior_of(g, subset)
        with pytest.raises(ValidationError):
            embedded_spectral_radius(g, subset)


def test_graphing_validation_errors():
    with pytest.raises(ValidationError):
        Graphing([1.0, -1.0], [("m", {0: 1, 1: 0})])
    with pytest.raises(ValidationError):
        Graphing([1.0, 2.0], [("m", {0: 1, 1: 0})])  # not measure preserving
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {0: 1})])  # inverse missing
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {0: 1, 1: 1}), ("m~", {1: 0})])  # not injective
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {0: 2}), ("m~", {2: 0})])  # leaves the point set
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {0.5: 1}), ("m~", {1: 0.5})])  # not an integer
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {1.0: 0}), ("m~", {0: 1.0})])
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [("m", {True: 0}), ("m~", {0: True})])  # bools are not points
    with pytest.raises(ValidationError):
        Graphing.from_pairs([1.0, 1.0], [("m", {0: np.bool_(True)})])
    g = Graphing([1.0, 1.0], [("m", {np.int64(0): np.int32(1)}), ("m~", {1: 0})])
    assert g.targets.tolist() == [[1, -1], [-1, 0]]


def test_targets_keep_undefined_points_apart_from_fixed_points():
    g = Graphing.from_pairs([1.0] * 3, [("m", {0: 0, 1: 2})])
    assert g.labels == ("m", "m~")
    assert g.targets.tolist() == [[0, 0], [2, -1], [-1, 1]]
    assert g.table.tolist() == [[0, 0], [2, 1], [2, 1]]
    assert [(m.label, m.mapping) for m in g.maps] == [("m", {0: 0, 1: 2}), ("m~", {0: 0, 2: 1})]
    assert g.maps is g.maps  # built once, on first access


def test_from_pairs_gives_each_repeated_map_its_own_inverse():
    rotation = {0: 1, 1: 2, 2: 0}
    g = Graphing.from_pairs([1, 1, 1], [("a", rotation), ("b", rotation)])
    assert [m.label for m in g.maps] == ["a", "b", "a~", "b~"]
    assert g.inv_index == (2, 3, 0, 1)
    swap = Graphing.from_pairs([1, 1], [("s", {0: 1, 1: 0}), ("t", {0: 1, 1: 0})])
    assert [m.label for m in swap.maps] == ["s", "t"]  # involutions are their own inverses


def test_text_format_roundtrip():
    g = random_graphing(3, max_points=20)
    text = graphing_to_text(g)
    g2 = graphing_from_text(text)
    assert np.array_equal(g.weights, g2.weights)
    assert [m.mapping for m in g.maps] == [m.mapping for m in g2.maps]
    assert [m.label for m in g.maps] == [m.label for m in g2.maps]
    assert np.array_equal(g.targets, g2.targets)
    assert graphing_to_text(g2) == text
    labelled = Graphing([1.0, 1.0], [
        PartialMap("weights2", {0: 1}),
        PartialMap("x:y", {1: 0}),
        PartialMap("weights", {}),
    ])
    g3 = graphing_from_text(graphing_to_text(labelled))
    assert [(m.label, m.mapping) for m in g3.maps] == [
        ("weights2", {0: 1}), ("x:y", {1: 0}), ("weights", {})
    ]


@pytest.mark.parametrize("label", [
    "weights x",  # its line would read as a second weights header
    "weights\tx",
    " m",  # outer whitespace would be stripped on reading
    "m ",
    "a\nb",  # a line break would split the line
    "a\rb",
    "# m",  # its line would read as a comment
])
def test_unwritable_map_labels_rejected(label):
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [(label, {0: 1}), ("m~", {1: 0})])
    with pytest.raises(ValidationError):
        Graphing.from_pairs([1.0, 1.0], [(label, {0: 1})])


def test_text_format_errors():
    with pytest.raises(ValidationError):
        graphing_from_text("m: 0->1\n")  # missing weights
    with pytest.raises(ValidationError):
        graphing_from_text("weights 1 1\nm 0->1\n")
    with pytest.raises(ValidationError):
        graphing_from_text("weights 1 1\nm: 0-1\n")
    with pytest.raises(ValidationError):
        graphing_from_text("weights 1 1\nweights 1 1 1\nm: 0->1\nM: 1->0\n")  # two headers


@given(st.integers(min_value=0, max_value=10_000))
def test_random_graphings_are_valid_and_markov_is_stochastic(seed):
    g = random_graphing(seed % 100, max_points=30)
    ones = np.ones(g.n_points)
    assert np.allclose(g.apply_markov(ones), ones)  # lazy M preserves constants


def test_apply_markov_matches_per_map_reference():
    rng = np.random.default_rng(7)
    narrow = 0
    for seed in range(40):
        g = random_graphing(seed + 900, max_points=40, max_pairs=5)
        f = rng.normal(size=g.n_points)
        assert np.allclose(g.apply_markov(f), naive_markov(g, f), rtol=0, atol=1e-12)
        if g.n_maps < 8:  # slots added in order, as numpy adds a short row
            assert np.array_equal(g.apply_markov(f), f[g.table].sum(axis=1) / g.n_maps)
            narrow += 1
    assert narrow >= 20


def test_graphing_requires_a_map():
    with pytest.raises(ValidationError):
        Graphing([1.0, 1.0], [])
