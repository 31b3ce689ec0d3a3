import numpy as np
import pytest

from helpers import (
    ball_key,
    brute_force_pair_components,
    conjugate,
    reference_ball,
    reference_prefix_counts,
    reference_sweep,
)
from cospectral.errors import BallCapExceeded, ValidationError, WindowExceeded
from cospectral.irs import (
    PermutationStabilizerOracle,
    kernel_to_Z_oracle,
    percolation_from_sites,
    sample_bernoulli_percolation,
    wreath_percolation_oracle,
)
from cospectral.schreier import (
    CosetCoder,
    ball_to_dot,
    reroot,
    count_reduced_returns,
    enumerate_double_cosets,
    folner_defect,
    folner_defect_ids,
    folner_search,
    generate_ball,
    _prefix_counts,
    interior_boundary,
    product_oracle,
    trivial_subgroup_oracle,
    whole_group_oracle,
)
from cospectral.spectral import dirichlet_lower_bound, dirichlet_vector
from cospectral.stallings import build_automaton, inverse_slot
from cospectral.schreier import StallingsOracle, SubgroupOracle
from cospectral.words import Word, letters_of_rank, parse_word


def test_tree_ball_counts():
    ball = generate_ball(trivial_subgroup_oracle(2), 2)
    assert ball.n_vertices == 17  # 1 + 4 + 12
    assert ball.n_outer == 36
    assert ball.summary() == {"vertices": 17, "edges": 68, "radius": 2, "truncated": False}


def test_kernel_ball_is_line_with_loops():
    oracle = kernel_to_Z_oracle(2, (1, 0))
    ball = generate_ball(oracle, 5)
    assert ball.n_vertices == 11
    assert sorted(ball.ids) == list(range(-5, 6))
    b_slot = 1  # letter +2 = b
    for i in range(ball.n_vertices):
        assert ball.nbr[i, b_slot] == i  # b acts trivially: loops everywhere


def test_single_point_oracle_ball():
    oracle = PermutationStabilizerOracle(1, 2, 0)
    ball = generate_ball(oracle, 7)
    assert ball.n_vertices == 1
    assert (ball.nbr == 0).all()


def test_ball_determinism():
    oracle = StallingsOracle(build_automaton("ab,ba", 2))
    b1 = generate_ball(oracle, 4)
    b2 = generate_ball(oracle, 4)
    assert b1.ids == b2.ids
    assert np.array_equal(b1.nbr, b2.nbr)
    assert np.array_equal(b1.dist, b2.dist)


def test_edge_symmetry():
    oracle = StallingsOracle(build_automaton("aa,bab", 2))
    ball = generate_ball(oracle, 4)
    n = ball.n_vertices
    d = oracle.d
    for u in range(n):
        for s in range(2 * d):
            v = int(ball.nbr[u, s])
            if v < n:
                assert int(ball.nbr[v, inverse_slot(s, d)]) == u


def test_interior_boundary_interval_on_line():
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 10)
    interval = [ball.index[k] for k in range(-2, 3)]  # 5 consecutive cosets
    comp = interior_boundary(ball, interval)
    assert sorted(comp.subset_ids()) == [-2, -1, 0, 1, 2]
    assert sorted(ball.ids_of(comp.interior.tolist())) == [-1, 0, 1]
    assert sorted(ball.ids_of(comp.outer_boundary.tolist())) == [-3, 3]
    assert not comp.truncated


def test_interior_boundary_whole_component():
    oracle = PermutationStabilizerOracle(6, 2, 3)
    ball = generate_ball(oracle, 12)
    assert ball.n_outer == 0  # finite graph fully inside
    comp = interior_boundary(ball, list(range(ball.n_vertices)))
    assert len(comp.interior) == ball.n_vertices
    assert len(comp.outer_boundary) == 0


def test_interior_of_singleton_in_tree():
    ball = generate_ball(trivial_subgroup_oracle(2), 3)
    comp = interior_boundary(ball, [0])
    assert len(comp.interior) == 0
    assert len(comp.outer_boundary) == 4


def test_interior_duality():
    # int(P) == P \ boundary(X \ P), checked on a finite graph where the
    # complement's neighbor rows are all known
    oracle = PermutationStabilizerOracle(9, 2, 17)
    ball = generate_ball(oracle, 20)
    assert ball.n_outer == 0
    rng = np.random.default_rng(2)
    n = ball.n_vertices
    for _ in range(20):
        subset = [int(x) for x in rng.choice(n, size=rng.integers(1, n), replace=False)]
        comp = interior_boundary(ball, subset)
        complement = sorted(set(range(n)) - set(subset))
        if complement:
            boundary_of_complement = set(
                int(b) for b in interior_boundary(ball, complement).outer_boundary
            )
        else:
            boundary_of_complement = set()
        expected = sorted(set(subset) - boundary_of_complement)
        assert sorted(int(x) for x in comp.interior) == expected


def test_product_of_whole_groups():
    prod = product_oracle(whole_group_oracle(2), whole_group_oracle(2))
    assert generate_ball(prod, 5).n_vertices == 1


def test_product_partition_of_index_2_and_3():
    o1 = PermutationStabilizerOracle(2, 2, None, perms=[[1, 0], [0, 1]])
    o2 = PermutationStabilizerOracle(3, 2, None, perms=[[1, 2, 0], [0, 1, 2]])
    sizes = brute_force_pair_components(o1, o2, range(2), range(3))
    assert sum(sizes) == 6
    entries = enumerate_double_cosets(o1, o2, 6)
    assert sorted(e.size for e in entries) == sizes
    assert not any(e.truncated for e in entries)


def test_product_kernel_with_index_two_is_strip():
    o1 = kernel_to_Z_oracle(2, (1, 0))
    o2 = PermutationStabilizerOracle(2, 2, None, perms=[[1, 0], [0, 1]])
    prod = product_oracle(o1, o2)
    ball = generate_ball(prod, 5)
    # independent construction: pairs (k, k mod 2 flipped by a-steps),
    # b acts trivially on both factors
    expected = {(k, p) for k in range(-5, 6) for p in [abs(k) % 2]}
    assert set(ball.ids) == expected


def test_double_cosets_whole_whole():
    entries = enumerate_double_cosets(whole_group_oracle(2), whole_group_oracle(2), 4)
    assert len(entries) == 1
    assert entries[0].size == 1


def test_double_cosets_of_normal_kernel():
    oracle = kernel_to_Z_oracle(2, (1, 0))
    entries = enumerate_double_cosets(oracle, oracle, 5, component_cap=200)
    assert len(entries) == 11  # one fiber of k1 - k2 per c in [-5, 5]
    sums = set()
    for e in entries:
        total = sum(1 if l > 0 else -1 for l in e.representative.letters if abs(l) == 1)
        sums.add(total)
        assert e.truncated  # each fiber is an infinite line
    assert sums == set(range(-5, 6))


def test_double_coset_cap_boundary():
    """A 7-pair component is cut at a cap of 6 and flagged truncated, and a
    later entry duplicates it; a cap of 7 or more summarizes it once."""
    cycle = PermutationStabilizerOracle(7, 1, None, perms=[[1, 2, 3, 4, 5, 6, 0]])
    point = PermutationStabilizerOracle(1, 1, 0)

    def summary(cap):
        return [(e.size, e.truncated) for e in enumerate_double_cosets(cycle, point, 3, component_cap=cap)]

    assert summary(6) == [(6, True), (6, True)]
    assert summary(7) == [(7, False)]
    assert summary(8) == [(7, False)]


def test_double_cosets_match_brute_force_random_finite_pairs():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n1, n2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        o1 = PermutationStabilizerOracle(n1, 2, int(rng.integers(1e6)))
        o2 = PermutationStabilizerOracle(n2, 2, int(rng.integers(1e6)))
        orbit1 = o1.orbit_of_root()
        orbit2 = o2.orbit_of_root()
        expected = brute_force_pair_components(o1, o2, orbit1, orbit2)
        entries = enumerate_double_cosets(o1, o2, n1 + n2)
        assert sorted(e.size for e in entries) == expected
        assert not any(e.truncated for e in entries)


def test_folner_interval_defect_on_line():
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 10)
    interval = [ball.index[k] for k in range(-7, 8)]  # 15 vertices
    assert folner_defect(ball, interval) == pytest.approx(2 / 15)
    component, defect = folner_search(ball)
    assert defect <= 2 / 21 + 1e-12  # the full ball B(10) is a candidate
    assert defect == folner_defect(ball, [int(x) for x in component.subset])


def test_folner_single_vertex_graph():
    ball = generate_ball(whole_group_oracle(2), 3)
    _, defect = folner_search(ball)
    assert defect == 0.0


def test_folner_tree_nonamenable():
    # observed minimum over produced candidates; tree isoperimetry keeps
    # every candidate's defect at 1/2 or above (recorded, not a proof)
    ball = generate_ball(trivial_subgroup_oracle(2), 8)
    _, defect = folner_search(ball)
    assert defect >= 0.5


def test_folner_defect_ids_matches_ball_version():
    oracle = kernel_to_Z_oracle(2, (1, 0))
    ball = generate_ball(oracle, 6)
    interval_ids = list(range(-2, 3))
    via_ball = folner_defect(ball, [ball.index[c] for c in interval_ids])
    via_oracle = folner_defect_ids(oracle, interval_ids)
    assert via_ball == via_oracle == pytest.approx(2 / 5)


def _folner_oracles():
    zkernel = kernel_to_Z_oracle(2, (1, -2))
    return [
        trivial_subgroup_oracle(2),
        whole_group_oracle(2),
        zkernel,
        PermutationStabilizerOracle(9, 2, 4),
        wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 12, 2)),
        StallingsOracle(build_automaton("aa,b,abA", 2)),
        product_oracle(zkernel, PermutationStabilizerOracle(5, 2, 1)),
        reroot(zkernel, 3),
    ]


def test_folner_kernel_matches_reference_loop():
    rng = np.random.default_rng(7)
    for oracle in _folner_oracles():
        for radius in range(1, 6):
            ball = generate_ball(oracle, radius)
            n = ball.n_vertices
            # the two sweep orders of folner_search, scored by the loop
            _, vector, rows = dirichlet_vector(ball)
            eig_order = np.concatenate([
                rows[np.argsort(-vector, kind="stable")],
                np.setdiff1d(np.arange(n), rows),
            ])
            best = (np.inf, None)
            for order in (eig_order, np.arange(n)):
                defect, k = reference_sweep(ball, order)
                if defect < best[0] - 1e-15:
                    best = (defect, sorted(int(v) for v in order[:k]))
            component, defect = folner_search(ball)
            assert (defect, component.subset.tolist()) == best

            edge = np.nonzero(ball.dist == ball.dist.max())[0]
            for _ in range(4):
                size = int(rng.integers(1, n + 1))
                subset = set(rng.choice(n, size=size, replace=False).tolist())
                subset.add(int(rng.choice(edge)))  # FS reaches the rim, if any
                ids = [ball.ids[i] for i in subset]
                assert folner_defect(ball, subset) == folner_defect_ids(oracle, ids)

            order = rng.permutation(n)
            assert _prefix_counts(ball, order).tolist() == reference_prefix_counts(ball, order)


def test_ball_cap_error_carries_attained_radius():
    with pytest.raises(BallCapExceeded) as err:
        generate_ball(trivial_subgroup_oracle(2), 8, vertex_cap=50)
    assert 0 <= err.value.attained_radius < 8


class _UserOracle(SubgroupOracle):
    """A user oracle with ``act`` only: F_2 acting on strings "x,y", a by
    x -> x + 1 mod 5 and b by y -> y + 1, the cosets of the kernel of
    F_2 -> Z/5 x Z."""

    family = ("free", 2)
    d = 2
    root = "0,0"

    def act(self, letter, coset):
        x, y = map(int, coset.split(","))
        if abs(letter) == 1:
            x = (x + letter) % 5
        else:
            y += letter // 2
        return f"{x},{y}"


@pytest.mark.parametrize("oracle", [
    trivial_subgroup_oracle(2),
    kernel_to_Z_oracle(2, (1, 0)),
    StallingsOracle(build_automaton("ab,ba", 2)),
    product_oracle(kernel_to_Z_oracle(2, (1, -2)), PermutationStabilizerOracle(5, 2, 1)),
    PermutationStabilizerOracle(200, 2, 3),
    wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 41, 3)),
    _UserOracle(),
], ids=["tree", "zkernel", "stallings", "product", "perm", "wreath", "user"])
def test_attained_radius_fits_and_the_next_overflows(oracle):
    for cap in range(1, 61):
        with pytest.raises(BallCapExceeded) as err:
            generate_ball(oracle, 40, vertex_cap=cap)
        attained = err.value.attained_radius
        if attained >= 0:
            ball = generate_ball(oracle, attained, vertex_cap=cap)
            assert ball.n_vertices + ball.n_outer <= cap
        with pytest.raises(BallCapExceeded):
            generate_ball(oracle, attained + 1, vertex_cap=cap)


def test_capped_ball_meets_no_coset_far_past_the_cap():
    class TreeOracle(SubgroupOracle):  # the 4-regular tree, with act only
        family, d = ("free", 2), 2

        def __init__(self):
            self.tree = trivial_subgroup_oracle(2)
            self.root = self.tree.root
            self.seen = set()

        def act(self, letter, coset):
            target = self.tree.act(letter, coset)
            self.seen.add(target)
            return target

    for cap in (10, 100, 1000):
        oracle = TreeOracle()
        with pytest.raises(BallCapExceeded):
            generate_ball(oracle, 40, vertex_cap=cap)
        assert len(oracle.seen) <= cap + 4  # one vertex's targets past the cap


def _id_types(coset):
    """The Python type of a coset id, recursing into tuples."""
    if isinstance(coset, tuple):
        return (tuple, tuple(_id_types(c) for c in coset))
    return type(coset)


def _reference_cases():
    """(oracle, radii, coded): oracles with and without int64 coset codes,
    coded ones in every family and in products and reroots of them."""
    zkernel = kernel_to_Z_oracle(2, (1, -2))
    stallings = StallingsOracle(build_automaton("ab,ba", 2))
    tail_root = conjugate(stallings, parse_word("aab"))
    assert len(tail_root.root) > 4  # a coset in a hanging tree
    products = [
        product_oracle(zkernel, stallings),
        product_oracle(StallingsOracle(build_automaton("a", 2)), kernel_to_Z_oracle(2, (2, 1))),
    ]
    entries = [
        reroot(prod, entry.entry_pair)
        for prod in products
        for entry in enumerate_double_cosets(prod.o1, prod.o2, 3, component_cap=300)
    ]
    wreath = wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 12, 2))
    lamp_root = conjugate(wreath, Word((2, 1, 3, 1, 2)))  # a.s.b.s.a
    assert lamp_root.root[0]  # a coset with lamps
    edge = wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 3, 1))
    radii = range(6)
    return [
        (trivial_subgroup_oracle(2), radii, True),
        (whole_group_oracle(3), radii, True),
        (zkernel, radii, True),
        (PermutationStabilizerOracle(9, 2, 4), radii, True),
        (wreath, radii, True),
        (lamp_root, radii, True),
        (product_oracle(wreath, wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 12, 3))),
         range(4), True),
        (edge, [2], True),  # shifts reach the window's edge W = R + 1
        (StallingsOracle(build_automaton("aa,b,abA", 2)), radii, True),
        (stallings, radii, True),
        (tail_root, radii, True),
        (product_oracle(zkernel, PermutationStabilizerOracle(5, 2, 1)), radii, True),
        (reroot(zkernel, 3), radii, True),
        *[(oracle, radii, True) for oracle in entries],
        (PermutationStabilizerOracle(5, 1, None, perms=[[1, 2, 3, 4, 0]]), radii, True),
        (kernel_to_Z_oracle(3, (2, -1, 0)), radii, True),
        (_UserOracle(), radii, False),
        (trivial_subgroup_oracle(1), [69, 70], False),  # 2^71 tails overflow int64
        # each factor's codes need 44 bits, so the pair spans two int64 keys
        (product_oracle(StallingsOracle(build_automaton("aa,b,aba", 2)),
                        StallingsOracle(build_automaton("a,bb,bab", 2))), [20], True),
        # tails of 2^41: keys packed into one int64 would wrap and collide
        (product_oracle(trivial_subgroup_oracle(1), trivial_subgroup_oracle(1)), [40], True),
    ]


def test_ball_matches_reference_bfs():
    for oracle, radii, coded in _reference_cases():
        for radius in radii:
            assert (oracle.coder(oracle.root, radius) is not None) == coded
            ball = generate_ball(oracle, radius)
            ref = reference_ball(oracle, radius)
            assert ball.ids == ref.ids
            assert ball.outer_ids == ref.outer_ids
            assert [_id_types(c) for c in ball.ids + ball.outer_ids] == [
                _id_types(c) for c in ref.ids + ref.outer_ids
            ]
            assert np.array_equal(ball.dist, ref.dist)
            assert np.array_equal(ball.dist_full, ref.dist_full)
            assert np.array_equal(ball.nbr, ref.nbr)
            assert {c: ball.index[c] for c in ball.ids} == ref.index
            assert [ball.word_to(i) for i in range(ball.n_vertices)] == ref.words


def test_coded_ball_decodes_ids_on_first_access():
    ball = generate_ball(StallingsOracle(build_automaton("ab,ba", 2)), 6)
    dirichlet_vector(ball)
    count_reduced_returns(ball.oracle, 4)
    assert not {"ids", "outer_ids", "index"} & set(vars(ball))
    assert ball.index[ball.ids[5]] == 5
    assert ball.id_of(ball.n_vertices) == ball.outer_ids[0]


def test_folner_subset_decodes_only_its_rows():
    oracle = wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 40, 7))
    assert oracle.coder(oracle.root, 4) is not None
    ball = generate_ball(oracle, 4)
    component, _ = folner_search(ball)
    ids = component.subset_ids()
    assert not {"_all_ids", "ids"} & set(vars(ball))
    assert ids == [ball.ids[i] for i in component.subset]


class _CountingStallingsOracle(StallingsOracle):
    """A Stallings oracle that counts its ``act`` calls."""

    calls = 0

    def act(self, letter, coset):
        self.calls += 1
        return super().act(letter, coset)


def test_ball_replays_ids_along_its_bfs_tree():
    oracle = _CountingStallingsOracle(build_automaton("ab,ba", 2))
    assert oracle.coder(oracle.root, 6) is not None
    ball = generate_ball(oracle, 6)
    stored = len(ball.dist_full)
    assert oracle.calls == 0
    assert set(vars(ball)) == {"oracle", "radius", "dist_full", "dist", "nbr"}  # no code array

    component, _ = folner_search(ball)
    oracle.calls = 0
    ids = component.subset_ids()
    assert oracle.calls <= int(ball.dist[component.subset].sum())
    assert "_all_ids" not in vars(ball)

    oracle.calls = 0
    one_by_one = [ball.id_of(i) for i in range(stored)]
    assert oracle.calls == int(ball.dist_full.sum())
    oracle.calls = 0
    assert one_by_one == ball.ids + ball.outer_ids
    assert oracle.calls == stored - 1
    assert ids == [ball.ids[i] for i in component.subset]


def test_component_ids_replay_each_tree_vertex_at_most_once():
    oracle = _CountingStallingsOracle(build_automaton([], 2))
    ball = generate_ball(oracle, 8)
    component, _ = folner_search(ball)
    stored = ball.n_vertices + ball.n_outer
    got = []
    for read, indices in ((component.subset_ids, component.subset),
                          (lambda: ball.ids_of(component.interior.tolist()), component.interior),
                          (lambda: ball.ids_of(component.outer_boundary.tolist()), component.outer_boundary)):
        oracle.calls = 0
        got.append((read(), indices))
        assert oracle.calls <= stored  # one path per vertex took 98,416 calls
    assert "_all_ids" not in vars(ball)
    every = ball.ids + ball.outer_ids
    for ids, indices in got:
        assert ids == [every[i] for i in indices]


def test_indices_of_rejects_rim_ids():
    ball = generate_ball(trivial_subgroup_oracle(2), 1)
    rim_id = ball.outer_ids[0]
    assert ball.index[rim_id] == ball.n_vertices
    with pytest.raises(ValidationError):
        ball.indices_of([rim_id])
    assert list(ball.indices_of([3])) == [3]


def test_indices_of_takes_ball_indices_only():
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 3)
    n = ball.n_vertices
    assert ball.ids[2] == -1
    assert interior_boundary(ball, [2]).subset_ids() == [-1]
    assert interior_boundary(ball, [ball.index[-2]]).subset_ids() == [-2]
    assert ball.indices_of([np.int64(2), np.int32(0), 2]).tolist() == [0, 2]
    for bad in (b"x", (0, 0), -1, n, np.int64(n)):
        with pytest.raises(ValidationError):
            ball.indices_of([bad])
    assert ball.word_to(np.int64(2)) == ball.word_to(2)
    for bad in (-1, n):
        with pytest.raises(ValidationError):
            ball.word_to(bad)


def test_negative_radius_rejected():
    with pytest.raises(ValidationError):
        generate_ball(whole_group_oracle(2), -1)


def test_wreath_window_exceeded():
    oracle = wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 3, 1))
    assert oracle.coder(oracle.root, 2) is not None  # shifts up to R + 1 = W
    for radius in (3, 5):  # R + 1 > W: interned, and act raises at the edge
        assert oracle.coder(oracle.root, radius) is None
        with pytest.raises(WindowExceeded):
            generate_ball(oracle, radius)


def test_indices_of_rejects_foreign_ids():
    ball = generate_ball(kernel_to_Z_oracle(1, (1,)), 3)
    with pytest.raises(ValidationError):
        ball.indices_of([99])
    with pytest.raises(ValidationError):
        ball.indices_of([b"nope"])


def test_word_to_reaches_vertex():
    oracle = StallingsOracle(build_automaton("ab", 2))
    ball = generate_ball(oracle, 4)
    for idx in range(ball.n_vertices):
        w = ball.word_to(idx)
        coset = oracle.root
        for letter in w.letters:
            coset = oracle.act(letter, coset)
        assert coset == ball.ids[idx]
        assert len(w) == int(ball.dist[idx])


def test_conjugate_oracle_is_rerooted_graph():
    oracle = kernel_to_Z_oracle(2, (1, 0))
    conj = conjugate(oracle, parse_word("a"))
    assert conj.root == 1
    assert ball_key(generate_ball(conj, 4)) == ball_key(generate_ball(oracle, 4))


def test_ball_dot_node_lines():
    ball = generate_ball(trivial_subgroup_oracle(2), 2)
    dot = ball_to_dot(ball)
    assert dot.count("[shape=") == 17


def test_ball_dot_labels_wreath_edges_by_letter_name():
    oracle = wreath_percolation_oracle(percolation_from_sites([], 5))
    ball = generate_ball(oracle, 1)
    dot = ball_to_dot(ball)
    shift, lamp = ball.nbr[0, 0], ball.nbr[0, 1]
    assert oracle.describe(ball.ids[shift]) == "(; 1)"
    assert oracle.describe(ball.ids[lamp]) == "(0:a; 0)"
    assert f'v0 -> v{shift} [label="s"];' in dot
    assert f'v0 -> v{lamp} [label="a"];' in dot


def test_interior_boundary_truncated_only_at_the_rim():
    cycle = PermutationStabilizerOracle(5, 1, None, perms=[[1, 2, 3, 4, 0]])
    ball = generate_ball(cycle, 2)
    assert ball.n_outer == 0 and ball.dist.max() == 2
    comp = interior_boundary(ball, range(ball.n_vertices))
    assert len(comp.outer_boundary) == 0
    assert not comp.truncated
    assert not folner_search(ball)[0].truncated

    tree = generate_ball(trivial_subgroup_oracle(2), 2)
    far = int(np.nonzero(tree.dist == 2)[0][0])
    assert interior_boundary(tree, [0, far]).truncated
    assert not interior_boundary(tree, [0]).truncated


def test_letters_order_fixed():
    assert letters_of_rank(2) == (1, 2, -1, -2)
    assert letters_of_rank(3) == (1, 2, 3, -1, -2, -3)


def test_product_family_mismatch_rejected():
    wreath = wreath_percolation_oracle(sample_bernoulli_percolation(1.0, 5, 0))
    with pytest.raises(ValidationError):
        product_oracle(whole_group_oracle(2), wreath)
    with pytest.raises(ValidationError):
        product_oracle(whole_group_oracle(2), whole_group_oracle(3))


def test_act_respects_inverses_all_families():
    oracles = [
        trivial_subgroup_oracle(2),
        whole_group_oracle(3),
        StallingsOracle(build_automaton("aa,b,abA", 2)),
        kernel_to_Z_oracle(2, (1, -2)),
        PermutationStabilizerOracle(9, 2, 4),
        wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 12, 2)),
    ]
    rng = np.random.default_rng(6)
    for oracle in oracles:
        coset = oracle.root
        for _ in range(60):
            letter = oracle.letters[int(rng.integers(0, len(oracle.letters)))]
            forward = oracle.act(letter, coset)
            assert oracle.act(-letter, forward) == coset
            coset = forward


def test_count_reduced_returns_window_is_exact():
    # the radius-floor(n/2) window must reproduce a full radius-n DP exactly
    def brute_counts(oracle, n):
        ball = generate_ball(oracle, n)
        nb = ball.n_vertices
        width = 2 * oracle.d
        cur = {}
        for s in range(width):
            t = int(ball.nbr[0, s])
            if t < nb:
                cur[(t, s)] = cur.get((t, s), 0) + 1
        out = [sum(v for (vx, _), v in cur.items() if vx == 0)]
        for _ in range(n - 1):
            nxt = {}
            for (v, s), c in cur.items():
                for s2 in range(width):
                    if s2 == inverse_slot(s, oracle.d):
                        continue
                    t = int(ball.nbr[v, s2])
                    if t < nb:
                        nxt[(t, s2)] = nxt.get((t, s2), 0) + c
            cur = nxt
            out.append(sum(v for (vx, _), v in cur.items() if vx == 0))
        return out

    oracles = [
        trivial_subgroup_oracle(2),
        StallingsOracle(build_automaton("aa,b,abA", 2)),
        product_oracle(
            kernel_to_Z_oracle(2, (1, 0)),
            StallingsOracle(build_automaton("aa,b,abA", 2)),
        ),
        PermutationStabilizerOracle(5, 2, 3),
    ]
    for oracle in oracles:
        for n in (1, 2, 3, 8):
            assert count_reduced_returns(oracle, n) == brute_counts(oracle, n)


def _criterion_3_pruning_oracles():
    """Criterion 3's 20 Stallings subgroups, alone and times two exponent-sum
    kernels and a permutation stabiliser."""
    from cospectral.experiments import random_subgroup_words

    for seed in range(20):
        h = StallingsOracle(build_automaton(random_subgroup_words(3000 + seed), 2))
        yield h
        yield product_oracle(kernel_to_Z_oracle(2, (1, 0)), h)
        yield product_oracle(kernel_to_Z_oracle(2, (1, 1)), h)
        yield product_oracle(h, PermutationStabilizerOracle(12, 2, seed))


def _no_tail(coset) -> bool:
    """Whether no Stallings coordinate of a coset id has a hanging tail."""
    parts = coset if isinstance(coset, tuple) else (coset,)
    return all(len(p) == 4 for p in parts if isinstance(p, bytes))


def test_pruned_return_counts_match_the_unpruned_ball(monkeypatch):
    from cospectral import schreier

    full = schreier.generate_ball

    def unpruned(oracle, radius, vertex_cap=schreier.DEFAULT_VERTEX_CAP, *, prune_hanging=False):
        return full(oracle, radius, vertex_cap)

    for oracle in _criterion_3_pruning_oracles():
        for n in (7, 16):
            pruned = count_reduced_returns(oracle, n)
            with monkeypatch.context() as m:
                m.setattr(schreier, "generate_ball", unpruned)
                assert pruned == count_reduced_returns(oracle, n)


def test_pruned_window_is_the_core_part_of_the_ball():
    # a missing core vertex shows in the counts, an extra hanging one only here
    oracles = list(_criterion_3_pruning_oracles())
    oracles.append(wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 20, 3)))
    stored = [0, 0]
    for oracle in oracles:
        pruned = generate_ball(oracle, 5, prune_hanging=True)
        ball = generate_ball(oracle, 5)
        assert pruned.ids == [c for c in ball.ids if _no_tail(c)]
        assert pruned.outer_ids == [c for c in ball.outer_ids if _no_tail(c)]
        assert list(pruned.dist) == [d for c, d in zip(ball.ids, ball.dist) if _no_tail(c)]
        stored[0] += pruned.n_vertices + pruned.n_outer
        stored[1] += ball.n_vertices + ball.n_outer
        # a hanging slot reads one past every stored vertex
        sentinel = pruned.n_vertices + pruned.n_outer
        for i, coset in enumerate(pruned.ids):
            for s, letter in enumerate(oracle.letters):
                t = int(pruned.nbr[i, s])
                assert (t == sentinel) == (not _no_tail(oracle.act(letter, coset)))
    assert stored[0] < stored[1]


def test_pruning_a_hanging_root_raises():
    tree = trivial_subgroup_oracle(2)
    hanging = reroot(tree, tree.root + bytes([0]))
    for oracle in (hanging, product_oracle(kernel_to_Z_oracle(2, (1, 0)), hanging)):
        with pytest.raises(ValidationError):
            generate_ball(oracle, 3, prune_hanging=True)
        with pytest.raises(ValidationError):
            count_reduced_returns(oracle, 4)
        assert generate_ball(oracle, 3).n_vertices > 1  # unpruned, it is a ball


def _stacking_families():
    """Stacking members: permutation samples and criterion 3's Stallings
    subgroups, each alone and times two exponent-sum kernels and one
    permutation stabiliser shared by every member."""
    from cospectral.experiments import random_subgroup_words

    perms = [PermutationStabilizerOracle(12, 2, seed) for seed in range(6)]
    stallings = [
        StallingsOracle(build_automaton(random_subgroup_words(3000 + seed), 2)) for seed in range(8)
    ]
    factors = [kernel_to_Z_oracle(2, (1, 0)), kernel_to_Z_oracle(2, (1, 1)),
               PermutationStabilizerOracle(7, 2, 11)]
    for members in (perms, stallings):
        yield members
        for factor in factors:
            yield [product_oracle(factor, h) for h in members]


def _same_window(window, ball) -> bool:
    return (window.oracle is ball.oracle and window.nbr.dtype == ball.nbr.dtype
            and np.array_equal(window.nbr, ball.nbr)
            and np.array_equal(window.dist_full, ball.dist_full)
            and window.ids == ball.ids and window.outer_ids == ball.outer_ids)


def test_stacked_windows_are_the_members_own(monkeypatch):
    from cospectral import schreier

    grown = []
    traced = schreier.generate_ball

    def recording(oracle, *args, **kwargs):
        grown.append(oracle)
        return traced(oracle, *args, **kwargs)

    for members in _stacking_families():
        for radius in range(9):
            for prune in (False, True):
                grown.clear()
                with monkeypatch.context() as m:
                    m.setattr(schreier, "generate_ball", recording)
                    windows = schreier.generate_balls(members, radius, prune_hanging=prune)
                assert len(grown) == 1 and grown[0] not in members  # one shared BFS
                for member, window in zip(members, windows):
                    ball = generate_ball(member, radius, prune_hanging=prune)
                    assert _same_window(window, ball)
                    if prune:
                        n = 2 * radius + 1
                        assert schreier._return_counts(window, n) == count_reduced_returns(member, n)
                    elif radius:
                        value = dirichlet_lower_bound(window).value
                        assert value.hex() == dirichlet_lower_bound(ball).value.hex()


class _CycleFromTwoPoints(SubgroupOracle):
    """A 6-cycle whose coder grows it from two opposite points at once."""

    family = ("free", 1)
    d = 1
    root = 0

    def act(self, letter, coset):
        return (coset + letter) % 6

    def coder(self, root, radius):
        def step(rows):
            return np.stack([(rows + 1) % 6, (rows - 1) % 6], axis=1)

        return CosetCoder(((0,), (3,)), (6,), step)


def test_two_roots_in_one_component_raise():
    cycle = _CycleFromTwoPoints()
    for oracle in (cycle, product_oracle(whole_group_oracle(1), cycle)):
        for radius in (1, 2, 5):
            with pytest.raises(ValidationError):
                generate_ball(oracle, radius)
    # at radius 0 the two windows do not meet: each is its own point's
    ball = generate_ball(cycle, 0)
    assert ball.labels.tolist() == [0, 1, 0, 0, 1, 1]
    assert ball.nbr.tolist() == [[2, 3], [4, 5]]


def test_generate_balls_caps_each_member_as_its_own_ball(monkeypatch):
    from cospectral import schreier

    zk = kernel_to_Z_oracle(2, (1, 0))
    members = [product_oracle(zk, PermutationStabilizerOracle(50, 2, seed)) for seed in range(6)]
    sizes = sorted(len(generate_ball(m, 10).dist_full) for m in members)
    traced, held = schreier.generate_ball, []

    def recording(oracle, *args, **kwargs):
        ball = traced(oracle, *args, **kwargs)
        held.append((len(ball.dist_full), hasattr(ball, "labels")))
        return ball

    shared = 0
    for cap in (sizes[0] - 1, sizes[0], sizes[2], sizes[-1] - 1, sizes[-1], 2 * sizes[-1]):
        held.clear()
        with monkeypatch.context() as m:
            m.setattr(schreier, "generate_ball", recording)
            windows = schreier.generate_balls(members, 10, cap)
        assert max(held, default=(0,))[0] <= cap  # no BFS holds more than the cap
        shared += any(union for _, union in held)
        for member, window in zip(members, windows):
            try:
                ball = generate_ball(member, 10, cap)
            except BallCapExceeded as err:
                assert isinstance(window, BallCapExceeded)
                assert (str(window), window.attained_radius) == (str(err), err.attained_radius)
            else:
                assert _same_window(window, ball)
    assert shared == 1  # only twice the largest window holds two in one BFS


def test_oracles_that_do_not_stack_get_their_own_windows(monkeypatch):
    from cospectral import schreier

    zk = kernel_to_Z_oracle(2, (1, 0))
    perm = PermutationStabilizerOracle(12, 2, 0)
    tree1 = trivial_subgroup_oracle(1)
    cases = [
        [kernel_to_Z_oracle(2, (1, w)) for w in range(3)],  # no stacked coder
        [wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 20, s)) for s in range(3)],
        [_UserOracle(), _UserOracle()],
        [perm, StallingsOracle(build_automaton("ab", 2))],  # two families
        [product_oracle(zk, perm), product_oracle(kernel_to_Z_oracle(2, (1, 0)), perm)],  # two first factors
        [perm, PermutationStabilizerOracle(12, 3, 0)],  # two ranks
        [tree1, tree1],  # the stacked codes pass CODE_LIMIT at radius 69
    ]
    traced, grown = schreier.generate_ball, []

    def recording(oracle, *args, **kwargs):
        grown.append(oracle)
        return traced(oracle, *args, **kwargs)

    for members in cases:
        radius = 69 if members[0] is tree1 else 3
        grown.clear()
        with monkeypatch.context() as m:
            m.setattr(schreier, "generate_ball", recording)
            windows = schreier.generate_balls(members, radius)
        assert grown == members
        for member, window in zip(members, windows):
            assert _same_window(window, generate_ball(member, radius))
