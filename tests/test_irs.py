from collections import Counter

import json

import numpy as np
import pytest

from helpers import ball_key, conjugate
from cospectral.errors import ValidationError, WindowExceeded
from cospectral.irs import (
    PermutationStabilizerOracle,
    kernel_to_Z_oracle,
    longest_segment,
    percolation_from_sites,
    permutation_stabilizer_oracle,
    sample_bernoulli_percolation,
    sample_to_json,
    wreath_percolation_oracle,
)
from cospectral.schreier import generate_ball
from cospectral.spectral import dirichlet_lower_bound
from cospectral.words import Word, WreathElement, parse_word


def test_percolation_extremes():
    full = sample_bernoulli_percolation(1.0, 10, 0)
    assert full.sites == frozenset(range(-10, 11))
    empty = sample_bernoulli_percolation(0.0, 10, 0)
    assert empty.sites == frozenset()


def test_percolation_density_concentrates():
    # binomial tails: at p = 0.5 and 20001 sites, the density lands in
    # [0.48, 0.52] for at least 95 of 100 seeds
    hits = 0
    for seed in range(100):
        sample = sample_bernoulli_percolation(0.5, 10_000, seed)
        if 0.48 <= len(sample.sites) / 20_001 <= 0.52:
            hits += 1
    assert hits >= 95


def test_percolation_rejects_bad_p():
    with pytest.raises(ValidationError):
        sample_bernoulli_percolation(1.5, 10, 0)
    with pytest.raises(ValidationError):
        sample_bernoulli_percolation(-0.1, 10, 0)


def test_percolation_seed_determinism():
    s1 = sample_bernoulli_percolation(0.3, 100, 42)
    s2 = sample_bernoulli_percolation(0.3, 100, 42)
    assert s1.sites == s2.sites


def test_percolation_shift_marginals_flat():
    # site marginals across the window are constant up to sampling noise
    window = 10
    hits = np.zeros(2 * window + 1)
    for seed in range(2000):
        for site in sample_bernoulli_percolation(0.5, window, seed).sites:
            hits[site + window] += 1
    marginals = hits / 2000
    assert np.abs(marginals - marginals.mean()).max() <= 0.03


def test_wreath_membership_examples():
    inside = wreath_percolation_oracle(sample_bernoulli_percolation(1.0, 5, 0))
    lamp = WreathElement.make({0: parse_word("a")}, 0)
    assert inside.membership(lamp)
    outside = wreath_percolation_oracle(sample_bernoulli_percolation(0.0, 5, 0))
    assert not outside.membership(lamp)
    assert inside.membership(WreathElement() * WreathElement())
    assert not inside.membership(WreathElement.make({}, 1))  # nonzero shift


def test_wreath_membership_from_word():
    oracle = wreath_percolation_oracle(sample_bernoulli_percolation(1.0, 5, 0))
    # s a s^-1 has its lamp at position 1, inside A for the full window
    assert oracle.membership(Word((1, 2, -1)))
    assert not oracle.membership(Word((1,)))


def test_wreath_full_window_ball_is_line():
    oracle = wreath_percolation_oracle(sample_bernoulli_percolation(1.0, 10, 0))
    ball = generate_ball(oracle, 5)
    # hand construction: lamps always erased, only the shift moves
    assert sorted(c[1] for c in ball.ids) == list(range(-5, 6))
    assert all(c[0] == () for c in ball.ids)
    slot_a, slot_b = 1, 2
    for i in range(ball.n_vertices):
        assert ball.nbr[i, slot_a] == i
        assert ball.nbr[i, slot_b] == i


def test_wreath_membership_outside_window_errors():
    oracle = wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 3, 0))
    with pytest.raises(WindowExceeded):
        oracle.membership(WreathElement.make({7: parse_word("a")}, 0))


def test_permutation_whole_group_and_transposition():
    assert generate_ball(permutation_stabilizer_oracle(1, 2, 0), 5).n_vertices == 1
    o = PermutationStabilizerOracle(2, 2, None, perms=[[1, 0], [1, 0]])
    ball = generate_ball(o, 5)
    assert ball.n_vertices == 2
    assert len(o.orbit_of_root()) == 2


@pytest.mark.parametrize("d, perms", [
    (2, [[1, 2, 0]]),  # too few: the window's table has too few columns
    (1, [[1, 2, 0], [0, 2, 1]]),  # too many: the extra one would be walked too
])
def test_permutation_count_must_equal_rank(d, perms):
    with pytest.raises(ValidationError, match=f"expected {d} permutations, got {len(perms)}"):
        PermutationStabilizerOracle(3, d, None, perms=perms)


def test_permutation_usually_transitive():
    transitive = 0
    for seed in range(500):
        o = permutation_stabilizer_oracle(50, 2, seed)
        if len(o.orbit_of_root()) == 50:
            transitive += 1
    assert transitive >= 475  # >= 95% of seeds


def test_permutation_seed_determinism():
    o1 = permutation_stabilizer_oracle(20, 2, 9)
    o2 = permutation_stabilizer_oracle(20, 2, 9)
    assert all(np.array_equal(a, b) for a, b in zip(o1.perms, o2.perms))


def test_kernel_ball_and_root_return():
    oracle = kernel_to_Z_oracle((1, 0))
    assert oracle.d == 2  # the rank is the weight count
    ball = generate_ball(oracle, 5)
    assert sorted(ball.ids) == list(range(-5, 6))
    assert oracle.membership(parse_word("abAB"))  # zero a-exponent
    assert not oracle.membership(parse_word("ab"))


def test_kernel_dirichlet_at_radius_40():
    est = dirichlet_lower_bound(generate_ball(kernel_to_Z_oracle((1, 0)), 40))
    assert est.value >= 0.99


def test_kernel_rejects_zero_weights():
    with pytest.raises(ValidationError):
        kernel_to_Z_oracle((0, 0))
    with pytest.raises(ValidationError, match="at least one weight"):
        kernel_to_Z_oracle(())


def _tv(c1: Counter, c2: Counter, n1: int, n2: int) -> float:
    keys = set(c1) | set(c2)
    return sum(abs(c1[k] / n1 - c2[k] / n2) for k in keys) / 2


def test_conjugation_invariance_distributional():
    """The law of the rooted radius-2 ball of H^g matches that of H.

    Exact invariance holds by relabeling symmetry.  At full
    isomorphism-class granularity, 2000 seeds produce ~2300 distinct
    classes, so raw empirical TV sits near 0.78 for *identically
    distributed* samples; the test is therefore calibrated against the
    H-vs-H noise floor, with 0.05 as the margin, and additionally checks
    the literal TV bound on the coarse ball-size marginal where the noise
    is small.
    """
    g = parse_word("ab")
    h_even, h_odd, hg_odd = Counter(), Counter(), Counter()
    size_h, size_hg = Counter(), Counter()
    for seed in range(2000):
        oracle = permutation_stabilizer_oracle(6, 2, seed)
        ball_h = generate_ball(oracle, 2)
        ball_hg = generate_ball(conjugate(oracle, g), 2)
        size_h[ball_h.n_vertices] += 1
        size_hg[ball_hg.n_vertices] += 1
        if seed % 2 == 0:
            h_even[ball_key(ball_h)] += 1
        else:
            h_odd[ball_key(ball_h)] += 1
            hg_odd[ball_key(ball_hg)] += 1
    noise_floor = _tv(h_even, h_odd, 1000, 1000)
    cross = _tv(h_even, hg_odd, 1000, 1000)
    assert cross <= noise_floor + 0.05
    assert _tv(size_h, size_hg, 2000, 2000) <= 0.05


def test_longest_segment():
    assert longest_segment({0, 1, 2, 5, 6}) == 3
    assert longest_segment(set()) == 0
    assert longest_segment({-2, -1, 0, 1}) == 4


def test_sample_to_json_rejects_what_the_cli_never_samples():
    sample = sample_bernoulli_percolation(1.0, 3, 0)
    for other in (kernel_to_Z_oracle((1, 0)), wreath_percolation_oracle(sample)):
        with pytest.raises(ValidationError, match="cannot serialize"):
            sample_to_json(other)


def test_sample_to_json_of_explicit_sites_is_valid_json():
    record = sample_to_json(percolation_from_sites([0, 1], 3))
    assert json.loads(json.dumps(record, allow_nan=False))["params"] == {"p": None, "window": 3}
