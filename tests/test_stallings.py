import functools

import numpy as np
import pytest

from helpers import all_reduced_words, stabilizer_generators, subgroup_closure
from cospectral.errors import ValidationError
from cospectral.experiments import random_subgroup_words
from cospectral.irs import (
    PermutationStabilizerOracle,
    kernel_to_Z_oracle,
    sample_bernoulli_percolation,
    wreath_percolation_oracle,
)
from cospectral.schreier import (
    StallingsOracle,
    count_reduced_returns,
    generate_ball,
    product_oracle,
    trivial_subgroup_oracle,
)
from cospectral.stallings import (
    EdgeListGraph,
    StallingsAutomaton,
    _nonbacktracking,
    automaton_to_dot,
    build_automaton,
    cogrowth_rate,
    fold,
    intersect_automata,
    membership,
    slot_of_letter,
    subgroup_index,
)
from cospectral.words import Word, parse_word


def test_build_single_loop():
    a = build_automaton("a", 2)
    assert a.n_states == 1
    assert a.table[0][slot_of_letter(1, 2)] == 0
    assert a.table[0][slot_of_letter(2, 2)] is None


def _reference_trace(automaton, word):
    """Trace letter by letter through the table, checking each letter's rank
    when it is reached."""
    state = automaton.base
    for letter in word.letters:
        if abs(letter) > automaton.d:
            raise ValidationError(f"letter {letter} exceeds rank {automaton.d}")
        state = automaton.table[state][slot_of_letter(letter, automaton.d)]
        if state is None:
            return None
    return state


def test_trace_matches_letter_by_letter_steps():
    rng = np.random.default_rng(17)
    outcomes = {"state": 0, "fell_off": 0, "rank_error": 0}
    for seed in range(30):
        d = 1 + seed % 3
        automaton = build_automaton(random_subgroup_words(seed, d=d), d)
        alphabet = [x for x in range(-d - 1, d + 2) if x]  # one letter past the rank
        for _ in range(60):
            length = int(rng.integers(0, 10))
            word = Word(tuple(int(x) for x in rng.choice(alphabet, length)))
            try:
                expected = _reference_trace(automaton, word)
            except ValidationError:
                with pytest.raises(ValidationError, match="exceeds rank"):
                    automaton.trace(word)
                outcomes["rank_error"] += 1
                continue
            assert automaton.trace(word) == expected
            assert automaton.trace(parse_word(str(word))) == expected
            outcomes["fell_off" if expected is None else "state"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_build_trivial():
    a = build_automaton([], 2)
    assert a.n_states == 1
    assert all(t is None for t in a.table[0])


def test_build_index_two_kernel():
    a = build_automaton("aa,b,abA", 2)
    assert a.n_states == 2
    assert subgroup_index(a) == 2


def test_index_two_kernel_against_coset_enumeration():
    # Brute force: cosets of H among words of length <= 4, with membership
    # decided by a free-reduction closure of the generators (independent of
    # the automaton).  Exactly two classes must appear.
    gens = [parse_word(s) for s in ("aa", "b", "abA")]
    elements = subgroup_closure(gens, max_len=8)
    words = all_reduced_words(2, 4)
    classes = []
    for w in words:
        for rep in classes:
            if (w * rep.inverse()) in elements:
                break
        else:
            classes.append(w)
    assert len(classes) == 2


def test_fold_merges_double_edge():
    # two a-edges from the base to distinct leaves fold into one
    graph = EdgeListGraph(d=2, n_states=3, base=0, edges=[(0, 0, 1), (0, 0, 2)])
    folded = fold(graph)
    assert folded.n_states == 2
    assert folded.table[0][slot_of_letter(1, 2)] == 1


def test_fold_of_folded_is_identity():
    a = build_automaton("aa,b", 2)
    edges = [(u, s, t) for u, row in enumerate(a.table) for s, t in enumerate(row[: a.d]) if t is not None]
    assert fold(EdgeListGraph(a.d, a.n_states, a.base, edges)) == a


def test_built_automaton_is_its_own_core():
    for d in (1, 2, 3):
        for seed in range(60):
            for size in ((3, 6), (5, 10)):
                automaton = build_automaton(random_subgroup_words(seed, d, *size), d)
                assert automaton.core() == automaton


def test_fold_wedge_membership_of_random_products():
    a = build_automaton("ab,aB", 2)
    rng = np.random.default_rng(5)
    gens = [parse_word("ab"), parse_word("aB")]
    gens += [g.inverse() for g in gens]
    for _ in range(200):
        w = Word(())
        for k in rng.integers(0, 4, size=int(rng.integers(1, 8))):
            w = w * gens[int(k)]
        assert membership(a, w)


def test_fold_confluence_under_edge_orders():
    rng = np.random.default_rng(99)
    words = ["abA", "bba", "aBaB"]
    edges = []
    n = 1
    for text in words:
        w = parse_word(text)
        prev = 0
        for i, letter in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else n
            if nxt != 0:
                n += 1
            if letter > 0:
                edges.append((prev, letter - 1, nxt))
            else:
                edges.append((nxt, -letter - 1, prev))
            prev = nxt
    reference = fold(EdgeListGraph(2, n, 0, list(edges)))
    for _ in range(10):
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        assert fold(EdgeListGraph(2, n, 0, shuffled)) == reference


def test_membership_examples():
    a = build_automaton("aa,b", 2)
    assert membership(a, parse_word("aab"))
    assert not membership(a, parse_word("a"))
    assert membership(a, parse_word("bAA"))


def test_intersect_disjoint_letters():
    inter = intersect_automata(build_automaton("a", 2), build_automaton("b", 2))
    assert inter.n_states == 1
    assert all(t is None for t in inter.table[0])


def test_intersect_nested_cyclic():
    inter = intersect_automata(build_automaton("a", 2), build_automaton("aa", 2))
    assert inter == build_automaton("aa", 2)


def test_intersect_exhaustive_agreement():
    a1 = build_automaton("aa,b", 2)
    a2 = build_automaton("aaa,b", 2)
    inter = intersect_automata(a1, a2)
    assert membership(inter, parse_word("aaaaaa"))
    assert membership(inter, parse_word("b"))
    for w in all_reduced_words(2, 8):
        assert membership(inter, w) == (membership(a1, w) and membership(a2, w))


def test_intersection_oracle_equivalence_random_pairs():
    # smaller companion of the acceptance sweep: 15 random pairs, words <= 6
    from cospectral.experiments import random_subgroup_words

    words6 = all_reduced_words(2, 6)
    for seed in range(15):
        a1 = build_automaton(random_subgroup_words(2 * seed), 2)
        a2 = build_automaton(random_subgroup_words(2 * seed + 1), 2)
        inter = intersect_automata(a1, a2)
        for w in words6:
            assert membership(inter, w) == (membership(a1, w) and membership(a2, w))


def test_index_examples():
    whole = build_automaton("a,b", 2)
    assert subgroup_index(whole) == 1
    assert subgroup_index(build_automaton("aa,b,abA", 2)) == 2
    assert subgroup_index(build_automaton("a", 2)) is None


def test_index_multiplicativity_for_finite_index_pairs():
    rng = np.random.default_rng(31)
    for _ in range(10):
        o1 = PermutationStabilizerOracle(int(rng.integers(2, 7)), 2, int(rng.integers(1e6)))
        o2 = PermutationStabilizerOracle(int(rng.integers(2, 7)), 2, int(rng.integers(1e6)))
        a1 = build_automaton(stabilizer_generators(o1), 2)
        a2 = build_automaton(stabilizer_generators(o2), 2)
        i1, i2 = subgroup_index(a1), subgroup_index(a2)
        assert i1 == len(o1.orbit_of_root())
        assert i2 == len(o2.orbit_of_root())
        inter = subgroup_index(intersect_automata(a1, a2))
        assert inter is not None
        assert inter >= max(i1, i2)
        assert (i1 * i2) % inter == 0


def test_cogrowth_whole_group():
    result = cogrowth_rate(build_automaton("a,b", 2))
    assert result.alpha == pytest.approx(3.0, abs=1e-8)
    assert result.converged


def test_cogrowth_trivial_subgroup():
    result = cogrowth_rate(build_automaton([], 2))
    assert result.alpha == 0.0
    assert result.delta is None


def test_cogrowth_cyclic_subgroup():
    # <a> has two elements per positive length: growth base 1
    result = cogrowth_rate(build_automaton("a", 2))
    assert result.alpha == pytest.approx(1.0, abs=1e-8)


def test_cogrowth_index_two_kernel_with_exact_counts():
    a = build_automaton("aa,b,abA", 2)
    result = cogrowth_rate(a)
    assert result.alpha == pytest.approx(3.0, abs=0.05)
    # exact non-backtracking closed path counts as an independent cross-check
    counts = count_reduced_returns(StallingsOracle(a), 14)
    assert counts[0] == 2  # b and B
    # counts fit 3^n up to a bounded factor, and successive ratios approach 3
    assert 0.3 <= counts[13] / 3**14 <= 3.0
    assert counts[13] / counts[12] == pytest.approx(3.0, abs=0.2)


def test_whole_group_counts_closed_form():
    # 4 * 3**43 > 2**63: the longest counts run in Python integers
    counts = count_reduced_returns(StallingsOracle(build_automaton("a,b", 2)), 44)
    assert counts == [4 * 3 ** (n - 1) for n in range(1, 45)]


def test_cyclic_counts_closed_form():
    counts = count_reduced_returns(StallingsOracle(build_automaton("a", 2)), 9)
    assert counts == [2] * 9


def test_cogrowth_bounded_by_2d_minus_1():
    from cospectral.experiments import random_subgroup_words

    for seed in range(20):
        automaton = build_automaton(random_subgroup_words(seed + 100), 2)
        result = cogrowth_rate(automaton)
        assert result.alpha <= 3.0 + 1e-6
        if subgroup_index(automaton) is not None:
            assert result.alpha == pytest.approx(3.0, abs=0.05)


def test_rank_mismatch_rejected():
    with pytest.raises(ValidationError):
        intersect_automata(build_automaton("a", 2), build_automaton("a", 3))
    with pytest.raises(ValidationError):
        build_automaton("c", 2)


@pytest.mark.parametrize("d, table", [
    (2, [[0, 0]]),  # too narrow: the missing slots would be indexed past the row
    (1, [[0, 0, 0, 0]]),  # too wide: the extra slots would be ignored
])
def test_table_rows_must_have_two_d_slots(d, table):
    with pytest.raises(ValidationError, match=f"has {len(table[0])} slots, not {2 * d}"):
        StallingsAutomaton(d, table)


def test_dot_export():
    dot = automaton_to_dot(build_automaton("aa,b,abA", 2))
    assert dot.count("[shape=") == 2
    assert 'label="a"' in dot and 'label="b"' in dot


def test_canonical_equality_is_labeled_isomorphism():
    a1 = build_automaton("ab,aB", 2)
    a2 = build_automaton("aB,ab", 2)
    assert a1 == a2
    assert hash(a1) == hash(a2)


def _reference_nonbacktracking(table, d, x):
    """B on a row-major edge vector x[u, s]: each slot total added in slot
    order, as numpy also adds a row of fewer than 8 slots."""
    width = 2 * d
    reverse = (np.arange(width) + d) % width
    padded = np.zeros((len(table) + 1, width), dtype=x.dtype)
    padded[:-1] = x
    total = padded.sum(axis=1) if width < 8 else functools.reduce(np.add, padded.T)
    return total[table] - padded[table, reverse]


def _automaton_table(automaton):
    n = automaton.n_states
    return np.array([[n if t is None else t for t in row] for row in automaton.table])


def _edge_vectors(rng, shape):
    floats = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    ints = rng.integers(-(2**40), 2**40, shape)
    wide = np.array([[int(v) << 70 for v in row] for row in ints.tolist()], dtype=object)
    return floats, ints, wide


def test_slot_major_nonbacktracking_adds_the_slots_in_order():
    # below 8 slots that is the row-major sum; integer totals match at any width
    rng = np.random.default_rng(11)
    tables = []
    for seed in range(21):
        d = 2 + seed % 7  # widths 4 to 16
        tables.append((_automaton_table(build_automaton(random_subgroup_words(seed, d=d), d)), d))
    for oracle in (trivial_subgroup_oracle(2),
                   product_oracle(StallingsOracle(build_automaton("ab,bA", 2)),
                                  kernel_to_Z_oracle((1, 0))),
                   wreath_percolation_oracle(sample_bernoulli_percolation(0.5, 20, 3))):
        ball = generate_ball(oracle, 3)
        tables.append((np.minimum(ball.nbr, ball.n_vertices), oracle.d))
    assert {2 * d for _, d in tables} == set(range(4, 17, 2))
    for table, d in tables:
        for x in _edge_vectors(rng, table.shape):
            step = _nonbacktracking(table, d, x.dtype)
            got = step(np.ascontiguousarray(x.T))
            assert got.shape == table.T.shape
            assert np.array_equal(got, _reference_nonbacktracking(table, d, x).T)
