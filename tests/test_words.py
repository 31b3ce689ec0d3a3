import numpy as np
import pytest
from hypothesis import given, strategies as st

from cospectral.errors import ValidationError
from cospectral.words import (
    Word,
    WreathElement,
    parse_word,
    reduce_word,
    wreath_from_word,
    wreath_generator,
)

letters_f2 = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
letter_lists = st.lists(letters_f2, max_size=30)


def test_reduce_examples():
    assert reduce_word([1, -1]).letters == ()
    assert reduce_word([1, 2, -2, 1]).letters == (1, 1)
    assert reduce_word([1, 2, -1]).letters == (1, 2, -1)


def test_reduce_rejects_out_of_rank():
    with pytest.raises(ValidationError):
        reduce_word([1, 3], d=2)


@given(letter_lists)
def test_reduce_idempotent_and_shorter(letters):
    w = reduce_word(letters)
    assert Word(w.letters).letters == w.letters
    assert len(w) <= len(letters)
    # no adjacent cancelling pair survives
    assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


@given(letter_lists)
def test_word_times_inverse_is_identity(letters):
    w = Word(tuple(letters))
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


def test_word_parse_print_roundtrip():
    for text in ["", "a", "abA", "aaBBa"]:
        assert str(parse_word(text)) == text
    assert parse_word("aA").is_identity()
    with pytest.raises(ValidationError):
        parse_word("a1")


def _random_word(rng, max_len=6):
    length = int(rng.integers(0, max_len + 1))
    return Word(tuple(int(x) for x in rng.choice([-2, -1, 1, 2], size=length)))


def _random_wreath(rng):
    support = {}
    for pos in rng.choice(range(-3, 4), size=int(rng.integers(0, 4)), replace=False):
        w = _random_word(rng, 4)
        if not w.is_identity():
            support[int(pos)] = w
    return WreathElement.make(support, int(rng.integers(-3, 4)))


def test_associativity_1000_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(500):
        x, y, z = (_random_word(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
    for _ in range(500):
        x, y, z = (_random_wreath(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_wreath_multiplication_examples():
    a0 = WreathElement.make({0: parse_word("a")}, 1)
    b0 = WreathElement.make({0: parse_word("b")}, 0)
    assert a0 * b0 == WreathElement.make({0: parse_word("a"), 1: parse_word("b")}, 1)
    s = WreathElement.make({}, 1)
    assert (s * s.inverse()).is_identity()


def test_wreath_inverse_example():
    x = WreathElement.make({2: parse_word("ab")}, 3)
    assert x.inverse() == WreathElement.make({-1: parse_word("BA")}, -3)
    assert (x * x.inverse()).is_identity()
    assert WreathElement().inverse() == WreathElement()


def test_wreath_identity_axioms():
    rng = np.random.default_rng(11)
    e = WreathElement()
    for _ in range(100):
        x = _random_wreath(rng)
        assert x * e == x
        assert e * x == x
        assert (x * x.inverse()) == e


# The configuration action is an independent realization of the group law:
# (f, n) sends a configuration-with-marker (c, m) to (k -> f(k) c(k-n), m+n).
# Composing actions must agree with the normal-form product.

def _act(x: WreathElement, config: dict, marker: int):
    out = {}
    keys = {pos + x.shift for pos in config} | {p for p, _ in x.support}
    for k in keys:
        word = x.lamp(k) * config.get(k - x.shift, Word(()))
        if not word.is_identity():
            out[k] = word
    return out, marker + x.shift


def test_wreath_law_against_configuration_action():
    rng = np.random.default_rng(23)
    for _ in range(200):
        x, y = _random_wreath(rng), _random_wreath(rng)
        config = {int(p): _random_word(rng, 3) for p in rng.choice(range(-2, 3), size=2, replace=False)}
        config = {p: w for p, w in config.items() if not w.is_identity()}
        via_product = _act(x * y, dict(config), 5)
        via_composition = _act(x, *_act(y, dict(config), 5))
        assert via_product == via_composition


def test_wreath_generators_and_word_evaluation():
    # s a s^-1 writes the lamp one step to the right of the origin
    w = parse_word("ab")  # ambient letters: a=shift s? no: 1=s? parse maps a->1
    # ambient alphabet for the wreath family: letter 1 = s, 2 = a, 3 = b
    element = wreath_from_word(Word((1, 2, -1)))
    assert element == WreathElement.make({1: parse_word("a")}, 0)
    assert wreath_generator(1) * wreath_generator(-1) == WreathElement()
    with pytest.raises(ValidationError):
        wreath_generator(4)
    assert isinstance(w, Word)
