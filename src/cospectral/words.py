"""Element arithmetic for the two concrete group families.

Free groups F_d are handled as reduced words; the restricted wreath product
F2^(sum over Z) semidirect Z of the lamplighter-with-free-lamps kind is
handled in normal form (finitely supported lamp configuration, shift).

Letters of F_d are encoded as nonzero signed integers: ``+i`` is the
(i-1)-th positive generator, ``-i`` its inverse.  Words print as strings
over ``a, b, c, ...`` with uppercase meaning inverse, so ``"abA"`` is
a b a^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "Word",
    "WreathElement",
    "letter_char",
    "reduce_word",
    "parse_word",
    "wreath_generator",
    "wreath_from_word",
    "WREATH_LETTERS",
    "WREATH_NAMES",
]


def letter_char(letter: int) -> str:
    """The printed name of a letter: +i is the i-th of a, b, c, ..., -i its
    uppercase."""
    ch = chr(ord("a") + abs(letter) - 1)
    return ch if letter > 0 else ch.upper()


def _as_letter(x) -> int:
    letter = int(x)
    if letter == 0:
        raise ValidationError("0 is not a valid letter")
    return letter


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A reduced word in a free group; the empty word is the identity.

    Words reduce on construction, so every stored word is fully reduced.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(_as_letter(x) for x in self.letters)
        object.__setattr__(self, "letters", _reduce(letters))

    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "Word":
        return Word(tuple(-letter for letter in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(map(letter_char, self.letters))


IDENTITY_WORD = Word()


def letters_of_rank(d: int) -> tuple[int, ...]:
    """Symmetric generating letters in fixed slot order: +1..+d, -1..-d."""
    return tuple(range(1, d + 1)) + tuple(range(-1, -d - 1, -1))


def reduce_word(letters: Sequence[int], d: int | None = None) -> Word:
    """Freely reduce a letter sequence; validates indices against rank d."""
    encoded = [_as_letter(x) for x in letters]
    if d is not None:
        for letter in encoded:
            if abs(letter) > d:
                raise ValidationError(
                    f"letter {letter} refers to generator index {abs(letter) - 1}, "
                    f"but the rank is {d}"
                )
    return Word(tuple(encoded))


def parse_word(s: str) -> Word:
    """Parse a word like "abA" (uppercase = inverse); "" is the identity."""
    letters = []
    for ch in s.strip():
        if ch in " \t":
            continue
        if not ch.isalpha():
            raise ValidationError(f"invalid character {ch!r} in word {s!r}")
        idx = ord(ch.lower()) - ord("a")
        letters.append((idx + 1) if ch.islower() else -(idx + 1))
    return Word(tuple(letters))


# --- wreath product F2^(+Z) x| Z ------------------------------------------
#
# Normal form (f, n): f is a finitely supported map Z -> F2 (nonempty reduced
# lamp words, absent key = identity lamp), n the shift.  Product law:
#   (f, n) * (g, m) = (f . shift_n(g), n + m),  shift_n(g)(k) = g(k - n).
#
# Ambient generators: letter 1 = s (the shift), 2 = a, 3 = b; the lamp words
# live in F_2 with lamp letters 1 = a, 2 = b.

WREATH_D = 3
WREATH_LETTERS = (1, 2, 3, -1, -2, -3)
WREATH_NAMES = "sab"  # printed names of the letters 1, 2, 3


@dataclass(frozen=True)
class WreathElement:
    """Normal form (lamp configuration, shift) of a wreath-product element."""

    support: tuple[tuple[int, Word], ...] = ()
    shift: int = 0

    def __post_init__(self):
        cleaned = []
        seen = set()
        for pos, word in self.support:
            if not isinstance(word, Word):
                word = Word(tuple(word))
            if pos in seen:
                raise ValidationError(f"duplicate lamp position {pos}")
            seen.add(pos)
            if not word.is_identity():
                cleaned.append((int(pos), word))
        cleaned.sort()
        object.__setattr__(self, "support", tuple(cleaned))

    @classmethod
    def make(cls, support: Mapping[int, Word], shift: int = 0) -> "WreathElement":
        return cls(tuple(support.items()), int(shift))

    def support_map(self) -> dict[int, Word]:
        return dict(self.support)

    def is_identity(self) -> bool:
        return not self.support and self.shift == 0

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        lamps = self.support_map()
        for pos, word in other.support:
            shifted = pos + self.shift
            merged = lamps.get(shifted, IDENTITY_WORD) * word
            if merged.is_identity():
                lamps.pop(shifted, None)
            else:
                lamps[shifted] = merged
        return WreathElement.make(lamps, self.shift + other.shift)

    def inverse(self) -> "WreathElement":
        lamps = {pos - self.shift: word.inverse() for pos, word in self.support}
        return WreathElement.make(lamps, -self.shift)


WREATH_IDENTITY = WreathElement()


def wreath_generator(letter: int) -> WreathElement:
    """The wreath element for an ambient letter (1=s, 2=a, 3=b, negatives inverse)."""
    if letter in (1, -1):
        return WreathElement((), 1 if letter > 0 else -1)
    if letter in (2, 3, -2, -3):
        lamp_letter = (abs(letter) - 1) * (1 if letter > 0 else -1)
        return WreathElement(((0, Word((lamp_letter,))),), 0)
    raise ValidationError(f"invalid wreath letter {letter}; expected one of {WREATH_LETTERS}")


def wreath_from_word(word: Word) -> WreathElement:
    """Evaluate a word over {s, a, b} to a wreath element."""
    out = WREATH_IDENTITY
    for letter in word.letters:
        out = out * wreath_generator(letter)
    return out
