"""Samplers for conjugation-invariant random subgroups, and deterministic
co-amenable oracles used as the fixed factor in intersection experiments.

All randomness flows through numpy's seeded default generator (PCG64), so
identical parameters and seed reproduce identical oracles bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, WindowExceeded
from .schreier import CODE_LIMIT, CosetCoder, SubgroupOracle, generate_ball
from .words import Word, WreathElement, letter_char, wreath_from_word

__all__ = [
    "PercolationSample",
    "sample_bernoulli_percolation",
    "WreathPercolationOracle",
    "wreath_percolation_oracle",
    "PermutationStabilizerOracle",
    "permutation_stabilizer_oracle",
    "ZKernelOracle",
    "kernel_to_Z_oracle",
    "sample_to_json",
    "longest_segment",
    "maximal_segments",
]


@dataclass(frozen=True)
class PercolationSample:
    """A Bernoulli site percolation on the integer window [-W, W]."""

    sites: frozenset[int]
    p: float
    window: int
    seed: int | None

    def density(self) -> float:
        return len(self.sites) / (2 * self.window + 1)


def sample_bernoulli_percolation(p: float, window: int, seed: int) -> PercolationSample:
    """Each site of [-W, W] lands in the set independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if window < 0:
        raise ValidationError(f"window must be >= 0, got {window}")
    rng = np.random.default_rng(seed)
    draws = rng.random(2 * window + 1)
    sites = frozenset(
        i for k, i in enumerate(range(-window, window + 1)) if draws[k] < p
    )
    return PercolationSample(sites, float(p), int(window), int(seed))


def percolation_from_sites(sites: Iterable[int], window: int, p: float = float("nan")) -> PercolationSample:
    """Wrap an explicit site set (e.g. a deterministic segment) as a sample."""
    sites = frozenset(int(x) for x in sites)
    for x in sites:
        if abs(x) > window:
            raise ValidationError(f"site {x} lies outside the window [-{window}, {window}]")
    return PercolationSample(sites, p, int(window), None)


def maximal_segments(sites: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers in the set, as sorted (lo, hi)."""
    s = set(sites)
    segments = []
    for x in sorted(s):
        if x - 1 in s:
            continue
        hi = x
        while hi + 1 in s:
            hi += 1
        segments.append((x, hi))
    return segments


def longest_segment(sites: Iterable[int]) -> int:
    """Length of the longest run of consecutive integers in the set."""
    return max((hi - lo + 1 for lo, hi in maximal_segments(sites)), default=0)


class WreathPercolationOracle(SubgroupOracle):
    """Coset action of H_A = F2^(sum over A) inside the wreath product.

    A coset is canonically (lamp configuration restricted to the complement
    of A, shift): lamps over A are erased, so the letters a, b act as loops
    wherever the walker stands on a percolated site.  Walks whose shift
    leaves the window [-W, W] raise WindowExceeded: the oracle is exact on
    its declared domain and refuses to guess beyond it.
    """

    def __init__(self, sample: PercolationSample):
        self.sample = sample
        self.family = ("wreath",)
        self.d = 3  # letters: 1 = s (shift), 2 = a, 3 = b
        self.root = ((), 0)

    def act(self, letter: int, coset):
        support, shift = coset
        if letter in (1, -1):
            new_shift = shift + (1 if letter > 0 else -1)
            if abs(new_shift) > self.sample.window:
                raise WindowExceeded(
                    f"shift {new_shift} leaves the window [-{self.sample.window}, "
                    f"{self.sample.window}]"
                )
            return (support, new_shift)
        if letter not in (2, 3, -2, -3):
            raise ValidationError(f"invalid wreath letter {letter}")
        if shift in self.sample.sites:
            return coset  # lamp over A: erased in the coset normal form
        lamp_letter = (abs(letter) - 1) * (1 if letter > 0 else -1)
        entries = dict(support)
        word = list(entries.get(shift, ()))
        if word and word[-1] == -lamp_letter:
            word.pop()
        else:
            word.append(lamp_letter)
        if word:
            entries[shift] = tuple(word)
        else:
            entries.pop(shift, None)
        return (tuple(sorted(entries.items())), shift)

    def coder(self, root, radius: int) -> CosetCoder | None:
        """One row per coset: the shift, offset so that the radius + 1 range
        around the root's shift starts at 0, then a lamp code for each site
        within ``radius`` of the root's shift, where the walker stands while
        the ball is stepped.  A lamp code is the reduced word u = w0^-1 w,
        w0 the root's lamp word at that site, in bijective base 4 over the
        digits (a, b, A, B): appending digit l gives u * 4 + l + 1 and
        popping gives (u - 1) // 4.  At distance j from the root's shift u
        has at most radius + 1 - j letters; at sites of A it stays 0, since
        lamp letters are loops there.  None when a shift in the range
        leaves [-W, W] (``act`` raises there) or a column passes
        ``CODE_LIMIT``."""
        center = root[1]
        if abs(center) + radius + 1 > self.sample.window:
            return None
        sites = range(center - radius, center + radius + 1)
        looped = np.array([False] + [x in self.sample.sites for x in sites])
        sizes = (2 * radius + 3,) + tuple(
            1 if x in self.sample.sites else (4 ** (radius + 2 - abs(x - center)) - 1) // 3
            for x in sites
        )
        if max(sizes) > CODE_LIMIT:
            return None
        digits = np.arange(4)
        undo = (digits + 2) % 4  # the digit each digit cancels
        lamp_slots = np.array([1, 2, 4, 5])  # a, b, A, B

        def step(rows: np.ndarray) -> np.ndarray:
            out = np.repeat(rows[:, None, :], 6, axis=1)
            out[:, 0, 0] += 1
            out[:, 3, 0] -= 1
            col = rows[:, 0]  # the walker's lamp column is its shift code
            at = np.arange(len(rows))
            u = rows[at, col][:, None]
            pushed = np.where((u > 0) & ((u - 1) % 4 == undo), (u - 1) // 4, u * 4 + digits + 1)
            out[at[:, None], lamp_slots, col[:, None]] = np.where(looped[col][:, None], u, pushed)
            return out

        return CosetCoder(((radius + 1,) + (0,) * len(sites),), sizes, step)

    def membership(self, element) -> bool:
        """An element (f, n) lies in H_A iff n = 0 and supp f is inside A."""
        if isinstance(element, Word):
            element = wreath_from_word(element)
        if not isinstance(element, WreathElement):
            raise ValidationError("membership expects a Word over {s,a,b} or a WreathElement")
        for pos, _ in element.support:
            if abs(pos) > self.sample.window:
                raise WindowExceeded(
                    f"lamp position {pos} leaves the window; enlarge W to decide"
                )
        if element.shift != 0:
            return False
        return all(pos in self.sample.sites for pos, _ in element.support)

    def describe(self, coset) -> str:
        support, shift = coset
        body = ", ".join(
            f"{pos}:" + "".join(map(letter_char, word)) for pos, word in support
        )
        return f"({body}; {shift})"


def wreath_percolation_oracle(sample: PercolationSample) -> WreathPercolationOracle:
    return WreathPercolationOracle(sample)


class PermutationStabilizerOracle(SubgroupOracle):
    """Stabilizer of a point under d random permutations of {0..N-1}.

    Uniform tuples of permutations are conjugation-invariant in law, so the
    stabilizer subgroup is an IRS-style sample; its index is the orbit size
    of the root point, always finite.
    """

    def __init__(self, n_points: int, d: int, seed: int | None, perms: Sequence[Sequence[int]] | None = None):
        if n_points < 1:
            raise ValidationError(f"need at least one point, got {n_points}")
        if d < 1:
            raise ValidationError(f"rank must be >= 1, got {d}")
        self.n_points = int(n_points)
        self.d = int(d)
        self.seed = seed
        if perms is None:
            rng = np.random.default_rng(seed)
            perms = [rng.permutation(n_points) for _ in range(d)]
        self.perms = [np.asarray(p, dtype=np.int64) for p in perms]
        for p in self.perms:
            if sorted(p.tolist()) != list(range(n_points)):
                raise ValidationError("not a permutation of the point set")
        self.inverse_perms = [np.argsort(p) for p in self.perms]
        self.family = ("free", self.d)
        self.root = 0

    def act(self, letter: int, point: int) -> int:
        i = abs(letter) - 1
        table = self.perms[i] if letter > 0 else self.inverse_perms[i]
        return int(table[point])

    def coder(self, root: int, radius: int) -> CosetCoder:
        """Codes are the points, stepped through one (n_points, 2d) table."""
        return _points_coder([self], [root])

    @staticmethod
    def stacked_coder(members, radius: int) -> CosetCoder:
        return _points_coder(members, [m.root for m in members])

    def orbit_of_root(self) -> list[int]:
        # the orbit has at most n_points points, so radius n_points - 1
        # covers it and leaves no rim
        return sorted(generate_ball(self, self.n_points - 1, vertex_cap=self.n_points).ids)


def _points_coder(oracles, roots) -> CosetCoder:
    """Codes for the oracles' disjoint union: the points, each oracle's
    offset past the ones before it, with one root row per (oracle, root)."""
    offsets = np.cumsum([0] + [o.n_points for o in oracles]).tolist()
    table = np.concatenate([
        np.stack(o.perms + o.inverse_perms, axis=1) + offset for o, offset in zip(oracles, offsets)
    ])
    return CosetCoder(
        tuple((offset + int(root),) for offset, root in zip(offsets, roots)),
        (offsets[-1],), lambda rows: table[rows[:, 0], :, None],
    )


def permutation_stabilizer_oracle(n_points: int, d: int, seed: int) -> PermutationStabilizerOracle:
    return PermutationStabilizerOracle(n_points, d, seed)


class ZKernelOracle(SubgroupOracle):
    """Kernel of the weighted exponent-sum map F_d -> Z: a deterministic
    co-amenable subgroup (the Schreier graph is Z with loops for
    zero-weight generators)."""

    def __init__(self, d: int, weights: Sequence[int]):
        if d < 1:
            raise ValidationError(f"rank must be >= 1, got {d}")
        weights = tuple(int(w) for w in weights)
        if len(weights) != d:
            raise ValidationError(f"expected {d} weights, got {len(weights)}")
        if not any(weights):
            raise ValidationError(
                "all-zero weights give the whole group; use whole_group_oracle instead"
            )
        self.d = int(d)
        self.weights = weights
        self.family = ("free", self.d)
        self.root = 0

    def act(self, letter: int, coset: int) -> int:
        w = self.weights[abs(letter) - 1]
        return coset + (w if letter > 0 else -w)

    def coder(self, root: int, radius: int) -> CosetCoder | None:
        """Codes are the offsets, shifted so the radius + 1 window starts at 0."""
        span = max(abs(w) for w in self.weights) * (radius + 1)
        if 2 * span + 1 > CODE_LIMIT:
            return None
        steps = np.array(self.weights + tuple(-w for w in self.weights), dtype=np.int64)
        return CosetCoder(((span,),), (2 * span + 1,), lambda rows: (rows + steps)[:, :, None])

    def membership(self, word: Word) -> bool:
        total = 0
        for letter in word.letters:
            w = self.weights[abs(letter) - 1]
            total += w if letter > 0 else -w
        return total == 0


def kernel_to_Z_oracle(d: int, weights: Sequence[int]) -> ZKernelOracle:
    return ZKernelOracle(d, weights)


# --- sample serialization ---------------------------------------------------

def sample_to_json(obj) -> dict:
    """JSON record {family, params, seed, data} of a percolation sample or
    a permutation-stabilizer oracle."""
    if isinstance(obj, PercolationSample):
        return {
            "family": "percolation",
            "params": {"p": obj.p, "window": obj.window},
            "seed": obj.seed,
            "data": {"sites": sorted(obj.sites)},
        }
    if isinstance(obj, PermutationStabilizerOracle):
        return {
            "family": "permutation",
            "params": {"n": obj.n_points, "d": obj.d},
            "seed": obj.seed,
            "data": {"perms": [p.tolist() for p in obj.perms]},
        }
    raise ValidationError(f"cannot serialize {type(obj).__name__}")
