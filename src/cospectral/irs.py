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
from .schreier import SubgroupOracle
from .words import Word, WreathElement, wreath_from_word

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
    "oracle_from_sample",
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
            f"{pos}:" + "".join(_lamp_char(l) for l in word) for pos, word in support
        )
        return f"({body}; {shift})"


def _lamp_char(letter: int) -> str:
    ch = "a" if abs(letter) == 1 else "b"
    return ch if letter > 0 else ch.upper()


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

    def orbit_of_root(self) -> list[int]:
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for letter in self.letters:
                y = self.act(letter, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)


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

    def membership(self, word: Word) -> bool:
        total = 0
        for letter in word.letters:
            w = self.weights[abs(letter) - 1]
            total += w if letter > 0 else -w
        return total == 0


def kernel_to_Z_oracle(d: int, weights: Sequence[int]) -> ZKernelOracle:
    return ZKernelOracle(d, weights)


# --- sample (de)serialization ------------------------------------------------

def sample_to_json(obj) -> dict:
    """JSON record {family, params, seed, data}; oracles rebuild bit-exactly."""
    if isinstance(obj, PercolationSample):
        return {
            "family": "percolation",
            "params": {"p": obj.p, "window": obj.window},
            "seed": obj.seed,
            "data": {"sites": sorted(obj.sites)},
        }
    if isinstance(obj, WreathPercolationOracle):
        return sample_to_json(obj.sample)
    if isinstance(obj, PermutationStabilizerOracle):
        return {
            "family": "permutation",
            "params": {"n": obj.n_points, "d": obj.d},
            "seed": obj.seed,
            "data": {"perms": [p.tolist() for p in obj.perms]},
        }
    if isinstance(obj, ZKernelOracle):
        return {
            "family": "zkernel",
            "params": {"d": obj.d, "weights": list(obj.weights)},
            "seed": None,
            "data": {},
        }
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def oracle_from_sample(record: dict) -> SubgroupOracle:
    family = record.get("family")
    params = record.get("params", {})
    data = record.get("data", {})
    if family == "percolation":
        sample = PercolationSample(
            frozenset(data["sites"]), params["p"], params["window"], record.get("seed")
        )
        return WreathPercolationOracle(sample)
    if family == "permutation":
        return PermutationStabilizerOracle(
            params["n"], params["d"], record.get("seed"), perms=data["perms"]
        )
    if family == "zkernel":
        return ZKernelOracle(params["d"], params["weights"])
    raise ValidationError(f"unknown sample family {family!r}")
