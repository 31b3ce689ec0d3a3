"""Subgroup oracles and finite windows of Schreier coset graphs.

An oracle presents the right action of the generators on right cosets: a
root coset, ``act(letter, coset)``, and optionally a membership test.  Balls
are exact BFS windows; every ball vertex stores all 2d neighbor slots, with
targets one step beyond the radius interned as "outer" vertices so that
interiors, boundaries and Folner defects are exact even at the rim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BallCapExceeded, ValidationError
from .stallings import StallingsAutomaton, build_automaton, inverse_slot, letter_of_slot, slot_of_letter
from .words import Word, letters_of_rank

__all__ = [
    "SubgroupOracle",
    "StallingsOracle",
    "ProductOracle",
    "SchreierBall",
    "ComponentSet",
    "DoubleCosetEntry",
    "trivial_subgroup_oracle",
    "whole_group_oracle",
    "generate_ball",
    "interior_boundary",
    "product_oracle",
    "reroot",
    "conjugate_oracle",
    "enumerate_double_cosets",
    "folner_search",
    "folner_defect",
    "folner_defect_ids",
    "count_reduced_returns",
    "ball_to_dot",
]

DEFAULT_VERTEX_CAP = 5_000_000


class SubgroupOracle:
    """Behavioral interface for the right action on cosets of a subgroup.

    Subclasses set ``family`` (a tag identifying the ambient group, e.g.
    ("free", d) or ("wreath",)), ``d`` (positive generator count) and
    ``root`` (the coset of the subgroup itself), and implement ``act``.
    Coset ids are opaque hashables; ``act`` must respect inverses.
    """

    family: tuple
    d: int
    root: object

    def act(self, letter: int, coset):
        raise NotImplementedError

    @property
    def letters(self) -> tuple[int, ...]:
        return letters_of_rank(self.d)

    def membership(self, word: Word) -> bool:
        """Whether the word fixes the root coset (i.e. lies in the subgroup)."""
        coset = self.root
        for letter in word.letters:
            coset = self.act(letter, coset)
        return coset == self.root

    def describe(self, coset) -> str:
        return str(coset)


class StallingsOracle(SubgroupOracle):
    """Coset action of a f.g. subgroup of F_d read off its core automaton.

    A coset is canonically (automaton state, reduced hanging tail): trace as
    far as the automaton allows, the rest of the word hangs off as a path
    into the complement trees.  Ids are packed as bytes (4-byte state plus
    one byte per tail slot) for compact hashing.
    """

    def __init__(self, automaton: StallingsAutomaton):
        self.automaton = automaton
        self.d = automaton.d
        self.family = ("free", automaton.d)
        self.root = automaton.base.to_bytes(4, "little")

    def act(self, letter: int, coset: bytes) -> bytes:
        d = self.d
        s = slot_of_letter(letter, d)
        tail = coset[4:]
        if tail:
            if tail[-1] == inverse_slot(s, d):
                return coset[:-1]
            return coset + bytes([s])
        state = int.from_bytes(coset[:4], "little")
        target = self.automaton.table[state][s]
        if target is not None:
            return target.to_bytes(4, "little")
        return coset + bytes([s])

    def membership(self, word: Word) -> bool:
        return self.automaton.trace(word) == self.automaton.base

    def describe(self, coset: bytes) -> str:
        state = int.from_bytes(coset[:4], "little")
        tail = "".join(_slot_char(b, self.d) for b in coset[4:])
        return f"q{state}" + (f".{tail}" if tail else "")


def _slot_char(slot: int, d: int) -> str:
    letter = letter_of_slot(slot, d)
    ch = chr(ord("a") + abs(letter) - 1)
    return ch if letter > 0 else ch.upper()


def trivial_subgroup_oracle(d: int) -> StallingsOracle:
    """Oracle of the trivial subgroup: the 2d-regular tree (Cayley graph)."""
    return StallingsOracle(build_automaton([], d))


def whole_group_oracle(d: int) -> StallingsOracle:
    """Oracle of the whole group: a single coset with loops for all letters."""
    return StallingsOracle(StallingsAutomaton(d, [[0] * (2 * d)]))


class ProductOracle(SubgroupOracle):
    """Diagonal action on coset pairs; the root pair's component realizes
    the Schreier graph of the intersection, other components realize the
    conjugate intersections indexed by double cosets."""

    def __init__(self, o1: SubgroupOracle, o2: SubgroupOracle):
        if o1.family != o2.family:
            raise ValidationError(
                f"cannot form a product across families {o1.family} and {o2.family}"
            )
        self.o1 = o1
        self.o2 = o2
        self.family = o1.family
        self.d = o1.d
        self.root = (o1.root, o2.root)

    def act(self, letter: int, coset):
        return (self.o1.act(letter, coset[0]), self.o2.act(letter, coset[1]))

    def describe(self, coset) -> str:
        return f"({self.o1.describe(coset[0])}, {self.o2.describe(coset[1])})"


def product_oracle(o1: SubgroupOracle, o2: SubgroupOracle) -> ProductOracle:
    return ProductOracle(o1, o2)


class RerootedOracle(SubgroupOracle):
    """The same coset action viewed from a different root: the Schreier
    graph of the conjugate subgroup stabilizing the new root."""

    def __init__(self, base: SubgroupOracle, new_root):
        self._base = base
        self.family = base.family
        self.d = base.d
        self.root = new_root

    def act(self, letter: int, coset):
        return self._base.act(letter, coset)

    def describe(self, coset) -> str:
        return self._base.describe(coset)


def reroot(oracle: SubgroupOracle, new_root) -> RerootedOracle:
    return RerootedOracle(oracle, new_root)


def conjugate_oracle(oracle: SubgroupOracle, word: Word) -> RerootedOracle:
    """Oracle of the conjugate subgroup H^w, i.e. the action rerooted at
    the coset root.w"""
    coset = oracle.root
    for letter in word.letters:
        coset = oracle.act(letter, coset)
    return RerootedOracle(oracle, coset)


class SchreierBall:
    """Exact radius-R window of a Schreier graph.

    ``nbr[i]`` holds the 2d neighbor slots of ball vertex i in letter order;
    targets with index >= n_vertices lie one step beyond the radius (their
    own neighbors are unknown).  Ball vertices are numbered in BFS discovery
    order, so indices are sorted by distance and index 0 is the root.
    """

    def __init__(self, oracle, radius, ids, index, dist, nbr, outer_ids, parents):
        self.oracle = oracle
        self.radius = radius
        self.ids = ids
        self.index = index
        self.dist = dist
        self.nbr = nbr
        self.outer_ids = outer_ids
        self.parents = parents
        self._dist_full = None

    @property
    def n_vertices(self) -> int:
        return len(self.ids)

    @property
    def n_outer(self) -> int:
        return len(self.outer_ids)

    @property
    def dist_full(self) -> np.ndarray:
        """Distances for ball and outer indices (outer pinned at R+1)."""
        if self._dist_full is None:
            self._dist_full = np.concatenate(
                [self.dist, np.full(self.n_outer, self.radius + 1, dtype=np.int32)]
            )
        return self._dist_full

    def id_of(self, index: int):
        n = self.n_vertices
        return self.ids[index] if index < n else self.outer_ids[index - n]

    def indices_of(self, vertices: Iterable) -> np.ndarray:
        """Normalize a vertex collection (ids or indices) to sorted indices."""
        out = []
        for v in vertices:
            if isinstance(v, (int, np.integer)):
                if not 0 <= v < self.n_vertices:
                    raise ValidationError(f"vertex index {v} outside the ball")
                out.append(int(v))
            else:
                j = self.index.get(v)
                if j is None:
                    raise ValidationError(f"vertex {v!r} is not in the ball")
                out.append(j)
        return np.array(sorted(set(out)), dtype=np.int64)

    def word_to(self, index: int) -> Word:
        """A shortest word moving the root to the given ball vertex."""
        letters = []
        while index != 0:
            parent, letter = self.parents[index]
            letters.append(letter)
            index = parent
        return Word(tuple(reversed(letters)))

    def edges(self, inner_only: bool = False):
        """Yield (id, letter, id) triples, one per vertex and letter."""
        n = self.n_vertices
        letters = letters_of_rank(self.oracle.d)
        for i in range(n):
            for s, letter in enumerate(letters):
                t = int(self.nbr[i, s])
                if inner_only and t >= n:
                    continue
                yield self.ids[i], letter, self.id_of(t)

    def summary(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": self.n_vertices * 2 * self.oracle.d,
            "radius": self.radius,
            "truncated": False,
        }


def generate_ball(
    oracle: SubgroupOracle,
    radius: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SchreierBall:
    """BFS the radius-R ball around the root coset, exactly and deterministically.

    Raises BallCapExceeded (carrying the last fully explored radius) if the
    ball plus its outer rim would exceed ``vertex_cap`` vertices.
    """
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    letters = letters_of_rank(oracle.d)
    act = oracle.act
    root = oracle.root

    ids = [root]
    index = {root: 0}
    dist = [0]
    parents = [(-1, 0)]
    outer_index: dict = {}
    outer_ids: list = []
    rows: list[list[int]] = []

    i = 0
    while i < len(ids):  # ids grows during iteration
        here = ids[i]
        dist_here = dist[i]
        expanding = dist_here < radius
        row = []
        for letter in letters:
            t = act(letter, here)
            j = index.get(t)
            if j is None:
                if expanding:
                    j = len(ids)
                    index[t] = j
                    ids.append(t)
                    dist.append(dist_here + 1)
                    parents.append((i, letter))
                    if len(ids) + len(outer_ids) > vertex_cap:
                        raise BallCapExceeded(
                            f"vertex cap {vertex_cap} exceeded at radius "
                            f"{dist_here + 1} (ball of radius {dist_here} complete)",
                            attained_radius=dist_here,
                        )
                else:
                    j = outer_index.get(t)
                    if j is None:
                        j = -(len(outer_ids) + 1)
                        outer_index[t] = j
                        outer_ids.append(t)
                        if len(ids) + len(outer_ids) > vertex_cap:
                            raise BallCapExceeded(
                                f"vertex cap {vertex_cap} exceeded while rimming "
                                f"radius {radius} (ball of radius {radius - 1} complete)",
                                attained_radius=radius - 1,
                            )
            row.append(j)
        rows.append(row)
        i += 1

    n = len(ids)
    nbr = np.array(rows, dtype=np.int32).reshape(n, 2 * oracle.d)
    negative = nbr < 0
    nbr[negative] = n + (-nbr[negative] - 1)
    return SchreierBall(
        oracle,
        radius,
        ids,
        index,
        np.array(dist, dtype=np.int32),
        nbr,
        outer_ids,
        parents,
    )


@dataclass
class ComponentSet:
    """A vertex subset with its interior and outer boundary.

    interior = {x in P : all S-neighbors of x lie in P};
    outer boundary = SP minus P (may contain outer-rim indices).
    ``truncated`` flags subsets that touch the ball's rim, where boundary
    data mixes ball and outer vertices.
    """

    ball: SchreierBall
    subset: np.ndarray
    interior: np.ndarray
    outer_boundary: np.ndarray
    truncated: bool

    def subset_ids(self):
        return [self.ball.ids[i] for i in self.subset]

    def interior_ids(self):
        return [self.ball.ids[i] for i in self.interior]

    def boundary_ids(self):
        return [self.ball.id_of(int(i)) for i in self.outer_boundary]


def interior_boundary(ball: SchreierBall, subset: Iterable) -> ComponentSet:
    """Exact interior and outer boundary of a subset of ball vertices."""
    p_idx = ball.indices_of(subset)
    n = ball.n_vertices
    mask = np.zeros(n + ball.n_outer, dtype=bool)
    mask[p_idx] = True
    rows = ball.nbr[p_idx]
    interior = p_idx[mask[rows].all(axis=1)] if len(p_idx) else p_idx
    targets = np.unique(rows) if len(p_idx) else np.array([], dtype=np.int64)
    boundary = targets[~mask[targets]] if len(targets) else targets
    truncated = bool((ball.dist[p_idx] == ball.radius).any()) if len(p_idx) else False
    return ComponentSet(ball, p_idx, interior, boundary.astype(np.int64), truncated)


def folner_defect(ball: SchreierBall, subset: Iterable) -> float:
    """|FS symmetric-difference F| / |F| for F a set of ball vertices."""
    p_idx = ball.indices_of(subset)
    if len(p_idx) == 0:
        raise ValidationError("Folner defect of the empty set is undefined")
    n = ball.n_vertices
    mask = np.zeros(n + ball.n_outer, dtype=bool)
    mask[p_idx] = True
    fs_mask = np.zeros_like(mask)
    fs_mask[ball.nbr[p_idx].ravel()] = True
    fs_not_f = int((fs_mask & ~mask).sum())
    f_not_fs = int((mask & ~fs_mask).sum())
    return (fs_not_f + f_not_fs) / len(p_idx)


def folner_defect_ids(oracle: SubgroupOracle, cosets: Iterable) -> float:
    """Folner defect of an explicit coset set, straight from the oracle."""
    fset = set(cosets)
    if not fset:
        raise ValidationError("Folner defect of the empty set is undefined")
    image = set()
    for c in fset:
        for letter in oracle.letters:
            image.add(oracle.act(letter, c))
    return (len(image - fset) + len(fset - image)) / len(fset)


def _sweep(ball: SchreierBall, order: Sequence[int]):
    """Best prefix of ``order`` by exact Folner defect; returns (defect, k)."""
    n = ball.n_vertices
    nbr_f = np.zeros(n + ball.n_outer, dtype=np.int64)
    in_f = np.zeros(n + ball.n_outer, dtype=bool)
    rows = ball.nbr
    fs_not_f = 0
    f_no_nbr = 0
    best = (np.inf, 0)
    for k, x in enumerate(order, start=1):
        x = int(x)
        in_f[x] = True
        if nbr_f[x] >= 1:
            fs_not_f -= 1
        else:
            f_no_nbr += 1
        for t in rows[x]:
            nbr_f[t] += 1
            if nbr_f[t] == 1:
                if in_f[t]:
                    f_no_nbr -= 1
                else:
                    fs_not_f += 1
        defect = (fs_not_f + f_no_nbr) / k
        if defect < best[0] - 1e-15:
            best = (defect, k)
    return best


def folner_search(ball: SchreierBall) -> tuple[ComponentSet, float]:
    """Search for a low-defect set: sweep cuts over the top Dirichlet
    eigenvector plus distance-ball prefixes; the reported defect is exact."""
    if ball.n_vertices == 0:
        raise ValidationError("cannot search an empty ball")
    orders: list[np.ndarray] = []
    from .spectral import dirichlet_vector  # local import, no cycle at module load

    if ball.radius >= 1:
        _, vector, rows = dirichlet_vector(ball)
        eig_order = rows[np.argsort(-vector, kind="stable")]
        rest = np.setdiff1d(np.arange(ball.n_vertices), rows, assume_unique=False)
        orders.append(np.concatenate([eig_order, rest]))
    orders.append(np.arange(ball.n_vertices))  # BFS order: prefixes include B(r)

    best_defect, best_order, best_k = np.inf, None, 0
    for order in orders:
        defect, k = _sweep(ball, order)
        if defect < best_defect - 1e-15:
            best_defect, best_order, best_k = defect, order, k
    chosen = [int(v) for v in best_order[:best_k]]
    component = interior_boundary(ball, chosen)
    exact = folner_defect(ball, chosen)
    return component, exact


@dataclass
class DoubleCosetEntry:
    """One component of the product Schreier graph, keyed by a shortest
    representative word moving the root pair into it."""

    representative: Word
    size: int
    truncated: bool
    entry_pair: tuple

    def to_json(self) -> dict:
        return {
            "representative": str(self.representative),
            "size": self.size,
            "truncated": self.truncated,
        }


def enumerate_double_cosets(
    o1: SubgroupOracle,
    o2: SubgroupOracle,
    radius: int,
    component_cap: int = 10_000,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[DoubleCosetEntry]:
    """Double cosets with a representative of length <= radius.

    Components are explored exhaustively up to ``component_cap`` pairs;
    finite components below the cap are summarized exactly, infinite (or
    over-cap) ones are flagged truncated, in which case a later entry could
    duplicate the same component.
    """
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    prod = ProductOracle(o1, o2)
    ball1 = generate_ball(o1, radius, vertex_cap=vertex_cap)
    letters = prod.letters
    seen: set = set()
    entries: list[DoubleCosetEntry] = []
    for idx in range(ball1.n_vertices):
        pair = (ball1.ids[idx], o2.root)
        if pair in seen:
            continue
        component = {pair}
        frontier = [pair]
        truncated = False
        while frontier and not truncated:
            nxt = []
            for c in frontier:
                for letter in letters:
                    t = prod.act(letter, c)
                    if t not in component:
                        if len(component) >= component_cap:
                            truncated = True
                            break
                        component.add(t)
                        nxt.append(t)
                if truncated:
                    break
            frontier = nxt
        seen |= component
        entries.append(
            DoubleCosetEntry(ball1.word_to(idx), len(component), truncated, pair)
        )
    return entries


def count_reduced_returns(
    oracle: SubgroupOracle,
    n: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[int]:
    """Exact counts of reduced words of each length 1..n fixing the root.

    These are the non-backtracking closed path counts at the root, i.e. the
    number of subgroup elements of each reduced length for free families.
    Counts use Python integers, so no overflow.  A path that returns within
    n steps never leaves the radius-floor(n/2) ball, so that window
    suffices and the counts stay exact.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    ball = generate_ball(oracle, n // 2, vertex_cap=vertex_cap)
    width = 2 * oracle.d
    n_ball = ball.n_vertices
    inv = [inverse_slot(s, oracle.d) for s in range(width)]
    # state: (vertex, slot of the letter that led here) -> path count
    cur: dict[tuple[int, int], int] = {}
    for s in range(width):
        t = int(ball.nbr[0, s])
        if t < n_ball:
            cur[(t, s)] = 1
    closed = [sum(c for (v, _), c in cur.items() if v == 0)]
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (v, s), count in cur.items():
            banned = inv[s]
            for s2 in range(width):
                if s2 == banned:
                    continue
                t = int(ball.nbr[v, s2])
                if t < n_ball:
                    key = (t, s2)
                    nxt[key] = nxt.get(key, 0) + count
        cur = nxt
        closed.append(sum(c for (v, _), c in cur.items() if v == 0))
    return closed


def ball_to_dot(ball: SchreierBall, name: str = "ball") -> str:
    """DOT rendering of the ball's inner edges; the root is doubly circled."""
    n = ball.n_vertices
    lines = [f"digraph {name} {{"]
    for i in range(n):
        shape = "doublecircle" if i == 0 else "circle"
        label = ball.oracle.describe(ball.ids[i])
        lines.append(f'  v{i} [shape={shape}, label="{label}"];')
    for i in range(n):
        for s in range(ball.oracle.d):
            t = int(ball.nbr[i, s])
            if t < n:
                label = chr(ord("a") + s)
                lines.append(f'  v{i} -> v{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
