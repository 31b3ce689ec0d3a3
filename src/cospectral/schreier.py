"""Subgroup oracles and finite windows of Schreier coset graphs.

An oracle presents the right action of the generators on right cosets: a
root coset, ``act(letter, coset)``, and optionally a membership test.  Balls
are exact BFS windows; every ball vertex stores all 2d neighbor slots.  The
targets one step beyond the radius form the outer rim, which one BFS stores
after the ball in the same vertex numbering, so that interiors, boundaries
and Folner defects are exact even at the rim.

Every ball is built one BFS layer at a time by numpy over int64 coset codes
and stores only its tables; coset ids are rebuilt by replaying ``act``
along the BFS tree when first read.  Every family in the package can
number its cosets (Stallings, exponent-sum kernels, permutation
stabilizers, wreath percolation, and products and reroots of these) and
gives its own ``CosetCoder``, whose code rows may span several int64
columns, so products never overflow.  Only user oracles without a coder
and over-wide windows (wreath shifts that would leave [-W, W], or one
Stallings or exponent-sum column past int64) are numbered by interning the
ids ``act`` returns.

``generate_balls`` gives many oracles their windows at once: permutation
stabilizers, Stallings oracles, and their products with one shared first
factor stack into one disjoint union, whose coder numbers the members'
cosets apart and has one root row per member.  One layered BFS grows
every window from its own root, and each member's window is cut out of
the shared one, bit for bit the window ``generate_ball`` would give it, so
that small windows do not each pay the per-layer numpy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import BallCapExceeded, ResourceCapError, ValidationError
from .stallings import StallingsAutomaton, _nonbacktracking, build_automaton, inverse_slot, letter_of_slot, slot_of_letter
from .words import WREATH_NAMES, Word, letter_char, letters_of_rank

__all__ = [
    "SubgroupOracle",
    "CosetCoder",
    "StallingsOracle",
    "ProductOracle",
    "SchreierBall",
    "ComponentSet",
    "DoubleCosetEntry",
    "trivial_subgroup_oracle",
    "whole_group_oracle",
    "generate_ball",
    "generate_balls",
    "interior_boundary",
    "product_oracle",
    "reroot",
    "enumerate_double_cosets",
    "folner_search",
    "folner_defect",
    "folner_defect_ids",
    "count_reduced_returns",
    "ball_to_dot",
]

DEFAULT_VERTEX_CAP = 5_000_000
CODE_LIMIT = 2**63  # coset codes must stay below this to fit int64


class CosetCoder(NamedTuple):
    """Integer codes for the cosets within distance radius + 1 of the roots.

    A code is a row of k integers, column j in [0, sizes[j]), each size at
    most ``CODE_LIMIT`` so that every column fits int64.  ``roots`` holds
    one code row per root: one for an oracle's own coder, one per member
    for a stacked union's.  ``step(rows)`` maps an (m, k) int64 array of
    the codes of cosets within distance radius to the (m, 2d, k) array of
    their targets in slot order.  Codes only number the cosets during the
    BFS; ids come from ``act``.  A product's rows are its factors' rows
    side by side, so product codes never overflow, and its roots pair
    every root of one factor with every root of the other.

    ``hanging(rows)``, where a family has it, is the (m,) boolean mask of
    the codes lying in a hanging tree: off the subgroup's core, where no
    closed non-backtracking path goes (Stallings 1983), so a BFS for path
    counts may skip them.  Stallings codes hang when their tail is nonempty
    and a product's when either factor's does; the other families have none.
    """

    roots: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    step: Callable[[np.ndarray], np.ndarray]
    hanging: Callable[[np.ndarray], np.ndarray] | None = None


class SubgroupOracle:
    """Behavioral interface for the right action on cosets of a subgroup.

    Subclasses set ``family`` (a tag identifying the ambient group, e.g.
    ("free", d) or ("wreath",)), ``d`` (positive generator count) and
    ``root`` (the coset of the subgroup itself), and implement ``act``.
    Coset ids are opaque hashables; ``act`` must respect inverses.  A
    subclass that can number its cosets by rows of integers may implement
    ``coder``, which lets ``generate_ball`` step whole BFS layers by numpy;
    every family in the package does, wreath percolation included.  Without
    one (user oracles) or when it returns None (over-wide windows),
    ``generate_ball`` numbers the cosets as ``act`` first returns them, one
    Python call per (vertex, slot).  Codes never come back as ids: a ball
    rebuilds the ids it is asked for by replaying ``act`` from the root.
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

    def coder(self, root, radius: int) -> CosetCoder | None:
        """Codes for the cosets within distance radius + 1 of ``root``, or
        None when the family has none or a column would not fit int64."""
        return None

    @staticmethod
    def stacked_coder(members, radius: int) -> CosetCoder | None:
        """One coder for the disjoint union of ``members``, oracles of this
        class and rank, numbering each member's cosets apart from the
        others', with one root row per member's root; None when the family
        does not stack or a column would not fit int64."""
        return None


class StallingsOracle(SubgroupOracle):
    """Coset action of a f.g. subgroup of F_d read off its core automaton.

    A coset is canonically (automaton state, reduced hanging tail): trace as
    far as the automaton allows, the rest of the word hangs off as a path
    into the complement trees.  Ids are packed as bytes (4-byte state plus
    one byte per tail slot) for compact hashing.  Codes are
    ``T * n_states + state`` with the tail T read in bijective base 2d, so
    appending slot s gives T * 2d + s + 1 and popping gives (T - 1) // 2d.
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
        tail = "".join(letter_char(letter_of_slot(b, self.d)) for b in coset[4:])
        return f"q{state}" + (f".{tail}" if tail else "")

    def coder(self, root: bytes, radius: int) -> CosetCoder | None:
        return _stallings_coder([self.automaton], [root], radius)

    @staticmethod
    def stacked_coder(members, radius: int) -> CosetCoder | None:
        return _stallings_coder([m.automaton for m in members], [m.root for m in members], radius)


def _stallings_coder(automata, roots, radius: int) -> CosetCoder | None:
    """Codes for the automata's disjoint union, states numbered with
    offsets in the given order, with one root row per (automaton, root)."""
    d = automata[0].d
    width = 2 * d
    offsets = list(accumulate((a.n_states for a in automata), initial=0))
    n = offsets[-1]
    longest = max(len(root) for root in roots) - 4 + radius + 1
    size = (width * (width**longest - 1) // (width - 1) + 1) * n
    if size > CODE_LIMIT:
        return None
    table = np.array(
        [[-1 if t is None else t + offset for t in row]
         for a, offset in zip(automata, offsets) for row in a.table],
        dtype=np.int64,
    )
    grow = (np.arange(width) + 1) * n
    inverse = (np.arange(width) + d) % width

    def step(rows: np.ndarray) -> np.ndarray:
        codes = rows[:, 0]
        tails, states = np.divmod(codes, n)
        out = ((codes - states) * width + states)[:, None] + grow  # tail + slot
        core = np.flatnonzero(tails == 0)
        traced = table[states[core]]
        out[core] = np.where(traced >= 0, traced, out[core])
        hanging = np.flatnonzero(tails)
        popped, last = np.divmod(tails[hanging] - 1, width)
        out[hanging, inverse[last]] = popped * n + states[hanging]
        return out[:, :, None]

    codes = []
    for root, offset in zip(roots, offsets):
        tail = 0
        for slot in root[4:]:
            tail = tail * width + slot + 1
        codes.append((tail * n + offset + int.from_bytes(root[:4], "little"),))
    return CosetCoder(tuple(codes), (size,), step, lambda rows: rows[:, 0] >= n)


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

    def coder(self, root, radius: int) -> CosetCoder | None:
        """The two factors' code rows side by side."""
        c1 = self.o1.coder(root[0], radius)
        c2 = self.o2.coder(root[1], radius)
        if c1 is None or c2 is None:
            return None
        k1 = len(c1.sizes)
        h1, h2 = c1.hanging, c2.hanging

        def step(rows: np.ndarray) -> np.ndarray:
            return np.concatenate([c1.step(rows[:, :k1]), c2.step(rows[:, k1:])], axis=2)

        def hanging(rows: np.ndarray) -> np.ndarray:
            return (h1 is not None and h1(rows[:, :k1])) | (h2 is not None and h2(rows[:, k1:]))

        return CosetCoder(
            tuple(r1 + r2 for r1 in c1.roots for r2 in c2.roots), c1.sizes + c2.sizes, step,
            None if h1 is None and h2 is None else hanging,
        )


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

    def coder(self, root, radius: int) -> CosetCoder | None:
        return self._base.coder(root, radius)


def reroot(oracle: SubgroupOracle, new_root) -> RerootedOracle:
    return RerootedOracle(oracle, new_root)


class SchreierBall:
    """Exact radius-R window of a Schreier graph.

    ``nbr[i]`` holds the 2d neighbor slots of ball vertex i in letter order.
    One BFS numbers every vertex it stores: the ball vertices 0..n-1 first
    (sorted by distance, index 0 is the root), then the rim, the vertices
    one step beyond the radius, in discovery order.  Rim indices appear
    only as ``nbr`` targets; their own neighbors are unknown.  ``dist_full``
    holds the distances of all of them (``dist`` is its ball prefix).

    The ball stores no coset ids.  Every stored vertex but the root has a
    BFS parent: its least-indexed neighbor one step closer, reached along
    that parent's first slot into it, i.e. its first occurrence in
    ``nbr.ravel()``.  ``_tree`` finds all of them with one
    ``np.minimum.at`` on first use (about 25 ms on F_2's B(12), under 5% of
    its 0.6 s BFS).  ``ids``, ``outer_ids`` and ``index`` (every
    stored id, rim included, to its index) replay ``act`` from the root
    along the tree on first access, one call per stored vertex; until
    then ``ids_of`` replays only the union of the tree paths of the
    vertices asked for (``id_of``: one path, ``dist`` calls), since the
    spectral and path-count code reads only the tables and a Folner set is
    a small share of the ball.

    A window grown from several roots (a stacked union's, see
    ``generate_balls``) holds the roots at indices 0..m-1 and also has
    ``labels``, the root each stored vertex was reached from; it is only
    split into the members' windows, and its ids are never read.
    """

    def __init__(self, oracle, radius, dist_full, nbr):
        self.oracle = oracle
        self.radius = radius
        self.dist_full = np.asarray(dist_full, dtype=np.int32)
        self.dist = self.dist_full[: len(nbr)]
        self.nbr = nbr

    @cached_property
    def _tree(self) -> np.ndarray:
        """parent * 2d + slot for each stored vertex: its first occurrence
        in ``nbr.ravel()`` (meaningless for the root)."""
        flat = self.nbr.ravel()
        dtype = np.int32 if len(flat) < 2**31 else np.int64
        # one entry past the stored vertices: a pruned ball's hanging slots
        first = np.full(len(self.dist_full) + 1, len(flat), dtype=dtype)
        np.minimum.at(first, flat, np.arange(len(flat), dtype=dtype))
        return first[:-1]

    @cached_property
    def _all_ids(self) -> list:
        parent, slot = np.divmod(self._tree[1:], self.nbr.shape[1])
        act, letters = self.oracle.act, self.oracle.letters
        ids = [self.oracle.root]
        for p, s in zip(parent.tolist(), slot.tolist()):
            ids.append(act(letters[s], ids[p]))  # a parent precedes its children
        return ids

    @cached_property
    def ids(self) -> list:
        return self._all_ids[: self.n_vertices]

    @cached_property
    def outer_ids(self) -> list:
        return self._all_ids[self.n_vertices :]

    @cached_property
    def index(self) -> dict:
        return {c: i for i, c in enumerate(self._all_ids)}

    @property
    def n_vertices(self) -> int:
        return len(self.nbr)

    @property
    def n_outer(self) -> int:
        return len(self.dist_full) - len(self.nbr)

    def _path(self, index: int) -> list[int]:
        """The letters of the BFS tree path from the root to a stored vertex."""
        tree, width, letters = self._tree, self.nbr.shape[1], self.oracle.letters
        path = []
        while index != 0:
            index, slot = divmod(int(tree[index]), width)
            path.append(letters[slot])
        path.reverse()
        return path

    def id_of(self, index: int):
        """The coset id of one stored vertex, ball or rim."""
        return self.ids_of([index])[0]

    def ids_of(self, indices: Iterable[int]) -> list:
        """The coset ids of stored vertices, ball or rim, in the given order.

        Until every id is replayed, this replays the union of the vertices'
        tree paths once: each path is walked up to a vertex already known,
        and ``act`` runs only below it, so a set costs at most one call per
        distinct vertex on its paths, never more than the stored count.
        """
        if "_all_ids" in vars(self):
            return [self._all_ids[i] for i in indices]
        tree, width = self._tree, self.nbr.shape[1]
        act, letters = self.oracle.act, self.oracle.letters
        known = {0: self.oracle.root}
        out = []
        for index in indices:
            path = []
            while index not in known:
                parent, slot = divmod(int(tree[index]), width)
                path.append((index, slot))
                index = parent
            coset = known[index]
            for vertex, slot in reversed(path):
                coset = known[vertex] = act(letters[slot], coset)
            out.append(coset)
        return out

    def indices_of(self, vertices: Iterable) -> np.ndarray:
        """Sorted ball indices of a vertex set given as ball indices: Python
        or numpy integers in [0, n).  Map coset ids through ``index``."""
        n = self.n_vertices
        out = set()
        for v in vertices:
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise ValidationError(f"{v!r} is not a ball index in [0, {n})")
            out.add(int(v))
        return np.array(sorted(out), dtype=np.int64)

    def word_to(self, index: int) -> Word:
        """A shortest word moving the root to the given ball vertex: the BFS
        tree path."""
        return Word(tuple(self._path(int(self.indices_of([index])[0]))))

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
    *,
    prune_hanging: bool = False,
) -> SchreierBall:
    """BFS the radius-R ball around the root coset, exactly and deterministically.

    Rim vertices are stored after the ball in the same BFS order and never
    expanded.  Raises BallCapExceeded if the ball plus its rim would exceed
    ``vertex_cap`` vertices; its ``attained_radius`` is the largest radius
    whose ball and rim fit.

    With ``prune_hanging``, and a coder that has a ``hanging`` mask, the
    BFS never numbers a hanging target: its slot reads ``n_vertices +
    n_outer``, one past every stored vertex, so the window is the core
    part of the ball, for path counts only.  A core vertex keeps its
    distance, since a path into a hanging tree leaves it by backtracking.
    Raises ValidationError if the root hangs.

    The BFS runs one layer at a time over the code rows of the oracle's
    ``coder``, each packed into as few int64 columns as the column sizes
    allow (``_packer``); only user oracles and over-wide windows, whose
    ``coder`` gives None, go through ``_interning_coder``.
    A neighbor of layer k lies in layers k-1..k+1, so one ``_first_seen``
    (``np.unique``) over the keys of layers k-1 and k followed by layer k's
    targets finds every target: keys first seen among the known ones keep
    their index, the rest form layer k+1, numbered by first occurrence in
    (vertex, slot) order, and their rows are the target rows at those first
    occurrences.  Only the keys of two layers are kept, and the ball stores
    none: ids replay ``act`` when read.

    A coder with several root rows (a stacked union's) starts the BFS from
    all of them as layer 0, and every stored vertex is labelled with the
    root it was reached from, its BFS parent's label.  Since a member's
    vertices keep their relative order in every layer, cutting its
    labelled vertices out gives exactly its own window (``_split``).  A
    target whose label differs from its source's means that two roots
    share a component, and raises ValidationError.  The cap counts every
    stored vertex of the union.
    """
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    coder = oracle.coder(oracle.root, radius) or _interning_coder(oracle, vertex_cap)
    layer = np.array(coder.roots, dtype=np.int64)  # the code rows of layer k
    hanging = coder.hanging if prune_hanging else None
    if hanging is not None and hanging(layer).any():
        raise ValidationError("the root coset hangs off the core: no closed path to prune for")
    width = 2 * oracle.d
    pack = _packer(coder.sizes)
    # one-column codes (trees, Stallings windows) come in long sorted runs,
    # where a stable sort (timsort) is fastest; on packed keys a quicksort
    # is about twice as fast
    stable = len(coder.sizes) == 1
    known = pack(layer)  # the keys of layers k-1 and k
    counts, rows = [len(layer)], []  # the vertex count of each layer; the nbr blocks
    low, start = 0, len(layer)  # layers k-1 and k hold the indices [low, start)
    # several roots: the label blocks of the layers so far
    labels = [np.arange(len(layer))] if len(layer) > 1 else None
    for k in range(radius + 1):
        targets = coder.step(layer).reshape(-1, len(coder.sizes))
        if hanging is not None:
            live = np.flatnonzero(~hanging(targets))
            targets = targets[live]
        unique, first, inverse = _first_seen(np.concatenate([known, pack(targets)]), stable)
        fresh = np.flatnonzero(first >= len(known))
        fresh = fresh[np.argsort(first[fresh])]  # first-occurrence order
        if labels is not None:
            source = np.repeat(labels[-1], width)
            if hanging is not None:
                source = source[live]
            # the label of the vertex each target is (known, or first reached)
            reached = np.concatenate(labels[-2:] + [source])[first[inverse[len(known) :]]]
            if (reached != source).any():
                raise ValidationError("two roots lie in one component: their windows overlap")
            labels.append(source[first[fresh] - len(known)])
        if len(fresh) and start + len(fresh) > vertex_cap:
            raise BallCapExceeded(
                f"vertex cap {vertex_cap} exceeded at distance {k + 1} "
                f"(attained radius {k - 1})",
                attained_radius=k - 1,
            )
        index = low + first  # a known key's index; fresh ones overwritten
        index[fresh] = np.arange(start, start + len(fresh))
        block = index[inverse[len(known) :]]
        if hanging is not None:  # -1 marks a hanging slot until the count is known
            block, kept = np.full(len(layer) * width, -1, dtype=block.dtype), block
            block[live] = kept
        rows.append(block.astype(np.int32).reshape(-1, width))
        counts.append(len(fresh))
        if k == radius or not len(fresh):  # the rim is never expanded
            break
        low, start = start - len(layer), start + len(fresh)
        known, layer = (  # layer k+1's keys and its rows at their first occurrences
            np.concatenate([known[len(known) - len(layer) :], unique[fresh]]),
            targets.take(first[fresh] - len(known), axis=0),
        )

    dist = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    nbr = np.concatenate(rows)
    if hanging is not None:
        nbr[nbr < 0] = len(dist)
    ball = SchreierBall(oracle, radius, dist, nbr)
    if labels is not None:
        ball.labels = np.concatenate(labels)
    return ball


def generate_balls(
    oracles: list[SubgroupOracle],
    radius: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    *,
    prune_hanging: bool = False,
) -> list:
    """``generate_ball(oracle, radius, vertex_cap, prune_hanging=...)`` for
    every oracle, or the ResourceCapError it raises, grown in one BFS where
    the oracles stack.

    They stack when they are permutation stabilizers or Stallings oracles
    of one class and rank, or products of one shared first factor with such
    oracles: ``_union`` numbers their cosets apart, one ``generate_ball``
    grows every member's window at once under ``vertex_cap``, and
    ``_split`` cuts each member's window out, bit for bit its own.  If that
    BFS overflows, each half of the oracles is tried again, so an oracle
    fails exactly when its own window overflows, with its own message.
    Other oracles get their windows one at a time.
    """
    # more roots than the cap cannot share one BFS
    union = _union(oracles, radius) if 1 < len(oracles) <= vertex_cap else None
    if union is None:
        return [_ball_or_error(o, radius, vertex_cap, prune_hanging) for o in oracles]
    try:
        ball = generate_ball(union, radius, vertex_cap, prune_hanging=prune_hanging)
    except BallCapExceeded:
        half = len(oracles) // 2
        return [
            *generate_balls(oracles[:half], radius, vertex_cap, prune_hanging=prune_hanging),
            *generate_balls(oracles[half:], radius, vertex_cap, prune_hanging=prune_hanging),
        ]
    return _split(ball, oracles)


def _ball_or_error(oracle, radius, vertex_cap, prune_hanging):
    try:
        return generate_ball(oracle, radius, vertex_cap, prune_hanging=prune_hanging)
    except ResourceCapError as exc:
        return exc


class _Union(SubgroupOracle):
    """The disjoint union of stacking members, for the shared BFS only: its
    coder is the members' ``stacked_coder``, and it has no ``act``."""

    def __init__(self, members, coder: CosetCoder):
        self.family, self.d = members[0].family, members[0].d
        self.root = None
        self._coder = coder

    def coder(self, root, radius: int) -> CosetCoder:
        return self._coder


def _union(oracles, radius: int) -> SubgroupOracle | None:
    """One oracle whose coder stacks the oracles' windows, with one root
    row per oracle in order, or None when they do not stack."""
    first = oracles[0]
    if all(type(o) is ProductOracle and o.o1 is first.o1 for o in oracles):
        inner = _union([o.o2 for o in oracles], radius)
        # the product has a coder only if its first factor has one too
        if inner is None or first.o1.coder(first.o1.root, radius) is None:
            return None
        return ProductOracle(first.o1, inner)
    kind = type(first)
    if any(type(o) is not kind or o.family != first.family for o in oracles):
        return None
    coder = kind.stacked_coder(oracles, radius)
    return None if coder is None else _Union(oracles, coder)


def _split(ball: SchreierBall, oracles) -> list[SchreierBall]:
    """The members' windows in a window grown from one root per oracle:
    member j's stored vertices are the ones labelled j, in the same order,
    renumbered from 0, with the union's pruned-slot sentinel mapped to the
    member's own."""
    total = len(ball.dist_full)
    order = np.argsort(ball.labels, kind="stable")
    bounds = np.searchsorted(ball.labels[order], np.arange(len(oracles) + 1)).tolist()
    rank = np.empty(total + 1, dtype=ball.nbr.dtype)  # union index -> member index
    rank[order] = np.arange(total) - np.repeat(bounds[:-1], np.diff(bounds))
    balls = []
    for j, oracle in enumerate(oracles):
        stored = order[bounds[j] : bounds[j + 1]]
        rank[total] = len(stored)
        inner = stored[: np.searchsorted(stored, ball.n_vertices)]
        balls.append(SchreierBall(oracle, ball.radius, ball.dist_full[stored], rank[ball.nbr[inner]]))
    return balls


def _first_seen(values: np.ndarray, stable: bool):
    """``np.unique(values, return_index=True, return_inverse=True)`` for a
    1-D array.  Without a stable sort, the first occurrence of a value is
    the least position in its run of the sorted order."""
    order = np.argsort(values, kind="stable" if stable else None)
    ordered = values[order]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    heads = np.flatnonzero(starts)
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = order[heads] if stable else np.minimum.reduceat(order, heads)
    return ordered[heads], first, inverse


def _packer(sizes: tuple[int, ...]):
    """``pack``: (m, k) code rows to one key per row.

    Runs of adjacent columns merge in mixed radix while the product of
    their sizes stays below ``CODE_LIMIT``.  One run gives an int64 key,
    the column itself when k = 1; more give the runs' int64 values viewed
    as one void key.
    """
    if len(sizes) == 1:
        return lambda rows: rows[:, 0]
    runs, product = [[]], 1
    for j, size in enumerate(sizes):
        if runs[-1] and product * size >= CODE_LIMIT:
            runs.append([])
            product = 1
        runs[-1].append(j)
        product *= size
    places = np.zeros((len(sizes), len(runs)), dtype=np.int64)  # rows @ places: run values
    for r, run in enumerate(runs):
        place = 1
        for j in reversed(run):
            places[j, r] = place
            place *= sizes[j]
    if len(runs) == 1:
        return lambda rows: rows @ places[:, 0]
    void = np.dtype((np.void, 8 * len(runs)))
    return lambda rows: (rows @ places).view(void).ravel()


def _interning_coder(oracle: SubgroupOracle, vertex_cap: int) -> CosetCoder:
    """Codes for an oracle without its own: ``step`` calls ``act`` for each
    (vertex, slot) in order and numbers each coset when it first appears,
    the root as 0, so the codes are the BFS indices.  Once a layer has
    numbered new cosets past ``vertex_cap``, ``step`` returns the rows made
    so far: ``generate_ball`` raises on that layer, and the rest of it
    would only cost ``act`` calls and memory."""
    ids = [oracle.root]
    index = {oracle.root: 0}
    act, letters = oracle.act, oracle.letters

    def step(rows: np.ndarray) -> np.ndarray:
        out = []
        for c in rows[:, 0].tolist():
            here = ids[c]
            out += [index.setdefault(act(letter, here), len(index)) for letter in letters]
            if len(index) > vertex_cap >= len(ids):  # len(ids): cosets before this layer
                break
        ids.extend(islice(index, len(ids), None))  # the new ids, in code order
        return np.array(out, dtype=np.int64).reshape(-1, len(letters), 1)

    return CosetCoder(((0,),), (CODE_LIMIT,), step)


@dataclass
class ComponentSet:
    """A vertex subset with its interior and outer boundary.

    interior = {x in P : all S-neighbors of x lie in P};
    outer boundary = SP minus P (may contain outer-rim indices).
    ``truncated`` flags subsets with a neighbor on the ball's rim, where
    boundary data mixes ball and outer vertices.
    """

    ball: SchreierBall
    subset: np.ndarray
    interior: np.ndarray
    outer_boundary: np.ndarray
    truncated: bool

    def subset_ids(self):
        return self.ball.ids_of(self.subset.tolist())


def interior_boundary(ball: SchreierBall, subset: Iterable) -> ComponentSet:
    """Exact interior and outer boundary of a set of ball indices (map ids
    through ``ball.index``); the boundary may hold rim indices."""
    p_idx = ball.indices_of(subset)
    n = ball.n_vertices
    mask = np.zeros(n + ball.n_outer, dtype=bool)
    mask[p_idx] = True
    rows = ball.nbr[p_idx]
    interior = p_idx[mask[rows].all(axis=1)] if len(p_idx) else p_idx
    targets = np.unique(rows) if len(p_idx) else np.array([], dtype=np.int64)
    boundary = targets[~mask[targets]] if len(targets) else targets
    truncated = bool((rows >= n).any())
    return ComponentSet(ball, p_idx, interior, boundary.astype(np.int64), truncated)


def _prefix_counts(ball: SchreierBall, order: np.ndarray) -> np.ndarray:
    """|F_k S symmetric-difference F_k| for every prefix F_k = order[:k].

    A vertex t of the ball or its rim joins F at step ``enter[t]`` and FS
    at step ``reach[t]``, the first prefix whose rows hold it (m + 1 if
    never).  It lies in exactly one of them at the steps k with
    min <= k < max of the two, so the counts are one cumulative sum.
    Entry k - 1 of the result is the count of F_k, for k = 1..m.
    """
    m = len(order)
    size = ball.n_vertices + ball.n_outer
    enter = np.full(size, m + 1, dtype=np.int64)
    enter[order] = np.arange(1, m + 1)
    targets, first = np.unique(ball.nbr[order].ravel(), return_index=True)
    reach = np.full(size, m + 1, dtype=np.int64)
    reach[targets] = first // ball.nbr.shape[1] + 1
    starts = np.bincount(np.minimum(enter, reach), minlength=m + 2)
    stops = np.bincount(np.maximum(enter, reach), minlength=m + 2)
    return np.cumsum(starts - stops)[1 : m + 1]


def folner_defect(ball: SchreierBall, subset: Iterable) -> float:
    """|FS symmetric-difference F| / |F| for F a set of ball indices (map
    ids through ``ball.index``); FS may reach the rim."""
    p_idx = ball.indices_of(subset)
    if len(p_idx) == 0:
        raise ValidationError("Folner defect of the empty set is undefined")
    return int(_prefix_counts(ball, p_idx)[-1]) / len(p_idx)


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


def folner_search(ball: SchreierBall) -> tuple[ComponentSet, float]:
    """Search for a low-defect set of ball indices: the best prefix of the
    top Dirichlet eigenvector's sweep order or of the BFS order (whose
    prefixes include every B(r)).  The reported defect is exact; the
    component's ids map back through ``ball.ids``."""
    if ball.n_vertices == 0:
        raise ValidationError("cannot search an empty ball")
    orders: list[np.ndarray] = []
    from .spectral import dirichlet_vector  # local import, no cycle at module load

    if ball.radius >= 1:
        _, vector, rows = dirichlet_vector(ball)
        eig_order = rows[np.argsort(-vector, kind="stable")]
        rest = np.setdiff1d(np.arange(ball.n_vertices), rows, assume_unique=False)
        orders.append(np.concatenate([eig_order, rest]))
    orders.append(np.arange(ball.n_vertices))

    best_defect, best_subset = np.inf, None
    for order in orders:
        # distinct defects c/k with k <= n < 3e7 differ by over 1e-15, so
        # the first argmin is the first prefix beating all earlier ones
        defects = _prefix_counts(ball, order) / np.arange(1, len(order) + 1)
        k = int(np.argmin(defects))
        if defects[k] < best_defect - 1e-15:
            best_defect, best_subset = float(defects[k]), order[: k + 1]
    return interior_boundary(ball, best_subset), best_defect


@dataclass
class DoubleCosetEntry:
    """One component of the product Schreier graph, keyed by a shortest
    representative word moving the root pair into it."""

    representative: Word
    size: int
    truncated: bool
    entry_pair: tuple


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


def _return_radius(n: int) -> int:
    """The radius of the window that holds every closed path of n steps."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return n // 2


def _reduced_return_paths(ball: SchreierBall, n: int):
    """Slot table of a window and an iterator over the edge vectors
    x_1..x_n of its non-backtracking closed-path counts.

    The window is the radius-``_return_radius(n)`` ball pruned of hanging
    cosets (``generate_ball``'s ``prune_hanging``): a closed
    non-backtracking path never enters a hanging tree, which it could leave
    only by backtracking, so on Stallings factors the window is the core
    part of the ball.  ``table`` is ``ball.nbr`` with rim
    and hanging targets mapped to the sentinel ``n_vertices``, row-major
    like ``nbr``.  The edge vectors are
    slot-major, of shape ``(2d, n_vertices)`` as ``_nonbacktracking``
    takes them: x_k[s, u] counts the non-backtracking paths of k steps
    that leave ball vertex u along slot s and end at the root, so the
    root's edges are ``x_k[:, 0]``.  x_1 is the indicator of edges ending
    at the root and x_{k+1} = B x_k.  A path that returns within n steps
    never leaves the ball, so every count is exact.  Entries never exceed
    2d(2d-1)^(n-1): below 2**63 they run in int64, above it in Python
    integers, so there is no overflow and the order of the sums cannot
    change a count.
    """
    d = ball.oracle.d
    width = 2 * d
    dtype = np.int64 if width * (width - 1) ** (n - 1) < 2**63 else object
    table = np.minimum(ball.nbr, ball.n_vertices)

    def vectors():
        step = _nonbacktracking(table, d, dtype)
        x = np.zeros(table.T.shape, dtype=dtype)
        x[table.T == 0] = 1
        yield x
        for _ in range(n - 1):
            x = step(x)
            yield x

    return table, vectors()


def count_reduced_returns(
    oracle: SubgroupOracle,
    n: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[int]:
    """Exact counts of reduced words of each length 1..n fixing the root.

    These are the non-backtracking closed path counts at the root, i.e. the
    number of subgroup elements of each reduced length for free families:
    the k-th count sums the root's edges ``x_k[:, 0]`` from
    ``_reduced_return_paths``, on its window pruned of hanging cosets, so
    ``vertex_cap`` bounds the pruned window.  Raises ValidationError if the
    root hangs (a Stallings oracle rerooted off its core).
    """
    ball = generate_ball(oracle, _return_radius(n), vertex_cap, prune_hanging=True)
    return _return_counts(ball, n)


def _return_counts(ball: SchreierBall, n: int) -> list[int]:
    """``count_reduced_returns`` on its pruned window."""
    _, vectors = _reduced_return_paths(ball, n)
    return [int(x[:, 0].sum()) for x in vectors]


def ball_to_dot(ball: SchreierBall, name: str = "ball") -> str:
    """DOT rendering of the ball's inner edges, labelled by the family's
    positive letters (s, a, b for the wreath product); the root is doubly
    circled."""
    n = ball.n_vertices
    lines = [f"digraph {name} {{"]
    for i in range(n):
        shape = "doublecircle" if i == 0 else "circle"
        label = ball.oracle.describe(ball.ids[i])
        lines.append(f'  v{i} [shape={shape}, label="{label}"];')
    wreath = ball.oracle.family == ("wreath",)
    for i in range(n):
        for s in range(ball.oracle.d):
            t = int(ball.nbr[i, s])
            if t < n:
                label = WREATH_NAMES[s] if wreath else letter_char(s + 1)
                lines.append(f'  v{i} -> v{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
