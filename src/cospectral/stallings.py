"""Stallings core automata for finitely generated subgroups of free groups.

An automaton is a based, connected, folded graph whose edges carry positive
generator labels and are traversable both ways.  Construction folds a bouquet
of reduced words, which is already a core; the folded automaton decides
membership by deterministic tracing, intersections come from the based
product (trimmed to its core), and the cogrowth rate is the Perron value of
the non-backtracking operator on directed edges.  That operator has one
slot-major kernel at every width, shared with the exact path counts of
``schreier``; the power iteration's tolerance and cap are module constants.

States are relabeled canonically (BFS from the base, letters in a fixed
order) on construction, so two automata accept the same subgroup with the
same labeled shape iff their transition tables are equal.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError, _read_text
from .words import Word, letter_char, parse_word

__all__ = [
    "EdgeListGraph",
    "StallingsAutomaton",
    "CogrowthResult",
    "build_automaton",
    "fold",
    "membership",
    "intersect_automata",
    "subgroup_index",
    "cogrowth_rate",
    "automaton_to_dot",
    "parse_generator_list",
    "read_generator_file",
]


def slot_of_letter(letter: int, d: int) -> int:
    """Map a signed letter to its slot in [0, 2d): positives first."""
    if letter > 0:
        return letter - 1
    return d - letter - 1


def letter_of_slot(slot: int, d: int) -> int:
    return slot + 1 if slot < d else -(slot - d + 1)


def inverse_slot(slot: int, d: int) -> int:
    return (slot + d) % (2 * d)


@dataclass
class EdgeListGraph:
    """An unfolded based labeled graph: raw input for folding.

    Edges are (state, positive generator index in [0, d), state) and stand
    for one undirected labeled edge each.
    """

    d: int
    n_states: int
    base: int
    edges: list[tuple[int, int, int]]

    def validate(self):
        if self.d < 1:
            raise ValidationError(f"rank must be >= 1, got {self.d}")
        if not (0 <= self.base < self.n_states):
            raise ValidationError("base state out of range")
        for u, g, v in self.edges:
            if not (0 <= u < self.n_states and 0 <= v < self.n_states):
                raise ValidationError(f"edge ({u},{g},{v}) has a state out of range")
            if not (0 <= g < self.d):
                raise ValidationError(f"edge label {g} out of range for rank {self.d}")


class StallingsAutomaton:
    """Folded based automaton; states are canonically numbered from the base.

    ``table[u][slot]`` is the state reached from ``u`` along the letter of
    ``slot`` (positives then negatives), or None.  Reciprocity holds:
    table[u][s] == v iff table[v][inverse_slot(s)] == u.
    """

    def __init__(self, d: int, table: Sequence[Sequence[int | None]], base: int = 0):
        if d < 1:
            raise ValidationError(f"rank must be >= 1, got {d}")
        self.d = d
        self._check_folded_shape(table, base, 2 * d)
        self.table = self._canonicalize(d, table, base)
        self.base = 0
        # letter -> the target of every state along it, for ``trace``
        self._targets = {letter_of_slot(s, d): col for s, col in enumerate(zip(*self.table))}

    @staticmethod
    def _check_folded_shape(table, base, width):
        n = len(table)
        if not (0 <= base < n):
            raise ValidationError("base state out of range")
        for row in table:
            if len(row) != width:
                raise ValidationError(f"a table row has {len(row)} slots, not {width}")
            for t in row:
                if t is not None and not (0 <= t < n):
                    raise ValidationError("transition target out of range")

    @staticmethod
    def _canonicalize(d, table, base):
        n = len(table)
        width = 2 * d
        order = [base]
        seen = {base: 0}
        for u in order:
            for s in range(width):
                t = table[u][s]
                if t is not None and t not in seen:
                    seen[t] = len(order)
                    order.append(t)
        if len(order) != n:
            raise ValidationError("automaton is not connected")
        new = [[None] * width for _ in range(n)]
        for u in order:
            nu = seen[u]
            for s in range(width):
                t = table[u][s]
                if t is not None:
                    new[nu][s] = seen[t]
        # reciprocity check doubles as a foldedness check
        for u in range(n):
            for s in range(width):
                t = new[u][s]
                if t is not None and new[t][inverse_slot(s, d)] != u:
                    raise ValidationError("transition table is not reciprocal/folded")
        return tuple(tuple(row) for row in new)

    @property
    def n_states(self) -> int:
        return len(self.table)

    def trace(self, word: Word) -> int | None:
        """Follow a word from the base; None once a transition is missing.

        A letter past the rank raises ValidationError when the trace reaches
        it."""
        targets = self._targets
        state = self.base
        try:
            for letter in word.letters:
                state = targets[letter][state]
                if state is None:
                    return None
        except KeyError:
            raise ValidationError(f"letter {letter} exceeds rank {self.d}") from None
        return state

    def is_complete(self) -> bool:
        return all(t is not None for row in self.table for t in row)

    def core(self) -> "StallingsAutomaton":
        """Trim hanging trees: drop non-base states of degree < 2, repeatedly."""
        table = [list(row) for row in self.table]
        alive = [True] * self.n_states
        width = 2 * self.d

        def deg(u):
            return sum(1 for t in table[u] if t is not None)

        queue = [u for u in range(self.n_states) if u != self.base and deg(u) < 2]
        while queue:
            u = queue.pop()
            if not alive[u] or u == self.base:
                continue
            alive[u] = False
            for s in range(width):
                t = table[u][s]
                if t is not None:
                    table[u][s] = None
                    table[t][inverse_slot(s, self.d)] = None
                    if t != self.base and alive[t] and deg(t) < 2:
                        queue.append(t)
        keep = [u for u in range(self.n_states) if alive[u]]
        remap = {u: i for i, u in enumerate(keep)}
        new = [
            [remap[t] if t is not None else None for t in table[u]]
            for u in keep
        ]
        return StallingsAutomaton(self.d, new, remap[self.base])

    def canonical_key(self) -> tuple:
        return (self.d, self.table)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StallingsAutomaton)
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"StallingsAutomaton(d={self.d}, states={self.n_states})"


def fold(graph: EdgeListGraph) -> StallingsAutomaton:
    """Fold a based labeled graph; the accepted subgroup is preserved.

    The result does not depend on the edge order (up to the canonical
    relabeling applied on construction).  Folding the edge list of an
    already folded automaton returns an equal automaton.
    """
    graph.validate()
    d = graph.d
    n = graph.n_states
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    trans: list[dict[int, int]] = [dict() for _ in range(n)]
    pending: list[tuple[int, int, int]] = []
    for u, g, v in graph.edges:
        pending.append((u, g, v))
        pending.append((v, g + d, u))
    pending.reverse()

    while pending:
        u, s, v = pending.pop()
        u, v = find(u), find(v)
        cur = trans[u].get(s)
        if cur is None:
            trans[u][s] = v
            continue
        cur = find(cur)
        trans[u][s] = cur
        if cur == v:
            continue
        # same slot, two targets: merge them (small dict replays into large)
        keep, lose = (cur, v) if len(trans[cur]) >= len(trans[v]) else (v, cur)
        parent[lose] = keep
        moved = trans[lose]
        trans[lose] = {}
        for ls, lt in moved.items():
            pending.append((keep, ls, lt))

    roots = sorted({find(u) for u in range(n)})
    remap = {r: i for i, r in enumerate(roots)}
    width = 2 * d
    table: list[list[int | None]] = [[None] * width for _ in roots]
    for r in roots:
        for s, t in trans[r].items():
            table[remap[r]][s] = remap[find(t)]
    return StallingsAutomaton(d, table, remap[find(graph.base)])


def parse_generator_list(spec: Union[str, Iterable[Union[str, Word]]]) -> list[Word]:
    """Accept "aa,b,abA" or an iterable of words/strings."""
    if isinstance(spec, str):
        items: Iterable = [p for p in spec.split(",") if p.strip()]
    else:
        items = spec
    out = []
    for item in items:
        out.append(parse_word(item) if isinstance(item, str) else item)
    return out


def read_generator_file(path: str) -> list[Word]:
    """Subgroup text format: one generator word per line, '#' comments."""
    lines = [raw.strip() for raw in _read_text(path, "generator file").split("\n")]
    return [parse_word(line) for line in lines if line and not line.startswith("#")]


def build_automaton(generators: Union[str, Iterable[Union[str, Word]]], d: int) -> StallingsAutomaton:
    """Stallings automaton of the subgroup generated by the given words.

    An empty generator list yields the one-state automaton of the trivial
    subgroup.  The folded bouquet is already a core: in a bouquet of reduced
    words every non-base state has two distinct defined slots (the inverse
    of the letter entering it and the next letter), and folding only merges
    slots, so no state has degree below 2.
    """
    words = parse_generator_list(generators)
    for w in words:
        for letter in w.letters:
            if abs(letter) > d:
                raise ValidationError(f"letter {letter} in {w} exceeds rank {d}")
    edges: list[tuple[int, int, int]] = []
    n = 1
    for w in words:
        if w.is_identity():
            continue
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
    return fold(EdgeListGraph(d, n, 0, edges))


def membership(automaton: StallingsAutomaton, word: Word) -> bool:
    """True iff the word lies in the subgroup the automaton accepts."""
    return automaton.trace(word) == automaton.base


def intersect_automata(a1: StallingsAutomaton, a2: StallingsAutomaton) -> StallingsAutomaton:
    """Automaton of the intersection: based component of the labeled product."""
    if a1.d != a2.d:
        raise ValidationError(f"rank mismatch: {a1.d} vs {a2.d}")
    d = a1.d
    width = 2 * d
    start = (a1.base, a2.base)
    index = {start: 0}
    order = [start]
    rows: list[list[int | None]] = []
    for u1, u2 in order:
        row: list[int | None] = [None] * width
        for s in range(width):
            t1 = a1.table[u1][s]
            t2 = a2.table[u2][s]
            if t1 is not None and t2 is not None:
                key = (t1, t2)
                j = index.get(key)
                if j is None:
                    j = len(order)
                    index[key] = j
                    order.append(key)
                row[s] = j
        rows.append(row)
    return StallingsAutomaton(d, rows, 0).core()


def subgroup_index(automaton: StallingsAutomaton) -> int | None:
    """Index of the subgroup; None when infinite.

    Finite index equals the state count exactly when the automaton is
    complete (every state carries all 2d directions).
    """
    return automaton.n_states if automaton.is_complete() else None


@dataclass
class CogrowthResult:
    """Exponential base of the count of subgroup elements by reduced length."""

    alpha: float
    delta: float | None
    iterations: int
    residual: float
    converged: bool

    def to_json(self) -> dict:
        return asdict(self)


def _nonbacktracking(table: np.ndarray, d: int, dtype) -> Callable[[np.ndarray], np.ndarray]:
    """Matvec of the non-backtracking operator B on directed edges.

    ``table[u, s]`` is the target of the edge leaving u along slot s, or
    ``len(table)`` where that slot is missing.  An edge vector x is
    slot-major, of shape ``(2d, len(table))``: x[s, u] is the edge (u, s).
    (Bx)[s, u] sums x over the edges leaving t = table[u, s] except the
    reverse of (u, s), i.e. the slot total at t minus x[s', t] for the
    inverse slot s'.  Each matvec is one slot total and two ``take``s: the
    totals at the targets, and the reverse edges through one precomputed
    flat index.  Missing slots read a zero sentinel column, so Bx vanishes
    there.

    The slot total is a sum over the leading axis, in 2d contiguous passes
    that add the slots in order.  Integer and object sums do not depend on
    their order; a float total of fewer than 8 slots has the bits of the
    row-major ``sum(axis=1)``, since numpy adds such a row in order too.
    """
    width = 2 * d
    n = len(table)
    targets = np.ascontiguousarray(table.T)
    reverse = (np.arange(width) + d) % width
    back = reverse[:, None] * (n + 1) + targets  # flat index of x[s', t] in ``padded``
    padded = np.zeros((width, n + 1), dtype=dtype)

    def matvec(x: np.ndarray) -> np.ndarray:
        padded[:, :-1] = x
        return np.add.reduce(padded, axis=0).take(targets) - padded.take(back)

    return matvec


# Power iteration stops once the sup-norm residual is <= _TOL, or after
# _MAX_ITERATIONS iterations with the result flagged not converged.
_TOL = 1e-10
_MAX_ITERATIONS = 100_000


def cogrowth_rate(automaton: StallingsAutomaton) -> CogrowthResult:
    """Cogrowth base alpha of the subgroup's core automaton.

    Power iteration runs on I + B where B is the non-backtracking operator
    on the automaton's directed edges, with sup-norm normalization; the
    identity shift removes the oscillation of periodic edge graphs (pure
    cycles) without moving the Perron value.  Each iteration costs one
    matvec: the residual's image of the iterate is the next iterate.
    alpha = 0 for the trivial subgroup, whose delta = ln(alpha) is None.
    The iteration stops at a sup-norm residual of ``_TOL``; hitting
    ``_MAX_ITERATIONS`` first returns the best estimate with
    converged=False.
    """
    n = automaton.n_states
    table = np.array(
        [[n if t is None else t for t in row] for row in automaton.table], dtype=np.int64
    )
    present = table < n
    if not present.any():
        return CogrowthResult(0.0, None, 0, 0.0, True)
    step = _nonbacktracking(table, automaton.d, float)
    v = present.T.astype(float)
    w = v + step(v)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        # w >= 0, so its max is its sup norm; >= 1: (I + B) never shrinks it
        lam = float(w.max())
        v = w / lam
        w = v + step(v)
        residual = float(abs(w - lam * v).max())
        if residual <= _TOL:
            break
    alpha = lam - 1.0
    delta = math.log(alpha) if alpha > 0 else None
    return CogrowthResult(alpha, delta, iterations, residual, residual <= _TOL)


def automaton_to_dot(automaton: StallingsAutomaton) -> str:
    """DOT rendering: base state doubly circled, positive labels on edges."""
    lines = ["digraph stallings {"]
    for u in range(automaton.n_states):
        shape = "doublecircle" if u == automaton.base else "circle"
        lines.append(f'  q{u} [shape={shape}];')
    for u in range(automaton.n_states):
        for s in range(automaton.d):
            t = automaton.table[u][s]
            if t is not None:
                lines.append(f'  q{u} -> q{t} [label="{letter_char(s + 1)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
