"""Finite measure-preserving graphings and their spectral machinery.

A graphing is a finite weighted point set together with a symmetric family
of measure-preserving partial bijections, kept as one index table of
targets, -1 where a map is undefined.  The Markov operator averages
uniformly over all map slots, with undefined slots counting as staying put
(lazy convention); the Schreier-ball estimators never use this convention,
it only matters here where maps may be partial.

Implements orbit (ergodic) decomposition, the mass transport identity,
an exact Rokhlin-type partition, the embedded spectral radius over interiors
of components, and the product test-function construction that transfers a
spectral witness from a factor system to a product with a Folner set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ValidationError, _number
from .schreier import SchreierBall, folner_defect, interior_boundary
from .spectral import _neighbor_average, _restricted_average, _top_eigenpair

__all__ = [
    "PartialMap",
    "Graphing",
    "OrbitDecomposition",
    "RokhlinPartition",
    "TestFunction",
    "orbit_decomposition",
    "mtp_check",
    "rokhlin_partition",
    "embedded_spectral_radius",
    "interior_of",
    "product_test_function",
    "ProductTestReport",
    "validate_test_function",
    "graphing_to_text",
    "graphing_from_text",
    "random_kernel",
]


class PartialMap:
    """An injective partial map on point indices, with a label: what graphing
    text is read into, and the form of the ``Graphing.maps`` view."""

    def __init__(self, label: str, mapping: Mapping[int, int]):
        self.label = str(label)
        self.mapping = dict(mapping)
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise ValidationError(f"map {label!r} is not injective")

    def __repr__(self) -> str:
        return f"PartialMap({self.label!r}, {len(self.mapping)} pairs)"


class Graphing:
    """Finite weighted point set with an inverse-closed family of
    measure-preserving partial bijections.

    Weights must transfer exactly along every map (bitwise float equality);
    build systems by copying weights along orbits.  Treated as immutable
    after construction.

    ``targets[x, k]`` is the image of point x under map ``labels[k]``, or
    -1 where that map is undefined at x, which is not a fixed point.  The
    Markov operator, interiors and orbits read ``table``, derived from it
    with x itself in place of -1 (the lazy convention).  ``maps`` is a
    read-only view of the maps as ``PartialMap`` dicts, built when first read.
    """

    def __init__(self, weights: Sequence[float], maps: Iterable[Union[PartialMap, tuple]]):
        self._adopt(*_target_table(weights, maps))

    @classmethod
    def from_pairs(cls, weights, pairs: Iterable[tuple]) -> "Graphing":
        """Build from forward maps only: each map left without an inverse
        among them gets one of its own, labelled ``label~`` and appended in
        order."""
        weights, labels, targets = _target_table(weights, pairs)
        missing = [k for k, j in enumerate(_pair_inverses(targets)) if j is None]
        return cls.__new__(cls)._adopt(
            weights, labels + [labels[k] + "~" for k in missing],
            np.column_stack([targets, _inverses(targets[:, missing])]),
        )

    def _adopt(self, weights: np.ndarray, labels: Sequence[str], targets: np.ndarray) -> "Graphing":
        """Take checked weights and target columns; pair the inverses."""
        inv = _pair_inverses(targets)
        if None in inv:
            lone = labels[inv.index(None)]
            raise ValidationError(f"map family is not symmetric: no inverse present for {lone!r}")
        self.weights, self.labels, self.targets, self.inv_index = weights, tuple(labels), targets, tuple(inv)
        self.table = np.where(targets >= 0, targets, np.arange(len(weights))[:, None])
        return self

    @cached_property
    def maps(self) -> tuple[PartialMap, ...]:
        return tuple(PartialMap(label, _arrows(column))
                     for label, column in zip(self.labels, self.targets.T))

    @property
    def n_points(self) -> int:
        return len(self.weights)

    @property
    def n_maps(self) -> int:
        return len(self.labels)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def apply_markov(self, f: np.ndarray) -> np.ndarray:
        """Average f over all map slots, undefined slots staying put."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_points,):
            raise ValidationError(f"function must have shape ({self.n_points},)")
        return _neighbor_average(self.table)(f)


def _target_table(weights, maps) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Checked weights, labels and target table of PartialMaps or
    (label, mapping) pairs."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValidationError("weights must be a nonempty 1-d array")
    if not (weights > 0).all():
        raise ValidationError("all point weights must be positive")
    maps = [(m.label, m.mapping) if isinstance(m, PartialMap) else (str(m[0]), dict(m[1])) for m in maps]
    if not maps:
        raise ValidationError("a graphing needs at least one map")
    targets = np.full((len(weights), len(maps)), -1, dtype=np.int64)
    for k, (label, mapping) in enumerate(maps):
        _check_label(label)
        src, dst = list(mapping), list(mapping.values())
        if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, src + dst))):
            raise ValidationError(f"map {label!r} has a point that is not an integer")
        if src and (min(min(src), min(dst)) < 0 or max(max(src), max(dst)) >= len(weights)):
            raise ValidationError(f"map {label!r} leaves the point set")
        if len(set(dst)) < len(dst):
            raise ValidationError(f"map {label!r} is not injective")
        bad = np.flatnonzero(weights[src] != weights[dst])
        if len(bad):
            raise ValidationError(f"map {label!r} is not measure preserving at {src[bad[0]]}->{dst[bad[0]]}")
        targets[src, k] = dst
    return weights, [label for label, _ in maps], targets


def _arrows(column: np.ndarray):
    """(x, image) pairs of one target column, in ascending point order."""
    src = np.flatnonzero(column >= 0)
    return zip(src.tolist(), column[src].tolist())


def _inverses(targets: np.ndarray) -> np.ndarray:
    """The target table of each map's inverse, column by column."""
    inverse = np.full_like(targets, -1)
    src, k = np.nonzero(targets >= 0)
    inverse[targets[src, k], k] = src
    return inverse


def _pair_inverses(targets: np.ndarray) -> list[int | None]:
    """Pair each map, in order, with the first unpaired map whose column is
    its inverse column (an involution may pair with itself); None where
    none is left."""
    inv: list[int | None] = [None] * targets.shape[1]
    columns = [column.tobytes() for column in targets.T]
    for i, key in enumerate(column.tobytes() for column in _inverses(targets).T):
        if inv[i] is None:
            j = next((j for j, c in enumerate(columns) if inv[j] is None and c == key), None)
            if j is not None:
                inv[i], inv[j] = j, i
    return inv


def _least_points(table: np.ndarray) -> np.ndarray:
    """Least point of each point's component in the graph joining every x
    to each table[x, k]: hook every root onto the least root joined to its
    tree, jump pointers until each tree is a star, and repeat until no edge
    joins two trees."""
    src, dst = np.repeat(np.arange(len(table)), table.shape[1]), table.ravel()
    root = np.arange(len(table))
    while True:
        a, b = root[src], root[dst]
        if np.array_equal(a, b):
            return root
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _groups(keys: np.ndarray, points: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The ascending points grouped by equal rows of ``keys``, in order of
    least point."""
    order = np.lexsort(keys.T)
    ranked = keys[order]
    starts = np.flatnonzero(np.r_[len(order) > 0, (ranked[1:] != ranked[:-1]).any(axis=1)]).tolist()
    members = points[order].tolist()
    groups = (tuple(members[a:b]) for a, b in zip(starts, starts[1:] + [len(members)]))
    return tuple(sorted(groups, key=lambda c: c[0]))


@dataclass
class OrbitDecomposition:
    """Orbit classes of the generated equivalence relation, in order of
    least point id; class weights sum to the total measure."""

    components: tuple[tuple[int, ...], ...]
    class_weights: tuple[float, ...]
    component_of: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.components)


def orbit_decomposition(g: Graphing) -> OrbitDecomposition:
    """Connected components of the union of the map graphs (tests
    cross-check against an independent union-find)."""
    least = _least_points(g.table)
    component_of = np.unique(least, return_inverse=True)[1]
    weights = tuple(np.bincount(component_of, weights=g.weights).tolist())
    return OrbitDecomposition(_groups(least[:, None], np.arange(g.n_points)), weights, component_of)


Kernel = Union[Callable[[int, int], float], Mapping[tuple[int, int], float]]


def mtp_check(g: Graphing, kernel: Kernel) -> tuple[float, float]:
    """Both sides of the mass transport identity for a kernel on the
    orbit relation: integral of mass sent vs mass received.

    Kernel values off the relation are treated as 0.  For measure-preserving
    graphings the two sides agree (weights are constant along orbits).
    A mapping kernel's keys must be pairs of points of the graphing, as
    integers (not bools).
    """
    dec = orbit_decomposition(g)
    w = g.weights
    lhs = 0.0
    rhs = 0.0
    if isinstance(kernel, Mapping):
        n, points = g.n_points, (int, np.integer)
        # np.float64 weights, so that float32 kernel values still sum in float64
        component, weight = dec.component_of.tolist(), list(w)
        for key, value in kernel.items():
            x, y = key if type(key) is tuple and len(key) == 2 else (None, None)
            if isinstance(x, bool) or isinstance(y, bool) or not (
                isinstance(x, points) and isinstance(y, points) and 0 <= x < n and 0 <= y < n
            ):
                raise ValidationError(f"kernel key {key!r} is not a pair of points of the graphing")
            if component[x] != component[y]:
                continue
            lhs += weight[x] * value
            rhs += weight[y] * value
    else:
        for members in dec.components:
            for x in members:
                for y in members:
                    value = kernel(x, y)
                    if value:
                        lhs += w[x] * value
                        rhs += w[y] * value
    return float(lhs), float(rhs)


@dataclass
class RokhlinPartition:
    """Partition X = B + A_1 + ... + A_N with small B and classes meeting
    their own images only in fixed points."""

    B: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "B_size": len(self.B),
            "n_classes": self.n_classes,
            "class_sizes": [len(c) for c in self.classes],
        }


def _single_map_classes(column: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Class codes for one map, or for maps on disjoint blocks of points as
    one column: chain parity, fixed points, cycle phases.

    Returns (codes, long): equal codes mean one class, and ``long`` marks
    the points of odd cycles longer than the cap, the candidates for the B
    part.  Chain parities, and even cycles' phase parities from their least
    points, are codes 0 and 1; fixed points share code 2, and phase p of an
    odd cycle of length L has code 3 + n L + p.
    """
    n = len(column)
    points = np.arange(n)
    ahead = np.where(column >= 0, column, points)
    least = _least_points(ahead[:, None])
    on_chain = np.isin(least, least[column < 0])
    anchor = points[(least == points) & ~on_chain]
    # steps to the chain's end or the cycle's anchor, by pointer doubling
    ahead[anchor] = anchor
    steps = (ahead != points).astype(np.int64)
    for _ in range((n - 1).bit_length()):
        steps += steps[ahead]
        ahead = ahead[ahead]
    length = np.where(on_chain, 0, steps[column[least]] + 1)
    odd = length % 2 == 1
    phase = (length - steps) % np.maximum(length, 1)
    codes = np.select([length == 1, odd], [2, 3 + n * length + phase], steps % 2)
    return codes, odd & (length > 1) & (length > cap)


def rokhlin_partition(g: Graphing, delta: float, class_cap: int = 64) -> RokhlinPartition:
    """Exact finite Rokhlin-type partition.

    Per map pair, chains are 2-colored by exit parity, even cycles 2-colored
    by phase parity, fixed points pooled, and odd cycles get one class per
    phase.  The points on odd cycles longer than ``class_cap`` form B when
    they weigh at most delta; otherwise B is empty and they keep their phase
    classes (finite systems always succeed).  Per-map partitions combine by
    common refinement of the points outside B.
    """
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    n = g.n_points
    columns = g.targets[:, [i for i, j in enumerate(g.inv_index) if i <= j]]
    # one column for all map pairs: map c acts on block c of the points
    shifted = np.where(columns >= 0, columns + n * np.arange(columns.shape[1]), -1)
    codes, long = _single_map_classes(shifted.T.ravel(), class_cap)
    b_part = np.flatnonzero(long.reshape(-1, n).any(axis=0))
    if float(g.weights[b_part].sum()) > delta:
        b_part = b_part[:0]
    outside = np.delete(np.arange(n), b_part)
    classes = _groups(codes.reshape(-1, n).T[outside], outside)
    return RokhlinPartition(tuple(b_part.tolist()), classes)


def interior_of(g: Graphing, subset: Iterable[int]) -> np.ndarray:
    """Sorted points of the subset all of whose defined map images stay inside."""
    points = np.unique(np.fromiter((int(x) for x in subset), dtype=np.int64))
    outside = points[(points < 0) | (points >= g.n_points)]
    if len(outside):
        raise ValidationError(f"point {outside[0]} outside the graphing")
    members = np.zeros(g.n_points, dtype=bool)
    members[points] = True
    return points[members[g.table[points]].all(axis=1)]


def embedded_spectral_radius(g: Graphing, subset: Iterable[int]) -> float:
    """Top weighted Rayleigh quotient of M over functions supported on the
    interior of the given component set; 0 when every interior is empty.

    Weights are constant on orbits and the map family is inverse-closed, so
    M restricted to the interior is symmetric and block-diagonal over the
    components of the subset; one unweighted solve from the all-ones vector
    gives the supremum over all of them.
    """
    interior = interior_of(g, subset)
    if len(interior) == 0:
        return 0.0
    matvec = _restricted_average(g.table, interior, g.n_points)
    value, _, _, _ = _top_eigenpair(matvec, len(interior))
    return min(value, 1.0)


@dataclass
class TestFunction:
    """Nonnegative nonzero function supported on the interior of a declared
    finite connected component."""

    __test__ = False  # keep pytest from collecting this as a test class

    values: np.ndarray
    component: tuple[int, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.component = tuple(sorted(int(x) for x in self.component))


def validate_test_function(g: Graphing, tf: TestFunction) -> None:
    if tf.values.shape != (g.n_points,):
        raise ValidationError("test function has the wrong length")
    if not np.isfinite(tf.values).all():
        raise ValidationError("test function values must be finite")
    if (tf.values < 0).any():
        raise ValidationError("test functions must be nonnegative")
    support = np.flatnonzero(tf.values)
    if not len(support):
        raise ValidationError("test functions must be nonzero")
    if not np.isin(support, interior_of(g, tf.component)).all():
        raise ValidationError("test function support must lie in the interior of its component")


@dataclass
class ProductTestReport:
    """Numbers behind the product construction f = 1_F x f2, including the
    verified energy inequality and per-orbit-component norm shares."""

    lambda2_prime: float
    folner_defect: float
    n_letters: int
    lhs: float
    norm_sq: float
    bound: float
    slack: float
    inequality_holds: bool
    component_shares: tuple[float, ...]
    product: "Graphing"

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "product"}


def product_test_function(
    x1_ball: SchreierBall,
    folner_set: Iterable,
    x2: Graphing,
    f2: TestFunction,
) -> tuple[TestFunction, ProductTestReport]:
    """Build f = 1_F x f2 on the product graphing and verify its energy bound.

    F is a set of ball indices of ``x1_ball`` (map ids through
    ``x1_ball.index``).  The factor system's maps must align with the ball's letters (2d maps in
    slot order, inverse-closed accordingly).  The product's point i * n2 + j
    is the pair of ball vertex i and factor point j; its slot-s map sends it
    to nbr[i, s] * n2 + phi_s(j) wherever both are defined, rim targets
    skipped.  f is f2[j] at i * n2 + j for i in F and 0 elsewhere, with the
    pairs of F and its outer boundary in the ball with f2's component as its
    component.  The report carries
    lambda2' = 1 - <(I-M)f2, f2>/|f2|^2, the exact product energy
    <(I-M)f, f>, the bound (1 - lambda2' + |S| eps1) |f|^2 with eps1 the
    exact Folner defect of F, and the norm share of f on each orbit
    component of the product.

    Everything is measured on this lazy product graphing, where a skipped
    rim target leaves a loop.  When F reaches the ball's last layer those
    loops can lift 1 - <(I-M)f, f>/|f|^2 above the Dirichlet value of the
    factor (0.84400 against 0.84307 for F the whole radius-40 ball of
    ``zkernel:weights=1|0``, x2 the inner edges of the radius-8 ball of
    ``aab|bAb`` and f2 their Dirichlet vector).  So the report checks the
    energy inequality; it bounds the co-spectral radius only when F lies in
    the ball's interior.
    """
    d = x1_ball.oracle.d
    width = 2 * d
    if x2.n_maps != width:
        raise ValidationError(
            f"factor system must carry {width} maps aligned with the ball letters, "
            f"got {x2.n_maps}"
        )
    if not np.array_equal(_inverses(x2.targets[:, :d]), x2.targets[:, d:]):
        raise ValidationError(
            "factor system maps must pair with their inverses in letter order"
        )
    validate_test_function(x2, f2)

    f_idx = x1_ball.indices_of(folner_set)
    if len(f_idx) == 0:
        raise ValidationError("the Folner set must be nonempty")
    eps1 = folner_defect(x1_ball, f_idx)

    n1 = x1_ball.n_vertices
    n2 = x2.n_points
    nbr = x1_ball.nbr.astype(np.int64)[:, None, :]
    defined = (nbr < n1) & (x2.targets >= 0)
    targets = np.where(defined, nbr * n2 + x2.targets, -1).reshape(n1 * n2, width)
    product = Graphing.__new__(Graphing)._adopt(
        np.tile(x2.weights, n1), [f"slot{s}" for s in range(width)], targets)

    values = np.where(np.isin(np.arange(n1), f_idx)[:, None], f2.values, 0.0).ravel()

    boundary = interior_boundary(x1_ball, f_idx)
    halo = np.union1d(f_idx, boundary.outer_boundary[boundary.outer_boundary < n1])
    component = (halo[:, None] * n2 + np.array(f2.component, dtype=np.int64)).ravel().tolist()
    f = TestFunction(values, component)
    validate_test_function(product, f)

    w = product.weights
    norm_sq = float((w * values * values).sum())
    mf = product.apply_markov(values)
    lhs = float((w * (values - mf) * values).sum())

    w2 = x2.weights
    norm2_sq = float((w2 * f2.values * f2.values).sum())
    m2f = x2.apply_markov(f2.values)
    energy2 = float((w2 * (f2.values - m2f) * f2.values).sum())
    lambda2_prime = 1.0 - energy2 / norm2_sq

    bound = (1.0 - lambda2_prime + width * eps1) * norm_sq
    slack = bound - lhs

    shares = [float((w[idx] * values[idx] * values[idx]).sum()) / norm_sq
              for idx in map(list, orbit_decomposition(product).components)]

    report = ProductTestReport(
        lambda2_prime=lambda2_prime,
        folner_defect=eps1,
        n_letters=width,
        lhs=lhs,
        norm_sq=norm_sq,
        bound=bound,
        slack=slack,
        inequality_holds=slack >= -1e-9,
        component_shares=tuple(share for share in shares if share > 0),
        product=product,
    )
    return f, report


def _check_label(label: str) -> None:
    """A map label must read back from its ``graphing_to_text`` line: no
    line break or outer whitespace, and the line must not pass for the
    weights header or a comment.  Colons are fine: the reader splits at the
    last one."""
    if (len((label + ".").splitlines()) > 1 or label != label.strip()
            or f"{label}:".split()[0] == "weights" or label.startswith("#")):
        raise ValidationError(f"map label {label!r} cannot be written as graphing text")


def graphing_to_text(g: Graphing) -> str:
    """Serialize: a weights header line, then one line per map."""
    lines = ["weights " + " ".join(repr(float(x)) for x in g.weights)]
    for label, column in zip(g.labels, g.targets.T):
        body = " ".join(f"{x}->{y}" for x, y in _arrows(column))
        lines.append(f"{label}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def graphing_from_text(text: str) -> Graphing:
    weights = None
    maps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *tokens = line.split()
        if head == "weights":
            if weights is not None:
                raise ValidationError("graphing text has two weights headers")
            weights = [_number(float, tok, "graphing weight") for tok in tokens]
            continue
        label, _, body = line.rpartition(":")  # labels may hold colons
        if not _:
            raise ValidationError(f"malformed graphing line: {raw!r}")
        mapping = {}
        for token in body.split():
            src, _, dst = token.partition("->")
            if not _:
                raise ValidationError(f"malformed pair {token!r} in map {label!r}")
            x = _number(int, src, f"point in map {label!r}")
            if x in mapping:
                raise ValidationError(f"point {x} has two images in map {label!r}")
            mapping[x] = _number(int, dst, f"point in map {label!r}")
        maps.append(PartialMap(label.strip(), mapping))
    if weights is None:
        raise ValidationError("graphing text is missing the weights header")
    return Graphing(weights, maps)


def random_kernel(g: Graphing, seed: int, density: float = 0.5) -> dict[tuple[int, int], float]:
    """Seeded random kernel supported on the orbit relation."""
    rng = np.random.default_rng(seed)
    dec = orbit_decomposition(g)
    kernel: dict[tuple[int, int], float] = {}
    for members in dec.components:
        for x in members:
            for y in members:
                if rng.random() < density:
                    kernel[(x, y)] = float(rng.uniform(-1.0, 1.0))
    return kernel
