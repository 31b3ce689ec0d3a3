"""Finite measure-preserving graphings and their spectral machinery.

A graphing is a finite weighted point set together with a symmetric family
of measure-preserving partial bijections.  The Markov operator averages
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
    """An injective partial map on point indices, with a label."""

    def __init__(self, label: str, mapping: Mapping[int, int]):
        self.label = str(label)
        self.mapping = dict(mapping)
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise ValidationError(f"map {label!r} is not injective")

    def inverse_mapping(self) -> dict[int, int]:
        return {v: k for k, v in self.mapping.items()}

    def __repr__(self) -> str:
        return f"PartialMap({self.label!r}, {len(self.mapping)} pairs)"


class Graphing:
    """Finite weighted point set with an inverse-closed family of
    measure-preserving partial bijections.

    Weights must transfer exactly along every map (bitwise float equality);
    build systems by copying weights along orbits.  Treated as immutable
    after construction.

    ``table[x, k]`` is the image of point x under map k, or x itself where
    map k is undefined (the lazy convention).  The Markov operator,
    interiors and orbits all read this one table.
    """

    def __init__(self, weights: Sequence[float], maps: Iterable[Union[PartialMap, tuple]]):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) == 0:
            raise ValidationError("weights must be a nonempty 1-d array")
        if not (self.weights > 0).all():
            raise ValidationError("all point weights must be positive")
        self.maps: tuple[PartialMap, ...] = tuple(
            m if isinstance(m, PartialMap) else PartialMap(*m) for m in maps
        )
        if not self.maps:
            raise ValidationError("a graphing needs at least one map")
        n = len(self.weights)
        for m in self.maps:
            _check_label(m.label)
            for x, y in m.mapping.items():
                if not (0 <= x < n and 0 <= y < n):
                    raise ValidationError(f"map {m.label!r} leaves the point set")
                if self.weights[x] != self.weights[y]:
                    raise ValidationError(
                        f"map {m.label!r} is not measure preserving at {x}->{y}"
                    )
        inv = _pair_inverses(self.maps)
        if None in inv:
            raise ValidationError(
                "map family is not symmetric: no inverse present for "
                f"{self.maps[inv.index(None)].label!r}"
            )
        self.inv_index = tuple(inv)
        self.table = np.repeat(np.arange(n, dtype=np.int64)[:, None], len(self.maps), axis=1)
        for k, m in enumerate(self.maps):
            self.table[list(m.mapping), k] = list(m.mapping.values())

    @classmethod
    def from_pairs(cls, weights, pairs: Iterable[tuple]) -> "Graphing":
        """Build from forward maps only: each map left without an inverse
        among them gets one of its own, appended in order."""
        maps = [m if isinstance(m, PartialMap) else PartialMap(*m) for m in pairs]
        missing = [m for m, j in zip(maps, _pair_inverses(maps)) if j is None]
        return cls(weights, maps + [PartialMap(m.label + "~", m.inverse_mapping()) for m in missing])

    @property
    def n_points(self) -> int:
        return len(self.weights)

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def apply_markov(self, f: np.ndarray) -> np.ndarray:
        """Average f over all map slots, undefined slots staying put."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_points,):
            raise ValidationError(f"function must have shape ({self.n_points},)")
        return _neighbor_average(self.table)(f)


def _pair_inverses(maps: Sequence[PartialMap]) -> list[int | None]:
    """Pair each map, in order, with the first unpaired map of its inverse
    mapping (an involution may pair with itself); None where none is left."""
    inv: list[int | None] = [None] * len(maps)
    by_mapping: dict[tuple, list[int]] = {}
    for i, m in enumerate(maps):
        by_mapping.setdefault(tuple(sorted(m.mapping.items())), []).append(i)
    for i, m in enumerate(maps):
        if inv[i] is not None:
            continue
        key = tuple(sorted(m.inverse_mapping().items()))
        candidates = [j for j in by_mapping.get(key, ()) if inv[j] is None]
        if candidates:
            inv[i] = candidates[0]
            inv[candidates[0]] = i
    return inv


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
    """Connected components of the union of the map graphs (BFS based;
    tests cross-check against an independent union-find)."""
    n = g.n_points
    comp = np.full(n, -1, dtype=np.int64)
    components = []
    for start in range(n):
        if comp[start] != -1:
            continue
        cid = len(components)
        comp[start] = cid
        queue = [start]
        members = [start]
        while queue:
            x = queue.pop()
            for y in g.table[x].tolist():
                if comp[y] == -1:
                    comp[y] = cid
                    queue.append(y)
                    members.append(y)
        components.append(tuple(sorted(members)))
    weights = tuple(float(g.weights[list(c)].sum()) for c in components)
    return OrbitDecomposition(tuple(components), weights, comp)


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


def _single_map_classes(n: int, phi: dict[int, int], cap: int):
    """Class labels for one map: chain parity, fixed points, cycle phases.

    Returns (labels, long) where labels[x] is a hashable class key and
    ``long`` collects the points of odd cycles longer than the cap, the
    candidates for the B part.
    """
    preimage = {v: u for u, v in phi.items()}
    steps_left: dict[int, int] = {}
    for end in range(n):
        if end in phi or end in steps_left:
            continue
        # walk the preimage chain, assigning distance-to-exit
        k = 0
        steps_left[end] = 0
        cur = end
        while cur in preimage:
            cur = preimage[cur]
            k += 1
            steps_left[cur] = k

    labels: dict[int, object] = {}
    long: set[int] = set()
    for x, k in steps_left.items():
        labels[x] = ("chain", k % 2)

    seen = set(steps_left)
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = phi[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = phi[cur]
        length = len(cycle)
        anchor = cycle.index(min(cycle))
        if length == 1:
            labels[start] = ("fix",)
        elif length % 2 == 0:
            for offset, x in enumerate(cycle):
                labels[x] = ("chain", (offset - anchor) % 2)
        else:
            for offset, x in enumerate(cycle):
                labels[x] = ("odd", length, (offset - anchor) % length)
            if length > cap:
                long.update(cycle)
    return labels, long


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
    all_labels = []
    long: set[int] = set()
    for i, j in enumerate(g.inv_index):
        if i <= j:
            labels, points = _single_map_classes(g.n_points, g.maps[i].mapping, class_cap)
            all_labels.append(labels)
            long |= points
    b_part = tuple(sorted(long))
    if float(g.weights[list(b_part)].sum()) > delta:
        b_part = ()
    outside = sorted(set(range(g.n_points)).difference(b_part))
    keys = zip(*([lab[x] for x in outside] for lab in all_labels))
    groups: dict[tuple, list[int]] = {}
    for x, key in zip(outside, keys):
        groups.setdefault(key, []).append(x)
    classes = sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])
    return RokhlinPartition(b_part, tuple(classes))


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
    if (tf.values < 0).any():
        raise ValidationError("test functions must be nonnegative")
    support = set(np.nonzero(tf.values)[0].tolist())
    if not support:
        raise ValidationError("test functions must be nonzero")
    interior = set(interior_of(g, tf.component).tolist())
    if not support <= interior:
        raise ValidationError(
            "test function support must lie in the interior of its component"
        )


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
    for slot in range(d):
        partner = slot + d
        if x2.maps[slot].inverse_mapping() != x2.maps[partner].mapping:
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
    weights = np.tile(x2.weights, n1)

    maps = []
    for slot in range(width):
        targets = x1_ball.nbr[:, slot].astype(np.int64)
        sources = np.flatnonzero(targets < n1)
        arrows = np.array(list(x2.maps[slot].mapping.items()), dtype=np.int64).reshape(-1, 2)
        src = (sources[:, None] * n2 + arrows[:, 0]).ravel().tolist()
        dst = (targets[sources, None] * n2 + arrows[:, 1]).ravel().tolist()
        maps.append(PartialMap(f"slot{slot}", dict(zip(src, dst))))
    product = Graphing(weights, maps)

    in_f = np.zeros(n1, dtype=bool)
    in_f[f_idx] = True
    values = np.where(in_f[:, None], f2.values, 0.0).ravel()

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

    dec = orbit_decomposition(product)
    shares = []
    for members in dec.components:
        idx = list(members)
        share = float((w[idx] * values[idx] * values[idx]).sum()) / norm_sq
        if share > 0:
            shares.append(share)

    report = ProductTestReport(
        lambda2_prime=lambda2_prime,
        folner_defect=eps1,
        n_letters=width,
        lhs=lhs,
        norm_sq=norm_sq,
        bound=bound,
        slack=slack,
        inequality_holds=slack >= -1e-9,
        component_shares=tuple(shares),
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
    for m in g.maps:
        body = " ".join(f"{x}->{m.mapping[x]}" for x in sorted(m.mapping))
        lines.append(f"{m.label}: {body}".rstrip())
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
