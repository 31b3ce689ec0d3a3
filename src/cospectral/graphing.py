"""Finite measure-preserving graphings and their spectral machinery.

A graphing is a finite weighted point set together with a symmetric family
of measure-preserving partial bijections.  The Markov operator averages
uniformly over all map slots, with undefined slots counting as staying put
(lazy convention); the Schreier-ball estimators never use this convention,
it only matters here where maps may be partial.

Implements orbit (ergodic) decomposition, the mass transport identity,
an exact Rokhlin-type partition, the embedded spectral radius over interiors
of components, Cesaro averages of the step distribution, and the product
test-function construction that transfers a spectral witness from a factor
system to a product with a Folner set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ValidationError
from .schreier import SchreierBall, folner_defect, interior_boundary
from .spectral import _neighbor_average, _top_eigenpair

__all__ = [
    "PartialMap",
    "Graphing",
    "OrbitDecomposition",
    "RokhlinPartition",
    "TestFunction",
    "orbit_decomposition",
    "mtp_check",
    "rokhlin_partition",
    "check_rokhlin",
    "embedded_spectral_radius",
    "interior_of",
    "cesaro_average",
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
        self.src = np.array(sorted(self.mapping), dtype=np.int64)
        self.dst = np.array([self.mapping[x] for x in self.src], dtype=np.int64)

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
            for x, y in m.mapping.items():
                if not (0 <= x < n and 0 <= y < n):
                    raise ValidationError(f"map {m.label!r} leaves the point set")
                if self.weights[x] != self.weights[y]:
                    raise ValidationError(
                        f"map {m.label!r} is not measure preserving at {x}->{y}"
                    )
        self.inv_index = self._match_inverses()
        self._defined_count = np.zeros(n, dtype=np.int64)
        for m in self.maps:
            self._defined_count[m.src] += 1

    def _match_inverses(self) -> tuple[int, ...]:
        inv = [None] * len(self.maps)
        by_mapping: dict[tuple, list[int]] = {}
        for i, m in enumerate(self.maps):
            by_mapping.setdefault(tuple(sorted(m.mapping.items())), []).append(i)
        for i, m in enumerate(self.maps):
            if inv[i] is not None:
                continue
            key = tuple(sorted(m.inverse_mapping().items()))
            candidates = [j for j in by_mapping.get(key, ()) if inv[j] is None]
            if not candidates:
                raise ValidationError(
                    f"map family is not symmetric: no inverse present for {m.label!r}"
                )
            j = candidates[0]
            inv[i] = j
            inv[j] = i
        return tuple(inv)

    @classmethod
    def from_pairs(cls, weights, pairs: Iterable[tuple]) -> "Graphing":
        """Build from forward maps only; inverses are added when missing."""
        maps = [m if isinstance(m, PartialMap) else PartialMap(*m) for m in pairs]
        out = list(maps)
        present = {tuple(sorted(m.mapping.items())) for m in maps}
        for m in maps:
            inv = m.inverse_mapping()
            key = tuple(sorted(inv.items()))
            if key not in present:
                out.append(PartialMap(m.label + "~", inv))
                present.add(key)
        return cls(weights, out)

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
        stay = (self.n_maps - self._defined_count) * f
        acc = stay
        for m in self.maps:
            if len(m.src):
                contribution = np.zeros_like(f)
                contribution[m.src] = f[m.dst]
                acc = acc + contribution
        return acc / self.n_maps

    def neighbors(self, x: int):
        for m in self.maps:
            y = m.mapping.get(x)
            if y is not None:
                yield y


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
            for y in g.neighbors(x):
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
    """
    dec = orbit_decomposition(g)
    w = g.weights
    lhs = 0.0
    rhs = 0.0
    if isinstance(kernel, Mapping):
        for (x, y), value in kernel.items():
            if dec.component_of[x] != dec.component_of[y]:
                continue
            lhs += w[x] * value
            rhs += w[y] * value
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

    Returns (labels, absorbed) where labels[x] is a hashable class key and
    ``absorbed`` collects points of odd cycles longer than the cap (they go
    to the B part).
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
    absorbed: set[int] = set()
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
        elif length <= cap:
            for offset, x in enumerate(cycle):
                labels[x] = ("odd", length, (offset - anchor) % length)
        else:
            absorbed.update(cycle)
    return labels, absorbed


def rokhlin_partition(g: Graphing, delta: float, class_cap: int = 64) -> RokhlinPartition:
    """Exact finite Rokhlin-type partition.

    Per map pair, chains are 2-colored by exit parity, even cycles 2-colored
    by phase parity, fixed points pooled, and odd cycles get one class per
    phase; odd periods above ``class_cap`` are absorbed into B.  Per-map
    partitions combine by common refinement.  If B would weigh more than
    delta, the cap is raised to the point count, after which B is empty
    (finite systems always succeed).
    """
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    n = g.n_points

    pair_reps = [i for i, j in enumerate(g.inv_index) if i <= j]

    def build(cap: int) -> RokhlinPartition:
        all_labels = []
        b_points: set[int] = set()
        for i in pair_reps:
            labels, absorbed = _single_map_classes(n, g.maps[i].mapping, cap)
            all_labels.append(labels)
            b_points |= absorbed
        groups: dict[tuple, list[int]] = {}
        for x in range(n):
            if x in b_points:
                continue
            key = tuple(lab[x] for lab in all_labels)
            groups.setdefault(key, []).append(x)
        classes = sorted((tuple(sorted(v)) for v in groups.values()), key=lambda c: c[0])
        return RokhlinPartition(tuple(sorted(b_points)), tuple(classes))

    part = build(class_cap)
    if part.B and float(g.weights[list(part.B)].sum()) > delta:
        part = build(n)  # n bounds every period, so nothing is absorbed
    return part


def check_rokhlin(g: Graphing, part: RokhlinPartition, delta: float) -> bool:
    """Exact verification of the three partition invariants."""
    covered = sorted(part.B + tuple(x for c in part.classes for x in c))
    if covered != list(range(g.n_points)):
        return False
    if part.B and float(g.weights[list(part.B)].sum()) > delta + 1e-12:
        return False
    for cls in part.classes:
        members = set(cls)
        for m in g.maps:
            for x in cls:
                y = m.mapping.get(x)
                if y is not None and y in members and y != x:
                    return False
    return True


def interior_of(g: Graphing, subset: Iterable[int]) -> np.ndarray:
    """Points of the subset all of whose defined map images stay inside."""
    members = set(int(x) for x in subset)
    out = []
    for x in members:
        if all(m.mapping.get(x, x) in members for m in g.maps):
            out.append(x)
    return np.array(sorted(out), dtype=np.int64)


def embedded_spectral_radius(g: Graphing, subset: Iterable[int]) -> float:
    """Top weighted Rayleigh quotient of M over functions supported on the
    interior of the given component set; 0 when every interior is empty.

    Weights are constant on orbits and the map family is inverse-closed, so
    M restricted to the interior is symmetric and block-diagonal over the
    components of the subset; one unweighted solve from the all-ones vector
    gives the supremum over all of them.
    """
    p_set = set(int(x) for x in subset)
    for x in p_set:
        if not 0 <= x < g.n_points:
            raise ValidationError(f"point {x} outside the graphing")
    interior = interior_of(g, p_set)
    if len(interior) == 0:
        return 0.0
    local = np.full(g.n_points, len(interior))
    local[interior] = np.arange(len(interior))
    table = np.array(
        [[local[m.mapping.get(x, x)] for m in g.maps] for x in interior.tolist()],
        dtype=np.int64,
    )
    value, _, _, _ = _top_eigenpair(_neighbor_average(table), np.ones(len(interior)))
    return min(value, 1.0)


def cesaro_average(g: Graphing, f: np.ndarray, m: int) -> np.ndarray:
    """Average of f, Mf, ..., M^(m-1) f: the Cesaro mean of the step
    distribution applied to f (m = 1 returns f unchanged)."""
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    f = np.asarray(f, dtype=float)
    acc = f.copy()
    cur = f
    for _ in range(m - 1):
        cur = g.apply_markov(cur)
        acc += cur
    return acc / m


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
    pairs: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "lambda2_prime": self.lambda2_prime,
            "folner_defect": self.folner_defect,
            "n_letters": self.n_letters,
            "lhs": self.lhs,
            "norm_sq": self.norm_sq,
            "bound": self.bound,
            "slack": self.slack,
            "inequality_holds": self.inequality_holds,
            "component_shares": list(self.component_shares),
        }


def product_test_function(
    x1_ball: SchreierBall,
    folner_set: Iterable,
    x2: Graphing,
    f2: TestFunction,
) -> tuple[TestFunction, ProductTestReport]:
    """Build f = 1_F x f2 on the product graphing and verify its energy bound.

    The factor system's maps must align with the ball's letters (2d maps in
    slot order, inverse-closed accordingly).  The report carries
    lambda2' = 1 - <(I-M)f2, f2>/|f2|^2, the exact product energy
    <(I-M)f, f>, the bound (1 - lambda2' + |S| eps1) |f|^2 with eps1 the
    exact Folner defect of F, and the norm share of f on each orbit
    component of the product.
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
    pairs = tuple((i, j) for i in range(n1) for j in range(n2))
    pair_index = {p: k for k, p in enumerate(pairs)}
    weights = np.tile(x2.weights, n1)

    maps = []
    nbr = x1_ball.nbr
    for slot in range(width):
        m2 = x2.maps[slot]
        mapping = {}
        for i in range(n1):
            t = int(nbr[i, slot])
            if t >= n1:
                continue
            for j, j2 in m2.mapping.items():
                mapping[pair_index[(i, j)]] = pair_index[(t, j2)]
        maps.append(PartialMap(f"slot{slot}", mapping))
    product = Graphing(weights, maps)

    values = np.zeros(len(pairs))
    in_f = np.zeros(n1, dtype=bool)
    in_f[f_idx] = True
    for k, (i, j) in enumerate(pairs):
        if in_f[i]:
            values[k] = f2.values[j]

    boundary = interior_boundary(x1_ball, f_idx)
    halo = set(f_idx.tolist()) | {
        int(b) for b in boundary.outer_boundary if int(b) < n1
    }
    component = tuple(
        pair_index[(i, j)] for i in sorted(halo) for j in f2.component
    )
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
        pairs=pairs,
    )
    return f, report


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
        if line.startswith("weights"):
            weights = [float(tok) for tok in line.split()[1:]]
            continue
        label, _, body = line.partition(":")
        if not _:
            raise ValidationError(f"malformed graphing line: {raw!r}")
        mapping = {}
        for token in body.split():
            src, _, dst = token.partition("->")
            if not _:
                raise ValidationError(f"malformed pair {token!r} in map {label!r}")
            mapping[int(src)] = int(dst)
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
