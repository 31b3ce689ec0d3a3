"""Shared test utilities: independent oracles kept deliberately naive.

Everything here recomputes quantities by brute force (union-find, dense
eigensolves, nested-loop quadratic forms, free-reduction closures) so the
production code paths are checked against genuinely different algorithms.
"""

import numpy as np

from cospectral.graphing import Graphing
from cospectral.words import Word, letters_of_rank


def random_graphing(seed, max_points=60, max_pairs=4, weighted=True):
    """Seeded random measure-preserving graphing.

    Weights come from a small bucket set and maps only connect equal-weight
    points, so measure preservation is exact in floating point.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_points + 1))
    if weighted:
        buckets = np.array([0.5, 1.0, 1.5, 2.0])
        weights = buckets[rng.integers(0, len(buckets), size=n)]
    else:
        weights = np.ones(n)
    pairs = []
    n_pairs = int(rng.integers(1, max_pairs + 1))
    for k in range(n_pairs):
        value = weights[int(rng.integers(0, n))]
        bucket = np.nonzero(weights == value)[0]
        size = int(rng.integers(0, len(bucket) + 1))
        src = rng.choice(bucket, size=size, replace=False)
        dst = rng.permutation(src)
        mapping = {int(a): int(b) for a, b in zip(src, dst)}
        pairs.append((f"m{k}", mapping))
    return Graphing.from_pairs(weights, pairs)


def union_find_components(g):
    """Independent orbit decomposition via union-find."""
    parent = list(range(g.n_points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in g.maps:
        for a, b in m.mapping.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for x in range(g.n_points):
        classes.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(v)) for v in classes.values())


def naive_energy(g, f):
    """<(I - M)f, f> with explicit nested loops (lazy slot convention)."""
    w = g.weights
    n = g.n_points
    total = 0.0
    for x in range(n):
        acc = 0.0
        for m in g.maps:
            y = m.mapping.get(x, x)
            acc += f[y]
        mfx = acc / g.n_maps
        total += w[x] * (f[x] - mfx) * f[x]
    return total


def naive_mtp(g, kernel, components):
    """Both mass-transport sums by direct double loops over orbit pairs."""
    w = g.weights
    lhs = 0.0
    rhs = 0.0
    for members in components:
        for x in members:
            for y in members:
                value = kernel.get((x, y), 0.0) if isinstance(kernel, dict) else kernel(x, y)
                lhs += w[x] * value
                rhs += w[y] * value
    return lhs, rhs


def dense_dirichlet(ball, radius=None):
    """Dense eigensolve of M restricted to the ball interior (oracle)."""
    radius = ball.radius if radius is None else radius
    dist_full = ball.dist_full
    cand = np.nonzero(ball.dist <= radius)[0]
    rows = cand[(dist_full[ball.nbr[cand]] <= radius).all(axis=1)]
    if len(rows) == 0:
        return 0.0
    pos = {int(v): k for k, v in enumerate(rows)}
    width = ball.nbr.shape[1]
    mat = np.zeros((len(rows), len(rows)))
    for k, v in enumerate(rows):
        for t in ball.nbr[v]:
            j = pos.get(int(t))
            if j is not None:
                mat[k, j] += 1.0 / width
    return float(np.linalg.eigvalsh(mat).max())


def dense_embedded(g, subset):
    """Embedded spectral radius by one dense weighted eigensolve per orbit
    component of the subset (oracle): the lazy operator restricted to the
    component's interior points, symmetrised as W^1/2 M W^-1/2."""
    members = set(int(x) for x in subset)
    interior = {x for x in members if all(m.mapping.get(x, x) in members for m in g.maps)}
    best = 0.0
    seen = set()
    for start in sorted(members):
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for m in g.maps:
                y = m.mapping.get(x)
                if y is not None and y in members and y not in component:
                    component.add(y)
                    stack.append(y)
        seen |= component
        support = sorted(component & interior)
        if not support:
            continue
        pos = {x: k for k, x in enumerate(support)}
        mat = np.zeros((len(support), len(support)))
        for k, x in enumerate(support):
            for m in g.maps:
                j = pos.get(m.mapping.get(x, x))
                if j is not None:
                    mat[k, j] += 1.0 / g.n_maps
        root_w = np.sqrt(g.weights[support])
        sym = root_w[:, None] * mat / root_w[None, :]
        best = max(best, float(np.linalg.eigvals(sym).real.max()))
    return best


def all_reduced_words(d, max_len):
    """Every reduced word of length <= max_len, identity included."""
    words = [Word(())]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for letters in frontier:
            for letter in letters_of_rank(d):
                if letters and letters[-1] == -letter:
                    continue
                nxt.append(letters + (letter,))
        words.extend(Word(t) for t in nxt)
        frontier = nxt
    return words


def subgroup_closure(generators, max_len):
    """All subgroup elements of reduced length <= max_len reachable by
    generator products that never exceed that length (a lower bound on the
    true element set; sufficient when it matches expectations)."""
    gens = []
    for w in generators:
        gens.append(w)
        gens.append(w.inverse())
    seen = {Word(())}
    frontier = [Word(())]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if len(y) <= max_len and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def stabilizer_generators(oracle):
    """Schreier generators of a point stabilizer from its permutation action.

    Spanning-tree transversal words t_u; generators t_u s t_{u.s}^(-1).
    """
    letters = letters_of_rank(oracle.d)
    transversal = {oracle.root: Word(())}
    queue = [oracle.root]
    while queue:
        u = queue.pop(0)
        for letter in letters:
            v = oracle.act(letter, u)
            if v not in transversal:
                transversal[v] = transversal[u] * Word((letter,))
                queue.append(v)
    gens = []
    for u, t_u in transversal.items():
        for letter in letters:
            v = oracle.act(letter, u)
            word = t_u * Word((letter,)) * transversal[v].inverse()
            if not word.is_identity():
                gens.append(word)
    return gens


def ball_key(ball):
    """Canonical key of a rooted labeled ball: BFS indices are canonical, so
    the neighbor table itself is a labeled-isomorphism invariant."""
    return (ball.n_vertices, tuple(tuple(int(x) for x in row) for row in ball.nbr))


def brute_force_pair_components(o1, o2, points1, points2):
    """Union-find components of the full product action on explicit coset
    sets (for finite oracles)."""
    index = {}
    pairs = []
    for a in points1:
        for b in points2:
            index[(a, b)] = len(pairs)
            pairs.append((a, b))
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, (a, b) in enumerate(pairs):
        for letter in letters_of_rank(o1.d):
            target = index[(o1.act(letter, a), o2.act(letter, b))]
            ra, rb = find(k), find(target)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    sizes = {}
    for k in range(len(pairs)):
        r = find(k)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values())
