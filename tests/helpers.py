"""Shared test utilities: independent oracles kept deliberately naive.

Everything here recomputes quantities by brute force (union-find, dense
eigensolves, nested-loop quadratic forms, free-reduction closures) so the
production code paths are checked against genuinely different algorithms.
"""

from types import SimpleNamespace

import numpy as np

from cospectral.graphing import Graphing
from cospectral.schreier import reroot
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


def check_rokhlin(g, part, delta):
    """Exact verification of the three partition invariants: the classes
    and B cover every point once, B weighs at most delta, and no map moves
    a point outside B within its class."""
    covered = sorted(part.B + tuple(x for c in part.classes for x in c))
    if covered != list(range(g.n_points)):
        return False
    if part.B and float(g.weights[list(part.B)].sum()) > delta + 1e-12:
        return False
    label = np.full(g.n_points, -1, dtype=np.int64)  # -1 marks B
    for i, cls in enumerate(part.classes):
        label[list(cls)] = i
    moved = g.table != np.arange(g.n_points)[:, None]
    same_class = label[g.table] == label[:, None]
    return not (moved & same_class & (label >= 0)[:, None]).any()


def reference_single_map_classes(n, phi, cap):
    """Rokhlin class labels of one map by a dict walk (oracle): chain
    parity, fixed points, cycle phases.

    Returns (labels, long) where labels[x] is a hashable class key and
    ``long`` collects the points of odd cycles longer than the cap.
    """
    preimage = {v: u for u, v in phi.items()}
    steps_left = {}
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

    labels = {}
    long = set()
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


def reference_rokhlin(g, delta, class_cap=64):
    """(B, classes) of the Rokhlin partition by per-map dict walks and
    tuple-keyed grouping of the points outside B (oracle)."""
    all_labels = []
    long = set()
    for i, j in enumerate(g.inv_index):
        if i <= j:
            labels, points = reference_single_map_classes(g.n_points, g.maps[i].mapping, class_cap)
            all_labels.append(labels)
            long |= points
    b_part = tuple(sorted(long))
    if float(g.weights[list(b_part)].sum()) > delta:
        b_part = ()
    outside = sorted(set(range(g.n_points)).difference(b_part))
    keys = zip(*([lab[x] for x in outside] for lab in all_labels))
    groups = {}
    for x, key in zip(outside, keys):
        groups.setdefault(key, []).append(x)
    classes = sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])
    return b_part, tuple(classes)


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


def naive_markov(g, f):
    """Mf by a per-point, per-map dict walk (lazy slot convention)."""
    return np.array(
        [sum(f[m.mapping.get(x, x)] for m in g.maps) / g.n_maps for x in range(g.n_points)]
    )


def naive_energy(g, f):
    """<(I - M)f, f> with explicit loops over points."""
    w = g.weights
    mf = naive_markov(g, f)
    return sum(w[x] * (f[x] - mf[x]) * f[x] for x in range(g.n_points))


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


def conjugate(oracle, word):
    """Oracle of the conjugate subgroup H^w: the action rerooted at the
    coset root.w."""
    coset = oracle.root
    for letter in word.letters:
        coset = oracle.act(letter, coset)
    return reroot(oracle, coset)


def reference_ball(oracle, radius):
    """Naive BFS window (oracle): per-vertex BFS parents and a separate rim
    dict, renumbered after the ball at the end.  Returns the ball's ids,
    rim ids, distances, neighbor rows, ball index and a word per vertex."""
    letters = letters_of_rank(oracle.d)
    ids = [oracle.root]
    index = {oracle.root: 0}
    dist = [0]
    parents = [None]
    rim = {}
    rows = []
    for i, here in enumerate(ids):  # ids grows while iterating
        row = []
        for letter in letters:
            t = oracle.act(letter, here)
            if t in index:
                row.append(index[t])
            elif dist[i] < radius:
                index[t] = len(ids)
                ids.append(t)
                dist.append(dist[i] + 1)
                parents.append((i, letter))
                row.append(index[t])
            else:
                rim.setdefault(t, len(rim))
                row.append(("rim", rim[t]))
        rows.append(row)
    n = len(ids)
    nbr = np.array([[t if isinstance(t, int) else n + t[1] for t in row] for row in rows])
    words = []
    for i in range(n):
        path = []
        while parents[i] is not None:
            i, letter = parents[i]
            path.append(letter)
        words.append(Word(tuple(reversed(path))))
    return SimpleNamespace(
        ids=ids,
        outer_ids=list(rim),
        dist=np.array(dist),
        dist_full=np.array(dist + [radius + 1] * len(rim)),
        nbr=nbr,
        index=index,
        words=words,
    )


def reference_prefix_counts(ball, order):
    """|F_k S symmetric-difference F_k| for each prefix F_k of ``order`` by
    a per-vertex incremental loop (oracle): neighbor counts into F, plus
    running sizes of FS minus F and of F minus FS."""
    size = ball.n_vertices + ball.n_outer
    nbr_f = np.zeros(size, dtype=np.int64)
    in_f = np.zeros(size, dtype=bool)
    fs_not_f = 0
    f_no_nbr = 0
    counts = []
    for x in order:
        x = int(x)
        in_f[x] = True
        if nbr_f[x] >= 1:
            fs_not_f -= 1
        else:
            f_no_nbr += 1
        for t in ball.nbr[x]:
            nbr_f[t] += 1
            if nbr_f[t] == 1:
                if in_f[t]:
                    f_no_nbr -= 1
                else:
                    fs_not_f += 1
        counts.append(fs_not_f + f_no_nbr)
    return counts


def reference_sweep(ball, order):
    """Best prefix of ``order`` by exact Folner defect, kept as the
    incremental loop with a tolerant comparison; returns (defect, k)."""
    best = (np.inf, 0)
    for k, count in enumerate(reference_prefix_counts(ball, order), start=1):
        defect = count / k
        if defect < best[0] - 1e-15:
            best = (defect, k)
    return best


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
