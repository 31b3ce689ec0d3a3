"""Independent computations the benchmark checks the package against.

Nothing here calls the package's algorithms: spectra come from dense
numpy eigen-solves of matrices built directly from tables and maps, and
partition invariants and path counts are recomputed by brute force.
"""

from __future__ import annotations

import math

import numpy as np


def radial_tree_value(radius: int) -> float:
    """Top Dirichlet eigenvalue of the 4-regular tree's B(R) interior.

    The interior is the ball of radius R-1; the top eigenvector is radial,
    and on unit sphere indicators the averaging operator is the R x R
    symmetric tridiagonal matrix with off-diagonals 1/2 (root to sphere 1)
    and then sqrt(3)/4.
    """
    mat = np.zeros((radius, radius))
    for k in range(radius - 1):
        mat[k, k + 1] = mat[k + 1, k] = 0.5 if k == 0 else math.sqrt(3.0) / 4.0
    return float(np.linalg.eigvalsh(mat).max())


def dense_nonbacktracking_alpha(table, d: int) -> float:
    """Perron root of the non-backtracking matrix on the directed edges of a
    folded automaton table (``table[u][slot]``, slots +1..+d then -1..-d)."""
    edges = [(u, s, t) for u, row in enumerate(table) for s, t in enumerate(row)
             if t is not None]
    if not edges:
        return 0.0
    m = len(edges)
    mat = np.zeros((m, m))
    for k, (_, s, head) in enumerate(edges):
        back = (s + d) % (2 * d)
        for k2, (tail2, s2, _) in enumerate(edges):
            if tail2 == head and s2 != back:
                mat[k, k2] = 1.0
    return float(np.abs(np.linalg.eigvals(mat)).max())


def dense_dirichlet(dist, nbr, radius: int) -> float:
    """Top eigenvalue of the averaging operator restricted to the interior
    of a ball, from its ``dist`` and ``nbr`` tables (targets at or past
    ``len(dist)`` lie outside the ball)."""
    n = len(dist)
    width = nbr.shape[1]
    rows = [v for v in range(n)
            if dist[v] <= radius and all(t < n and dist[t] <= radius for t in nbr[v])]
    if not rows:
        return 0.0
    pos = {v: k for k, v in enumerate(rows)}
    mat = np.zeros((len(rows), len(rows)))
    for k, v in enumerate(rows):
        for t in nbr[v]:
            j = pos.get(int(t))
            if j is not None:
                mat[k, j] += 1.0 / width
    return float(np.linalg.eigvalsh(mat).max())


def dense_embedded(weights, maps, subset) -> float:
    """Embedded spectral radius by dense eigen-solves: the top eigenvalue of
    the lazy averaging operator restricted to the interior of each orbit
    component of the subset, maximised over components (0 if all empty).

    ``maps`` is a list of dicts; the operator is weighted-symmetrised as
    W^1/2 M W^-1/2 so no symmetry of the map family is assumed.
    """
    members = set(int(x) for x in subset)
    n_maps = len(maps)
    interior = {x for x in members if all(m.get(x, x) in members for m in maps)}
    seen: set[int] = set()
    best = 0.0
    for start in sorted(members):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            x = queue.pop()
            for m in maps:
                y = m.get(x)
                if y is not None and y in members and y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        support = sorted(comp & interior)
        if not support:
            continue
        pos = {x: k for k, x in enumerate(support)}
        mat = np.zeros((len(support), len(support)))
        for k, x in enumerate(support):
            for m in maps:
                j = pos.get(m.get(x, x))
                if j is not None:
                    mat[k, j] += 1.0 / n_maps
        w = np.sqrt(np.asarray([weights[x] for x in support], dtype=float))
        sym = (w[:, None] * mat) / w[None, :]
        best = max(best, float(np.linalg.eigvals(sym).real.max()))
    return best


def rokhlin_invariants_hold(weights, maps, b_part, classes, delta: float) -> bool:
    """The three invariants of a Rokhlin partition: B and the classes
    partition the points, B weighs at most delta, and no map sends a point
    of a class to another point of the same class."""
    n = len(weights)
    label = np.full(n, -2, dtype=np.int64)
    for x in b_part:
        if label[x] != -2:
            return False
        label[x] = -1
    for c, cls in enumerate(classes):
        for x in cls:
            if label[x] != -2:
                return False
            label[x] = c
    if (label == -2).any():
        return False
    if b_part and float(np.asarray(weights)[list(b_part)].sum()) > delta:
        return False
    for m in maps:
        if not m:
            continue
        src = np.fromiter(m.keys(), dtype=np.int64)
        dst = np.fromiter(m.values(), dtype=np.int64)
        bad = (label[src] >= 0) & (label[src] == label[dst]) & (src != dst)
        if bad.any():
            return False
    return True


def naive_energy(weights, maps, f) -> float:
    """<(I - M) f, f> in the weighted inner product, by explicit loops."""
    total = 0.0
    for x in range(len(weights)):
        mfx = sum(f[m.get(x, x)] for m in maps) / len(maps)
        total += weights[x] * (f[x] - mfx) * f[x]
    return total


def reduced_letter_words(d: int, max_len: int) -> list[tuple[int, ...]]:
    """Every reduced letter tuple of length 1..max_len over +-1..+-d."""
    letters = tuple(range(1, d + 1)) + tuple(range(-1, -d - 1, -1))
    out: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = [w + (a,) for w in frontier for a in letters if not (w and w[-1] == -a)]
        out.extend(nxt)
        frontier = nxt
    return out
