"""Lower-bound estimators for the co-spectral radius, plus the cogrowth bridge.

The co-spectral radius of a subgroup is the norm of the Markov averaging
operator M over the symmetric generating set acting on square-summable
functions on the coset space.  Two certified lower bounds are provided:

* the top Rayleigh quotient of M over functions supported on the interior
  of a finite ball (Dirichlet restriction), computed by restarted Lanczos
  iteration with full reorthogonalisation, and
* return probabilities, p_{2n}(root, root)^(1/2n) <= rho by self-adjointness.

For f.g. subgroups of free groups the cogrowth base alpha converts to the
exact co-spectral radius through the classical cogrowth formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ValidationError
from .stallings import CogrowthResult
from .words import letters_of_rank

if TYPE_CHECKING:  # pragma: no cover
    from .schreier import SchreierBall, SubgroupOracle

__all__ = [
    "SpectralEstimate",
    "dirichlet_lower_bound",
    "dirichlet_vector",
    "return_probability_bound",
    "grigorchuk_rho",
    "critical_exponent",
]

DEFAULT_STATE_CAP = 5_000_000


@dataclass
class SpectralEstimate:
    """A certified lower bound for the co-spectral radius.

    ``radius`` is the ball radius for the Dirichlet method and the
    truncation radius for the return-probability method.  ``iterations``
    counts operator applications: matvecs of the Dirichlet solve, or the
    2n walk steps of the return-probability method.
    """

    value: float
    method: str
    radius: int
    iterations: int
    residual: float
    truncated: bool
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "radius": self.radius,
            "iterations": self.iterations,
            "residual": self.residual,
            "truncated": self.truncated,
            "flags": list(self.flags),
        }


# Krylov basis rows, allocated once per solve; each restart cycle is capped
# at this many steps.  Every row is a vector over the whole interior, so a
# longer basis trades peak memory on big windows for fewer restarts.
_KRYLOV_DIM = 32
# A Lanczos step whose new direction keeps less than this share of |A q|
# after reorthogonalisation has hit an invariant subspace.  The test must
# be relative to |A q|: what survives an exact breakdown is rounding noise
# on the scale of |A q|, and normalising it into the basis wrecks the Ritz
# vector.
_BREAKDOWN = 1e-12


def _top_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int = 200_000,
) -> tuple[float, np.ndarray, int, float]:
    """Top eigenpair of a symmetric nonnegative operator by restarted Lanczos.

    Each cycle runs Lanczos with full reorthogonalisation from the current
    vector and restarts from the top Ritz vector, taken entrywise in
    absolute value: for a nonnegative operator that never lowers the
    Rayleigh quotient.  Returns (value, unit vector, matvecs, residual)
    where value is the Rayleigh quotient of the returned vector, computed
    from a fresh operator application, so it is a certified lower bound for
    the top eigenvalue whether or not |A v - value v| reached ``tol``.
    ``matvecs`` counts operator applications and never exceeds
    ``max_iterations``.
    """
    v = start / np.linalg.norm(start)
    av = matvec(v)
    matvecs = 1
    basis = np.empty((min(_KRYLOV_DIM, len(v)), len(v)))
    while True:
        value = float(v @ av)
        residual = float(np.linalg.norm(av - value * v))
        if residual <= tol or matvecs >= max_iterations:
            return value, v, matvecs, residual
        basis[0] = v
        w = av
        alphas: list[float] = []
        betas: list[float] = []
        for j in range(len(basis)):
            if j:
                w = matvec(basis[j])
                matvecs += 1
            scale = float(np.linalg.norm(w))
            q = basis[: j + 1]
            coef = q @ w
            w = w - coef @ q
            again = q @ w  # second Gram-Schmidt pass keeps the basis orthonormal
            w -= again @ q
            alphas.append(float(coef[j] + again[j]))
            beta = float(np.linalg.norm(w))
            if j + 1 == len(basis) or beta <= _BREAKDOWN * scale or matvecs >= max_iterations - 1:
                break
            betas.append(beta)
            basis[j + 1] = w / beta
        ritz = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        _, vectors = np.linalg.eigh(ritz)
        v = np.abs(vectors[:, -1] @ basis[: len(alphas)])
        v /= np.linalg.norm(v)
        av = matvec(v)
        matvecs += 1


def _neighbor_average(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Matvec of the averaging operator over the columns of ``table``.

    ``table[i, k]`` is the local index of row i's k-th neighbor; index
    ``len(table)`` stands for every neighbor outside the support, where
    functions vanish.
    """
    padded = np.zeros(len(table) + 1)
    width = table.shape[1]

    def matvec(x: np.ndarray) -> np.ndarray:
        padded[:-1] = x
        return padded[table].sum(axis=1) / width

    return matvec


def _interior_rows(ball: "SchreierBall", radius: int) -> np.ndarray:
    """Ball vertices within ``radius`` all of whose neighbors stay within."""
    dist_full = ball.dist_full
    cand = np.nonzero(ball.dist <= radius)[0]
    ok = (dist_full[ball.nbr[cand]] <= radius).all(axis=1)
    return cand[ok]


def dirichlet_vector(
    ball: "SchreierBall",
    radius: int | None = None,
    tol: float = 1e-10,
    max_iterations: int = 200_000,
) -> tuple[SpectralEstimate, np.ndarray, np.ndarray]:
    """Dirichlet eigen-solve; also returns the nonnegative unit vector whose
    Rayleigh quotient is the estimate, and its support rows.

    The Rayleigh quotient is a certified lower bound whether or not the
    solve converged.  The solve starts from the root indicator, so on the
    tree its Krylov space is the radial functions and it ends after about
    radius steps.
    """
    r = ball.radius if radius is None else radius
    if r < 1:
        raise ValidationError(f"dirichlet bound needs ball radius >= 1, got {r}")
    if r > ball.radius:
        raise ValidationError(f"requested radius {r} exceeds ball radius {ball.radius}")
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if max_iterations < 1:
        raise ValidationError("iteration cap must be >= 1")
    rows = _interior_rows(ball, r)
    local = np.full(ball.n_vertices + ball.n_outer, len(rows))
    local[rows] = np.arange(len(rows))
    start = np.zeros(len(rows))
    start[0] = 1.0  # row 0 is the root: its neighbors lie within radius 1 <= r
    value, v, iterations, residual = _top_eigenpair(
        _neighbor_average(local[ball.nbr[rows]]), start, tol, max_iterations
    )
    flags = () if residual <= tol else ("not_converged",)
    estimate = SpectralEstimate(min(value, 1.0), "dirichlet", r, iterations, residual, False, flags)
    return estimate, v, rows


def dirichlet_lower_bound(
    ball: "SchreierBall",
    tol: float = 1e-10,
    max_iterations: int = 200_000,
    radius: int | None = None,
) -> SpectralEstimate:
    """Top Rayleigh quotient of M over functions supported on the interior
    of the radius-R ball: a certified lower bound for the co-spectral radius.

    Passing ``radius`` < ball.radius restricts to the sub-ball (the sub-ball
    of a ball is the ball of that radius, so estimates at several radii can
    share one BFS).
    """
    estimate, _, _ = dirichlet_vector(ball, radius=radius, tol=tol, max_iterations=max_iterations)
    return estimate


def return_probability_bound(
    oracle: "SubgroupOracle",
    n: int,
    truncation_radius: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SpectralEstimate:
    """p_{2n}(root, root)^(1/2n), from exact distribution-vector iteration.

    States are tracked out to ``truncation_radius`` (default n); mass walking
    beyond it is dropped, which only lowers the return probability, so the
    result remains a valid lower bound and is flagged truncated.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    trunc = n if truncation_radius is None else truncation_radius
    if trunc < 0:
        raise ValidationError("truncation radius must be >= 0")
    letters = letters_of_rank(oracle.d)
    share_factor = 1.0 / len(letters)
    act = oracle.act
    root = oracle.root

    probs = {root: 1.0}
    dist = {root: 0}
    truncated = False
    steps = 2 * n
    for _ in range(steps):
        nxt: dict = {}
        for coset, p in probs.items():
            share = p * share_factor
            dc = dist[coset]
            for letter in letters:
                t = act(letter, coset)
                dt = dist.get(t)
                if dt is None:
                    dt = dc + 1
                    if dt > trunc or len(dist) >= state_cap:
                        truncated = True
                        continue
                    dist[t] = dt
                nxt[t] = nxt.get(t, 0.0) + share
        probs = nxt
    p_return = probs.get(root, 0.0)
    value = p_return ** (1.0 / steps) if p_return > 0 else 0.0
    flags = () if p_return > 0 else ("zero_return_probability",)
    return SpectralEstimate(value, "return_probability", trunc, steps, 0.0, truncated, flags)


def grigorchuk_rho(alpha: float, d: int) -> float:
    """Co-spectral radius of a subgroup of F_d from its cogrowth base.

    Below the branch point sqrt(2d-1) the value sits at the regular-tree
    bottom sqrt(2d-1)/d; above it, rho = (alpha + (2d-1)/alpha) / (2d).
    Continuous at the branch point; equals 1 exactly at alpha = 2d-1.
    """
    if d < 2:
        raise ValidationError(f"cogrowth formula needs rank d >= 2, got {d}")
    alpha = float(alpha)
    top = 2 * d - 1
    if alpha < 0:
        if alpha < -1e-12:
            raise ValidationError(f"alpha must be >= 0, got {alpha}")
        alpha = 0.0
    if alpha > top:
        if alpha > top + 1e-9:
            raise ValidationError(f"alpha must be <= 2d-1 = {top}, got {alpha}")
        alpha = float(top)
    branch = math.sqrt(top)
    if alpha <= branch:
        return branch / d
    return (alpha + top / alpha) / (2 * d)


def critical_exponent(cogrowth: CogrowthResult | float) -> float | None:
    """Critical exponent delta = ln(alpha); None for the trivial subgroup."""
    alpha = cogrowth.alpha if isinstance(cogrowth, CogrowthResult) else float(cogrowth)
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    return math.log(alpha) if alpha > 0 else None
