"""Lower bound for the co-spectral radius, plus the cogrowth bridge.

The co-spectral radius of a subgroup is the norm of the Markov averaging
operator M over the symmetric generating set acting on square-summable
functions on the coset space.  Its certified lower bound here is the top
Rayleigh quotient of M over functions supported on the interior of a
finite ball (Dirichlet restriction), computed by restarted Lanczos
iteration with full reorthogonalisation from the constant vector.  It
dominates the return-probability bound on the same window: a walk that
returns within 2n steps never leaves B(n), so
p_{2n}(root, root)^(1/2n) is at most the Dirichlet value at radius n+1.

The solve applies one matvec, ``_neighbor_average``, hundreds of times, so
it reads its neighbor table slot-major: a ``(2d, n)`` copy made once per
operator, gathered with one ``take`` and summed over the leading axis, the
slots added in order, at every width.  The graphing Markov operator and
the embedded spectral radius share it, and the Dirichlet bound and the
embedded spectral radius share ``_restricted_top``: the solver, its start
vector and the restriction to a support of rows.  The solver's tolerance
and matvec cap are module constants.

For f.g. subgroups of free groups the cogrowth base alpha converts to the
exact co-spectral radius through the classical cogrowth formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .schreier import SchreierBall, _interior

__all__ = [
    "SpectralEstimate",
    "dirichlet_lower_bound",
    "dirichlet_vector",
    "grigorchuk_rho",
    "critical_exponent",
]


@dataclass
class SpectralEstimate:
    """A certified lower bound for the co-spectral radius: the Dirichlet
    value on the interior of the radius-``radius`` ball.

    ``iterations`` counts the solve's matvecs and ``residual`` is
    |M v - value v| for the returned vector.  The JSON record keeps the
    constant keys ``method`` ("dirichlet") and ``truncated`` (false), so
    its layout is stable.
    """

    value: float
    radius: int
    iterations: int
    residual: float
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "method": "dirichlet",
            "value": self.value,
            "radius": self.radius,
            "iterations": self.iterations,
            "residual": self.residual,
            "truncated": False,
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
# A solve stops once |A v - value v| <= _TOL, or after _MAX_MATVECS operator
# applications with the estimate flagged not converged.
_TOL = 1e-10
_MAX_MATVECS = 200_000


def _top_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray], size: int
) -> tuple[float, np.ndarray, int, float]:
    """Top eigenpair of a symmetric nonnegative operator on R^size by
    restarted Lanczos.

    The first cycle starts from the constant vector, which no nonnegative
    top eigenvector is orthogonal to, whatever the support's components.
    Each cycle runs Lanczos with full reorthogonalisation from the current
    vector and restarts from the top Ritz vector, taken entrywise in
    absolute value: for a nonnegative operator that never lowers the
    Rayleigh quotient.  Returns (value, unit vector, matvecs, residual)
    where value is the Rayleigh quotient of the returned vector, computed
    from a fresh operator application, so it is a certified lower bound for
    the top eigenvalue whether or not |A v - value v| reached ``_TOL``.
    ``matvecs`` counts operator applications and never exceeds
    ``_MAX_MATVECS``.
    """
    start = np.ones(size)
    v = start / np.linalg.norm(start)
    av = matvec(v)
    matvecs = 1
    basis = np.empty((min(_KRYLOV_DIM, len(v)), len(v)))
    while True:
        value = float(v @ av)
        residual = float(np.linalg.norm(av - value * v))
        if residual <= _TOL or matvecs >= _MAX_MATVECS:
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
            if j + 1 == len(basis) or beta <= _BREAKDOWN * scale or matvecs >= _MAX_MATVECS - 1:
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
    functions vanish.  The table is kept as a slot-major ``(width, n)``
    copy, so a matvec is one ``take`` of contiguous columns and a sum over
    the leading axis, which adds each row's slots in order from the first.
    Below 8 columns that is also how numpy adds a row, so the bits are
    those of ``padded[table].sum(axis=1)``.
    """
    padded = np.zeros(len(table) + 1)
    width = table.shape[1]
    columns = np.ascontiguousarray(table.T)

    def matvec(x: np.ndarray) -> np.ndarray:
        padded[:-1] = x
        return np.add.reduce(padded.take(columns), axis=0) / width

    return matvec


def _restricted_top(table: np.ndarray, rows: np.ndarray, size: int) -> tuple[float, np.ndarray, int, float]:
    """``_top_eigenpair`` of the averaging operator on functions supported
    on ``rows``: ``table`` holds the neighbors of all ``size`` points, and
    neighbors outside the support read zero."""
    local = np.full(size, len(rows))
    local[rows] = np.arange(len(rows))
    return _top_eigenpair(_neighbor_average(local[table[rows]]), len(rows))


def dirichlet_vector(
    ball: SchreierBall, radius: int | None = None
) -> tuple[SpectralEstimate, np.ndarray, np.ndarray]:
    """Dirichlet eigen-solve; also returns the nonnegative unit vector whose
    Rayleigh quotient is the estimate, and its support rows.

    The Rayleigh quotient is a certified lower bound whether or not the
    solve converged.  The solve starts from the constant vector on the
    interior rows.  On a covered finite orbit (every vertex interior) that
    vector is the top eigenvector, so one matvec ends the solve with value
    1.  On a tree ball it is radial, so the Krylov space is the radial
    functions and the solve ends after radius + 1 matvecs.
    """
    r = ball.radius if radius is None else radius
    if r < 1:
        raise ValidationError(f"dirichlet bound needs ball radius >= 1, got {r}")
    if r > ball.radius:
        raise ValidationError(f"requested radius {r} exceeds ball radius {ball.radius}")
    size = ball.n_vertices + ball.n_outer
    rows = _interior(ball.nbr, np.flatnonzero(ball.dist <= r), size)
    value, v, iterations, residual = _restricted_top(ball.nbr, rows, size)
    flags = () if residual <= _TOL else ("not_converged",)
    estimate = SpectralEstimate(min(value, 1.0), r, iterations, residual, flags)
    return estimate, v, rows


def dirichlet_lower_bound(ball: SchreierBall, radius: int | None = None) -> SpectralEstimate:
    """Top Rayleigh quotient of M over functions supported on the interior
    of the radius-R ball: a certified lower bound for the co-spectral radius.

    Passing ``radius`` < ball.radius restricts to the sub-ball (the sub-ball
    of a ball is the ball of that radius, so estimates at several radii can
    share one BFS).
    """
    estimate, _, _ = dirichlet_vector(ball, radius)
    return estimate


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


def critical_exponent(alpha: float) -> float | None:
    """Critical exponent delta = ln(alpha); None for the trivial subgroup."""
    alpha = float(alpha)
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    return math.log(alpha) if alpha > 0 else None
