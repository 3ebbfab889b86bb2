"""Orthonormal spline bases and the quadrature rule used for all inner products.

Every integral over the evaluation domain [0, 1] in this package is
approximated by the same finite sum over an equally spaced interior grid,
so internal consistency (orthonormality, projections) holds to rounding
even though the rule itself is only second-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedBasisError, InvalidArgumentError, check_array_size

__all__ = [
    "QuadratureGrid",
    "BasisSystem",
    "build_quadrature",
    "build_bspline_basis",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Equally spaced interior grid with uniform weights summing to one.

    Attributes
    ----------
    points : ndarray, shape (G,)
        Strictly increasing nodes in (0, 1), node l = (l+1)/(G+1).
    weights : ndarray, shape (G,)
        Uniform weights 1/G, so ``integrate`` approximates the integral
        over [0, 1].
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.points.size

    def integrate(self, values: np.ndarray) -> np.ndarray | float:
        """Integrate grid values over [0, 1] (last axis is the grid axis)."""
        return np.asarray(values) @ self.weights


def build_quadrature(count: int) -> QuadratureGrid:
    """Build the shared grid of ``count`` equally spaced interior points.

    Parameters
    ----------
    count : int
        Number of nodes G, at least 2. Nodes are l/(G+1) for l = 1..G with
        uniform weights 1/G. A count whose grid exceeds ``MAX_ARRAY_BYTES``
        raises ``InvalidArgumentError`` before anything is allocated.
    """
    if count < 2:
        raise InvalidArgumentError(f"quadrature needs at least 2 points, got {count}")
    check_array_size(f"grid count {count} needs more memory than can be allocated", count)
    points = np.arange(1, count + 1, dtype=float) / (count + 1)
    weights = np.full(count, 1.0 / count)
    return QuadratureGrid(points=points, weights=weights)


def interp_nodes(grid: QuadratureGrid, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-interpolation stencil at points s: left node indices and right weights.

    The value at s[i] is ``(1 - frac[i]) v[idx[i]] + frac[i] v[idx[i] + 1]``.
    Indices are clipped to the end intervals and weights to [0, 1], so the
    interpolant is constant beyond the end nodes.
    """
    x = grid.points
    idx = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
    frac = np.clip((s - x[idx]) / (x[idx + 1] - x[idx]), 0.0, 1.0)
    return idx, frac


def interp_on_grid(values: np.ndarray, grid: QuadratureGrid, s) -> np.ndarray:
    """Linearly interpolate grid values at s, constant beyond the end nodes.

    ``values`` may carry leading axes; the last axis must match the grid.
    """
    values = np.asarray(values, dtype=float)
    idx, frac = interp_nodes(grid, np.atleast_1d(np.asarray(s, dtype=float)))
    out = values[..., idx] * (1.0 - frac) + values[..., idx + 1] * frac
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return out[..., 0]
    return out


def _bspline_design(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Dense B-spline design matrix, shape (m, K_raw): row i holds every raw
    B-spline at x[i], which must lie in [knots[degree], knots[-degree - 1]].

    The Cox-de Boor recurrence (de Boor 1972, J. Approx. Theory 6) runs on all
    points at once, in the operation order of
    ``scipy.interpolate.BSpline.design_matrix``, so the result equals scipy's
    bit for bit. Point i falls in the span knots[ell] <= x[i] < knots[ell + 1]
    (the last span also takes its right end), where only the splines
    ell - degree .. ell are nonzero; spans must have positive length, as they
    do for clamped knots with distinct interior knots.
    """
    k = degree
    m, n = x.size, knots.size - k - 1
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, k, n - 1)
    near = knots[ell[:, None] + np.arange(1 - k, k + 1)]  # knots ell-k+1 .. ell+k
    x = x[:, None]
    h = np.ones((m, 1))
    for j in range(1, k + 1):
        lo, hi = near[:, k - j:k], near[:, k:k + j]
        w = h / (hi - lo)
        h = np.zeros((m, j + 1))
        h[:, :j] = w * (hi - x)
        h[:, 1:] += w * (x - lo)
    out = np.zeros((m, n))
    out[np.arange(m)[:, None], (ell - k)[:, None] + np.arange(k + 1)] = h
    return out


class BasisSystem:
    """K continuous basis functions, orthonormal under the grid inner product.

    The functions are linear combinations of a raw B-spline basis; the
    combination matrix is produced by modified Gram-Schmidt against the
    quadrature inner product, so ``gram_matrix()`` equals the identity to
    rounding on the system's own grid.
    """

    def __init__(self, knots: np.ndarray, degree: int, coeffs: np.ndarray,
                 quad: QuadratureGrid):
        self.knots = np.asarray(knots, dtype=float)
        self.degree = int(degree)
        self.coeffs = np.asarray(coeffs, dtype=float)  # (K, K_raw)
        self.quad = quad
        self.values_on_grid = self.eval_many(quad.points)  # (G, K), cached

    @property
    def size(self) -> int:
        """Number of basis functions K."""
        return self.coeffs.shape[0]

    def eval_many(self, s: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at an array of points, shape (m, K)."""
        s = np.asarray(s, dtype=float)
        if not np.all((s >= 0.0) & (s <= 1.0)):  # NaN fails both
            raise DomainError("basis evaluation points must lie in [0, 1]")
        return _bspline_design(np.atleast_1d(s), self.knots, self.degree) @ self.coeffs.T

    def eval(self, s: float) -> np.ndarray:
        """Evaluate all basis functions at one point, shape (K,)."""
        return self.eval_many(np.array([float(s)]))[0]

    def gram_matrix(self) -> np.ndarray:
        """Inner-product matrix of the basis under the system's quadrature."""
        v = self.values_on_grid
        return (v * self.quad.weights[:, None]).T @ v

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the quadrature-L2 projection of grid values."""
        return (self.values_on_grid * self.quad.weights[:, None]).T @ np.asarray(values)


def _gram_schmidt(raw: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthonormalize rows of ``raw`` (functions on the grid) in index order.

    Modified Gram-Schmidt with one re-orthogonalization pass. Returns the
    transform matrix C with orthonormal functions C @ raw.
    """
    k, g = raw.shape
    q = raw.copy()
    coeffs = np.eye(k)
    for i in range(k):
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for j in range(i):
                proj = np.sum(q[i] * q[j] * weights)
                q[i] -= proj * q[j]
                coeffs[i] -= proj * coeffs[j]
        norm = np.sqrt(np.sum(q[i] ** 2 * weights))
        if not np.isfinite(norm) or norm < 1e-10:
            raise IllConditionedBasisError(
                f"basis function {i} is numerically dependent on its predecessors"
            )
        q[i] /= norm
        coeffs[i] /= norm
    return coeffs


def build_bspline_basis(inner_knots: int, degree: int,
                        quad: QuadratureGrid) -> BasisSystem:
    """Construct K = inner_knots + degree + 1 orthonormal spline functions.

    Inner knots are equally spaced in (0, 1); boundary knots are repeated
    degree + 1 times. Orthonormalization is numerical, against the
    quadrature inner product.

    Raises
    ------
    IllConditionedBasisError
        If the grid is too coarse to resolve the splines (G < 2K).
    """
    if inner_knots < 0:
        raise InvalidArgumentError(f"inner knot count must be >= 0, got {inner_knots}")
    if degree < 0:
        raise InvalidArgumentError(f"spline degree must be >= 0, got {degree}")
    k_total = inner_knots + degree + 1
    if quad.count < 2 * k_total:
        raise IllConditionedBasisError(
            f"{quad.count} quadrature points cannot resolve {k_total} spline functions"
        )
    interior = np.arange(1, inner_knots + 1, dtype=float) / (inner_knots + 1)
    knots = np.concatenate([
        np.zeros(degree + 1),
        interior,
        np.ones(degree + 1),
    ])
    raw = _bspline_design(quad.points, knots, degree).T  # (K, G)
    coeffs = _gram_schmidt(raw, quad.weights)
    return BasisSystem(knots=knots, degree=degree, coeffs=coeffs, quad=quad)
