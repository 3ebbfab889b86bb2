"""Interaction functionals A(h, s) and the network-lag aggregation.

Functions live as value arrays on a shared quadrature grid (last axis);
evaluations between nodes use linear interpolation with constant extension.
All operators are linear in the function argument by construction and are
immutable after construction.
"""

from __future__ import annotations

import numpy as np

from .basis import QuadratureGrid, interp_on_grid
from .errors import InvalidArgumentError

__all__ = [
    "InteractionOperator",
    "PointEval",
    "KernelIntegral",
    "PastWindow",
    "epanechnikov_kernel",
    "network_lag",
]


def epanechnikov_kernel(u, s):
    """Kernel 0.75 (1 - (u - s)^2); its maximum over the unit square is 0.75."""
    return 0.75 * (1.0 - (np.asarray(u) - np.asarray(s)) ** 2)


class InteractionOperator:
    """Base class: a known linear functional of a function, indexed by s."""

    def __init__(self, grid: QuadratureGrid):
        self.grid = grid

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.grid.count:
            raise InvalidArgumentError(
                f"function has {values.shape[-1]} grid values, operator grid has "
                f"{self.grid.count}"
            )
        return values

    def apply(self, values: np.ndarray, s: float):
        """A(h, s) for grid values of h (leading axes broadcast)."""
        raise NotImplementedError

    def apply_grid(self, values: np.ndarray) -> np.ndarray:
        """A(h, u_g) at every grid node; same shape as the input."""
        raise NotImplementedError

    def contraction_bound(self) -> float:
        """b with ||A(h, .)||_L2 <= b ||h||_L2."""
        raise NotImplementedError


class PointEval(InteractionOperator):
    """Concurrent interaction A(h, s) = h(s)."""

    def apply(self, values, s):
        return interp_on_grid(self._check(values), self.grid, float(s))

    def apply_grid(self, values):
        return self._check(values).copy()

    def contraction_bound(self):
        return 1.0


class KernelIntegral(InteractionOperator):
    """Integral interaction A(h, s) = integral of h(u) nu(u, s) du.

    The callable kernel nu(u, s) is tabulated on grid x grid at
    construction, so grid application is a single matrix product; off-grid
    evaluation points call the kernel directly.
    """

    def __init__(self, grid: QuadratureGrid, kernel):
        super().__init__(grid)
        self.kernel = kernel
        u = grid.points
        self.table = np.asarray(kernel(u[:, None], u[None, :]), dtype=float)  # [g_u, g_s]
        self._weighted = self.table * grid.weights[:, None]

    def apply(self, values, s):
        values = self._check(values)
        col = np.asarray(self.kernel(self.grid.points, float(s)), dtype=float)
        return values @ (col * self.grid.weights)

    def apply_grid(self, values):
        return self._check(values) @ self._weighted

    def contraction_bound(self):
        return float(np.max(np.abs(self.table)))


class PastWindow(InteractionOperator):
    """Backward-looking average of h over [max(0, s - width), s].

    Discretely, the average over the quadrature nodes inside the window
    (weights renormalized), so constants map to constants exactly and the
    operator is a sup-norm contraction. A window containing no node falls
    back to point evaluation.
    """

    def __init__(self, grid: QuadratureGrid, width: float):
        super().__init__(grid)
        if not 0.0 < width <= 1.0:
            raise InvalidArgumentError(f"window width must be in (0, 1], got {width}")
        self.width = float(width)
        cols = np.zeros((grid.count, grid.count))
        for g, s in enumerate(grid.points):
            cols[:, g] = self._window_weights(s)
        self._matrix = cols

    def _window_weights(self, s: float) -> np.ndarray:
        lo = max(0.0, s - self.width)
        mask = (self.grid.points >= lo) & (self.grid.points <= s)
        w = np.where(mask, self.grid.weights, 0.0)
        total = w.sum()
        if total <= 0.0:
            return np.zeros_like(w)
        return w / total

    def apply(self, values, s):
        values = self._check(values)
        w = self._window_weights(float(s))
        if w.sum() == 0.0:  # no node in the window: point-evaluation limit
            return interp_on_grid(values, self.grid, float(s))
        return values @ w

    def apply_grid(self, values):
        return self._check(values) @ self._matrix

    def contraction_bound(self):
        return 1.0


def network_lag(weights, values: np.ndarray) -> np.ndarray:
    """Aggregate neighbours' functions: row i gets sum_j w_ij * values_j.

    Parameters
    ----------
    weights : NetworkWeights
        Interaction matrix with zero diagonal.
    values : ndarray, shape (n, ...) with unit axis first
        One function (or stack of functions) per unit.
    """
    values = np.asarray(values, dtype=float)
    n = weights.n
    if values.shape[0] != n:
        raise InvalidArgumentError(
            f"value stack has {values.shape[0]} rows, network has {n} units"
        )
    flat = values.reshape(n, -1)
    out = weights.w @ flat
    return np.asarray(out).reshape(values.shape)
