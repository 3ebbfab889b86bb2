"""Interaction functionals A(h, s) and the network-lag aggregation.

Functions live as value arrays on a shared quadrature grid (last axis).
Each operator is one (G, G) matrix on that grid; evaluations between nodes
use linear interpolation with constant extension. All operators are linear
in the function argument by construction and are immutable after
construction.
"""

from __future__ import annotations

import numpy as np

from .basis import QuadratureGrid, interp_on_grid
from .errors import InvalidArgumentError, check_array_size

__all__ = [
    "InteractionOperator",
    "PointEval",
    "KernelIntegral",
    "PastWindow",
    "epanechnikov_kernel",
    "network_lag",
    "stationarity_margin",
]


def epanechnikov_kernel(u, s):
    """Kernel 0.75 (1 - (u - s)^2); its maximum over the unit square is 0.75."""
    return 0.75 * (1.0 - (np.asarray(u) - np.asarray(s)) ** 2)


class InteractionOperator:
    """A known linear functional of a function, indexed by s, held as its grid matrix.

    ``matrix[g_u, g_s]`` maps grid values of h to A(h, .) at the grid nodes;
    A(h, s) between nodes is the linear interpolant of those node values,
    the rule the moment design applies at its moment points. ``bound`` is b
    with ||A(h, .)||_L2 <= b ||h||_L2.
    """

    def __init__(self, grid: QuadratureGrid, matrix: np.ndarray | None, bound: float):
        self.grid = grid
        self.matrix = matrix
        self._bound = float(bound)

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.grid.count:
            raise InvalidArgumentError(
                f"function has {values.shape[-1]} grid values, operator grid has "
                f"{self.grid.count}"
            )
        return values

    def apply(self, values: np.ndarray, s):
        """A(h, s) for grid values of h (leading axes broadcast)."""
        return interp_on_grid(self.apply_grid(values), self.grid, s)

    def apply_grid(self, values: np.ndarray) -> np.ndarray:
        """A(h, u_g) at every grid node; same shape as the input."""
        return self._check(values) @ self.matrix

    def contraction_bound(self) -> float:
        """b with ||A(h, .)||_L2 <= b ||h||_L2."""
        return self._bound


class PointEval(InteractionOperator):
    """Concurrent interaction A(h, s) = h(s); the identity matrix is never formed."""

    def __init__(self, grid: QuadratureGrid):
        super().__init__(grid, None, 1.0)

    def apply_grid(self, values):
        return self._check(values).copy()


def _table(grid: QuadratureGrid) -> np.ndarray:
    """An empty (G, G) operator table, checked against ``MAX_ARRAY_BYTES``
    before any entry is computed."""
    G = grid.count
    check_array_size(f"grid count {G} needs a {G} x {G} operator table, "
                     "more memory than can be allocated", G, G)
    return np.empty((G, G))


class KernelIntegral(InteractionOperator):
    """Integral interaction A(h, s) = integral of h(u) nu(u, s) du.

    The callable kernel nu(u, s) is tabulated once on grid x grid (a table
    that does not depend on one argument is broadcast) and weighted by the
    quadrature rule. The bound is max |nu| over the table, which must be
    finite.
    """

    def __init__(self, grid: QuadratureGrid, kernel):
        matrix = _table(grid)
        u = grid.points
        table = np.broadcast_to(np.asarray(kernel(u[:, None], u[None, :]), dtype=float),
                                (grid.count, grid.count))  # [g_u, g_s]
        if not np.all(np.isfinite(table)):
            raise InvalidArgumentError("kernel is not finite on the grid")
        np.multiply(table, grid.weights[:, None], out=matrix)
        super().__init__(grid, matrix, np.max(np.abs(table)))


class PastWindow(InteractionOperator):
    """Backward-looking average of h over [max(0, s - width), s].

    Discretely, the average over the quadrature nodes inside the window
    (weights renormalized), so constants map to constants exactly and the
    operator is a sup-norm contraction. Every node lies in its own window,
    so no window on the grid is empty.
    """

    def __init__(self, grid: QuadratureGrid, width: float):
        if not 0.0 < width <= 1.0:
            raise InvalidArgumentError(f"window width must be in (0, 1], got {width}")
        self.width = float(width)
        u = grid.points
        matrix = _table(grid)  # every column is set below
        for g, s in enumerate(u):
            w = np.where((u >= max(0.0, s - self.width)) & (u <= s), grid.weights, 0.0)
            matrix[:, g] = w / w.sum()
        super().__init__(grid, matrix, 1.0)


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


def stationarity_margin(alpha: np.ndarray, operator: InteractionOperator, weights) -> float:
    """max|alpha| * ||W||_inf * operator contraction bound. Below 1 it suffices for the
    simultaneous system to have a stable solution and the network multiplier to converge."""
    return float(np.max(np.abs(alpha))) * weights.row_sup * operator.contraction_bound()
