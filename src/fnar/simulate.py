"""Panel generation by truncated Neumann iteration, including the benchmark
lattice design used throughout the simulation experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import QuadratureGrid, build_quadrature
from .errors import InvalidArgumentError, NonStationaryDgpError, check_array_size
from .interaction import (InteractionOperator, KernelIntegral, epanechnikov_kernel,
                          stationarity_margin)
from .network import NetworkWeights, build_lattice_weights

__all__ = [
    "FunctionalPanel",
    "DgpConfig",
    "NeumannResult",
    "neumann_solve",
    "simulate_mc_panel",
    "mc_alpha",
    "mc_beta",
    "mc_fixed_effects",
]


@dataclass
class FunctionalPanel:
    """Balanced panel of outcome functions and scalar covariates.

    Attributes
    ----------
    y : ndarray, shape (n, T, G)
        Outcome functions on the quadrature grid.
    x : ndarray, shape (n, T, d_x)
        Covariates, constant in the evaluation point.
    quad : QuadratureGrid
        Grid shared by all outcome functions.
    """

    y: np.ndarray
    x: np.ndarray
    quad: QuadratureGrid

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.ndim != 3 or self.x.ndim != 3:
            raise InvalidArgumentError("y must be (n, T, G) and x must be (n, T, d_x)")
        if self.y.shape[:2] != self.x.shape[:2]:
            raise InvalidArgumentError(
                f"y has units/periods {self.y.shape[:2]}, x has {self.x.shape[:2]}"
            )
        if self.y.shape[2] != self.quad.count:
            raise InvalidArgumentError(
                f"y has {self.y.shape[2]} grid values, grid has {self.quad.count}"
            )
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.x))):
            raise InvalidArgumentError("panel values must be finite")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def T(self) -> int:
        return self.y.shape[1]

    @property
    def d_x(self) -> int:
        return self.x.shape[2]


@dataclass
class DgpConfig:
    """Ground-truth configuration of the data-generating process.

    ``alpha``, ``beta`` and ``fixed_effects`` are grid values on
    ``operator.grid``. Construction verifies the stationarity margin
    max|alpha| * ||W||_inf * contraction_bound < 1
    (``interaction.stationarity_margin``), and raises ``NonStationaryDgpError`` otherwise.
    """

    alpha: np.ndarray
    beta: np.ndarray
    fixed_effects: np.ndarray
    operator: InteractionOperator
    weights: NetworkWeights

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        self.fixed_effects = np.asarray(self.fixed_effects, dtype=float)
        g = self.operator.grid.count
        if self.alpha.shape != (g,):
            raise InvalidArgumentError(
                f"alpha must have {g} grid values, got {self.alpha.shape}"
            )
        if self.beta.shape[1] != g or self.fixed_effects.shape != (self.weights.n, g):
            raise InvalidArgumentError(
                "beta and fixed_effects must live on the operator grid, one "
                "fixed-effect row per unit"
            )
        if (margin := stationarity_margin(self.alpha, self.operator, self.weights)) >= 1.0:
            raise NonStationaryDgpError(f"stationarity margin {margin:.4g} >= 1: the "
                                        "simultaneous system may have no stable solution")

    @property
    def d_x(self) -> int:
        return self.beta.shape[0]


class NeumannResult(NamedTuple):
    values: np.ndarray  # (n, G)
    iterations: int
    final_change: float


# Rows per block of the Neumann update: the alpha scaling, the rhs add and the
# change run over one block of units at a time, so that a block's values stay
# in cache between these passes (512 rows of a 99-point grid are 0.4 MB).
_ROW_BLOCK = 512

_TOL = 1e-3  # neumann_solve stops once an iteration changes no value by _TOL or more,
_MAX_ITER = 1000  # and fails after _MAX_ITER iterations


def neumann_solve(cfg: DgpConfig, rhs: np.ndarray) -> NeumannResult:
    """Solve Y = alpha(s) W A(Y, s) + rhs by fixed-point iteration.

    Iterates the partial sums of the Neumann series until the maximum
    change over units and grid points falls below ``_TOL``; more than
    ``_MAX_ITER`` iterations, or a non-finite value, raise ``NonStationaryDgpError``,
    unless ``rhs`` itself is not finite, which raises ``InvalidArgumentError``.
    ``rhs`` is only read; the returned values never share its memory.
    """
    rhs = np.asarray(rhs, dtype=float)
    w, apply_grid, alpha = cfg.weights.w, cfg.operator.apply_grid, cfg.alpha
    n = w.shape[0]
    if rhs.shape != (n, alpha.shape[0]):
        raise InvalidArgumentError(
            f"right-hand side must be (units, grid) = {(n, alpha.shape[0])}, got {rhs.shape}"
        )
    diff = np.empty((min(n, _ROW_BLOCK), rhs.shape[1]))
    blocks = [(slice(start, start + _ROW_BLOCK), rhs[start:start + _ROW_BLOCK],
               diff[: min(_ROW_BLOCK, n - start)]) for start in range(0, n, _ROW_BLOCK)]
    y = rhs
    for iteration in range(1, _MAX_ITER + 1):
        y_next = w @ apply_grid(y)  # a fresh array
        change = 0.0
        for rows, rhs_rows, step in blocks:
            block = y_next[rows]
            block *= alpha
            block += rhs_rows
            block_change = float(np.abs(np.subtract(block, y[rows], out=step), out=step).max())
            if not math.isfinite(block_change):
                if not np.isfinite(rhs).all():
                    raise InvalidArgumentError("right-hand side has non-finite values: "
                                               "an input of the system overflows")
                raise NonStationaryDgpError(
                    f"iteration diverged to non-finite values at step {iteration}"
                )
            if block_change > change:
                change = block_change
        y = y_next
        if change < _TOL:
            return NeumannResult(values=y, iterations=iteration, final_change=change)
    raise NonStationaryDgpError(
        f"no convergence within {_MAX_ITER} iterations (last change {change:.3g})"
    )


def _poly_error_paths(draws: np.ndarray, degrees: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Map coefficient draws (n, ..., 3) to paths sqrt(1+deg) (e1 + e2 s + e3 s^2).

    The unit axis comes first; a period's slice (n, 3) gives that period's
    (n, G) paths, the same values as its slice of the whole (n, T, G).
    """
    powers = np.vander(points, 3, increasing=True)  # (G, 3): 1, s, s^2
    paths = draws @ powers.T  # (n, ..., G)
    scale = np.sqrt(1.0 + degrees)
    paths *= scale.reshape(scale.shape + (1,) * (paths.ndim - 1))
    return paths


def mc_alpha(s) -> np.ndarray:
    """Benchmark interaction-effect function: normal density bump plus polynomial.

    The N(0.4, 0.5^2) density is written in the operation order of
    ``scipy.stats.norm.pdf``, so the values equal scipy's bit for bit.
    """
    s = np.asarray(s, dtype=float)
    z = (s - 0.4) / 0.5
    density = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / 0.5
    return density + 0.2 * s - 0.4 * s**2


def mc_beta(s, r: float) -> np.ndarray:
    """Benchmark coefficient function r (sqrt(1+s) + s (1-s))."""
    s = np.asarray(s, dtype=float)
    return r * (np.sqrt(1.0 + s) + s * (1.0 - s))


def mc_fixed_effects(n: int, s) -> np.ndarray:
    """Benchmark fixed effects 1 + cos(i s) for unit labels i = 1..n."""
    s = np.asarray(s, dtype=float)
    labels = np.arange(1, n + 1, dtype=float)
    return 1.0 + np.cos(labels[:, None] * s[None, :])


class _McParts(NamedTuple):
    """What every draw of one benchmark design shares: its grid, operator and
    truth. A draw only reads them."""

    n: int
    T: int
    quad: QuadratureGrid
    operator: KernelIntegral
    alpha: np.ndarray
    beta: np.ndarray  # (1, G)
    fixed_effects: np.ndarray


def _mc_parts(n: int, T: int, r: float, grid: QuadratureGrid | int = 99, *,
              alpha_scale: float = 1.0) -> _McParts:
    """The draw-independent parts of ``simulate_mc_panel``'s design, checked;
    ``grid`` is its quadrature grid, or the grid's point count, built after
    the checks."""
    if not (np.isfinite(r) and r > 0):
        raise InvalidArgumentError(f"covariate strength r must be positive and finite, got {r}")
    if not np.isfinite(alpha_scale):
        raise InvalidArgumentError(f"alpha scale must be finite, got {alpha_scale}")
    if T < 1:
        raise InvalidArgumentError(f"need at least one period, got T={T}")
    quad = build_quadrature(grid) if isinstance(grid, (int, np.integer)) else grid
    # every draw holds the (n, T, G) panel values
    check_array_size(f"n={n} and T={T} need {n} x {T} x {quad.count} panel values, "
                     "more memory than can be allocated", n, T, quad.count)
    return _McParts(n=n, T=T, quad=quad,
                    operator=KernelIntegral(quad, kernel=epanechnikov_kernel),
                    alpha=alpha_scale * mc_alpha(quad.points),
                    beta=mc_beta(quad.points, r)[None, :],
                    fixed_effects=mc_fixed_effects(n, quad.points))


def _draw_mc_panel(parts: _McParts, seed) -> tuple[FunctionalPanel, DgpConfig]:
    """One panel of the design ``parts`` from ``seed``'s lattice and shocks."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seed_net, seed_x, seed_eps = seq.spawn(3)
    n, T, quad = parts.n, parts.T, parts.quad

    weights = build_lattice_weights(n, np.random.default_rng(seed_net))
    cfg = DgpConfig(
        alpha=parts.alpha,
        beta=parts.beta,
        fixed_effects=parts.fixed_effects,
        operator=parts.operator,
        weights=weights,
    )

    x = np.random.default_rng(seed_x).normal(size=(n, T, 1))
    # heteroskedastic quadratic error paths, i.i.d. across units and periods,
    # of N(0, 0.4^2) coefficients, made one period at a time
    draws = np.random.default_rng(seed_eps).normal(0.0, 0.4, size=(n, T, 3))
    degrees = weights.degrees.astype(float)
    y = np.empty((n, T, quad.count))
    # an overflow is reported by neumann_solve's error, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            rhs = x[:, t, :] @ cfg.beta
            rhs += cfg.fixed_effects
            rhs += _poly_error_paths(draws[:, t, :], degrees, quad.points)
            y[:, t, :] = neumann_solve(cfg, rhs).values
    return FunctionalPanel(y=y, x=x, quad=quad), cfg


def simulate_mc_panel(n: int, T: int, r: float, seed, *, n_quad: int = 99,
                      alpha_scale: float = 1.0) -> tuple[FunctionalPanel, DgpConfig]:
    """Generate one panel from the benchmark design and return it with its truth.

    Lattice network, integral interaction with the 0.75 (1 - (u-s)^2) kernel,
    standard-normal scalar covariate, and the quadratic heteroskedastic
    error paths. ``alpha_scale`` rescales the interaction-effect function
    (useful for stationarity-violation experiments). The Neumann iteration
    stops at ``neumann_solve``'s fixed tolerance, and a non-stationary design
    raises ``NonStationaryDgpError``. ``r`` must be positive and finite,
    ``alpha_scale`` finite, ``T`` at least 1 and an integer ``seed``
    non-negative; a violation raises ``InvalidArgumentError``.
    """
    return _draw_mc_panel(_mc_parts(n, T, r, n_quad, alpha_scale=alpha_scale), seed)
