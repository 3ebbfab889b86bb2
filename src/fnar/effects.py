"""Network multiplier analysis: marginal effects, impulse responses, and the
risk key player, all as truncated propagation sums over walk lengths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import QuadratureGrid
from .errors import InvalidArgumentError
from .interaction import InteractionOperator
from .network import NetworkWeights

__all__ = [
    "ShockFunction",
    "PropagationResult",
    "gamma_power",
    "marginal_effects",
    "impulse_response",
    "total_impact",
    "total_impacts",
    "risk_key_player",
]


@dataclass
class ShockFunction:
    """An external shock path on the quadrature grid."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("shock values must be finite")


@dataclass
class PropagationResult:
    """Per-walk-length terms of a truncated propagation and their sum.

    ``per_order[ell]`` holds the order-ell term for every unit on the grid;
    ``cumulative`` is their exact sum, so successive partial sums can be
    reconstructed for response plots by walk length.
    """

    per_order: np.ndarray  # (S+1, n, G)
    quad: QuadratureGrid
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        self.per_order = np.asarray(self.per_order, dtype=float)
        self.cumulative = self.per_order.sum(axis=0)

    @property
    def order(self) -> int:
        return self.per_order.shape[0] - 1

    def partial(self, upto: int) -> np.ndarray:
        """Cumulative response truncated at walk length ``upto``."""
        return self.per_order[: upto + 1].sum(axis=0)


def _iterates(step, start: np.ndarray, order: int) -> np.ndarray:
    """Rows start, step(start), ..., step applied ``order`` times to start."""
    if order < 0:
        raise InvalidArgumentError(f"truncation order must be non-negative, got {order}")
    out = [np.asarray(start, dtype=float)]
    for _ in range(order):
        out.append(step(out[-1]))
    return np.stack(out)


def _gammas(alpha: np.ndarray, operator: InteractionOperator, h: np.ndarray,
            order: int) -> np.ndarray:
    """Rows Gamma^0(h), ..., Gamma^order(h) of the map h -> alpha(s) A(h, s)."""
    return _iterates(lambda g: alpha * operator.apply_grid(g), h, order)


def gamma_power(alpha: np.ndarray, operator: InteractionOperator,
                h: np.ndarray, ell: int) -> np.ndarray:
    """Iterate h -> alpha(s) A(h, s) on the grid, ell times."""
    return _gammas(np.asarray(alpha, dtype=float), operator, h, ell)[-1]


def _source_functions(source) -> tuple[np.ndarray, np.ndarray, InteractionOperator]:
    """Pull (alpha grid values, beta grid values, operator) from a fit or a truth config."""
    operator = getattr(source, "operator", None)
    if operator is not None:  # ground-truth configuration
        return source.alpha, source.beta, operator
    spec = getattr(source, "spec", None)
    if spec is None:
        raise InvalidArgumentError(
            "source must be a GmmFit or a DgpConfig-like object"
        )
    grid = spec.operator.grid
    alpha = source.alpha(grid.points)
    beta = np.stack([source.beta(j, grid.points) for j in range(source.d_x)])
    return alpha, beta, spec.operator


def _shock_values(eta, operator: InteractionOperator) -> np.ndarray:
    shock = eta.values if isinstance(eta, ShockFunction) else np.asarray(eta, dtype=float)
    if shock.shape != (operator.grid.count,):
        raise InvalidArgumentError(
            f"shock must have {operator.grid.count} grid values, got {shock.shape}"
        )
    return shock


def _propagate(alpha: np.ndarray, operator: InteractionOperator,
               weights: NetworkWeights, unit: int, h: np.ndarray,
               order: int) -> PropagationResult:
    """Order-ell term (W^ell e_unit) x Gamma^ell(h) for ell = 0..order."""
    n = weights.n
    if not 0 <= unit < n:
        raise InvalidArgumentError(f"unit {unit} out of range for {n} units")
    gammas = _gammas(alpha, operator, h, order)
    reach = _iterates(weights.w.__matmul__, np.eye(1, n, unit)[0], order)
    return PropagationResult(per_order=reach[:, :, None] * gammas[:, None, :],
                             quad=operator.grid)


def marginal_effects(source, weights: NetworkWeights, unit: int,
                     cov_index: int, order: int = 5) -> PropagationResult:
    """Effect of raising covariate ``cov_index`` of ``unit`` by one, by walk length.

    Order 0 is the direct effect on the unit itself; order ell reaches its
    ell-step neighbours through repeated sparse products, never forming
    matrix powers.
    """
    alpha, beta, operator = _source_functions(source)
    if beta is None or not 0 <= cov_index < beta.shape[0]:
        raise InvalidArgumentError(f"covariate index {cov_index} out of range")
    return _propagate(alpha, operator, weights, unit, beta[cov_index], order)


def impulse_response(source, weights: NetworkWeights, unit: int, eta,
                     order: int = 5) -> PropagationResult:
    """Response of all outcome functions to an error shock at one unit."""
    alpha, _, operator = _source_functions(source)
    return _propagate(alpha, operator, weights, unit, _shock_values(eta, operator), order)


def total_impact(result: PropagationResult) -> float:
    """Integrated aggregate response: sum over units of the integral of the sum."""
    return float(result.quad.integrate(result.cumulative).sum())


def total_impacts(source, weights: NetworkWeights, eta, order: int = 5) -> np.ndarray:
    """Total impact of a shock ``eta`` at each unit, all units in one propagation.

    Unit i's order-ell term is (W^ell e_i) x Gamma^ell(eta), so its total impact
    is sum_ell ((W')^ell 1)_i times the integral of Gamma^ell(eta), a factor
    shared by every unit. Entry i is ``total_impact(impulse_response(...))``
    for unit i, up to rounding.
    """
    alpha, _, operator = _source_functions(source)
    gammas = _gammas(alpha, operator, _shock_values(eta, operator), order)
    walks = _iterates(weights.w.T.__matmul__, np.ones(weights.n), order)
    return operator.grid.integrate(gammas) @ walks


def risk_key_player(source, weights: NetworkWeights, eta, order: int = 5) -> int:
    """Unit whose shock maximizes the total impact: the argmax of ``total_impacts``.

    Ties are broken on the computed values (lowest index among exactly equal
    ones); impacts equal up to rounding are not snapped to a tolerance.
    """
    return int(np.argmax(total_impacts(source, weights, eta, order)))
