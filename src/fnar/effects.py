"""Network multiplier analysis: marginal effects, impulse responses, and the
risk key player, all as truncated propagation sums over walk lengths.

Each function takes alpha, a coefficient beta or a shock eta as finite values
on ``operator.grid``; for a fit, ``fit.alpha(operator.grid.points)``. A
propagation that overflows raises ``NumericalFailureError``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import QuadratureGrid
from .errors import InvalidArgumentError, NumericalFailureError, check_array_size
from .interaction import InteractionOperator
from .network import NetworkWeights

__all__ = [
    "PropagationResult",
    "gamma_power",
    "marginal_effects",
    "impulse_response",
    "total_impact",
    "total_impacts",
    "risk_key_player",
]


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


def _by_order(order: int, shape: tuple) -> np.ndarray:
    """An empty (order + 1, *shape) array, one row per walk length 0..order.

    It is checked against ``MAX_ARRAY_BYTES`` before any term is computed,
    so an order whose terms are too large fails at once, not after a long run.
    """
    if order < 0:
        raise InvalidArgumentError(f"truncation order must be non-negative, got {order}")
    check_array_size(f"truncation order {order} needs more memory than can be allocated",
                     order + 1, *shape)
    return np.empty((order + 1, *shape))


def _iterates(step, start: np.ndarray, order: int) -> np.ndarray:
    """Rows start, step(start), ..., step applied ``order`` times to start."""
    start = np.asarray(start, dtype=float)
    out = _by_order(order, start.shape)
    out[0] = start
    for ell in range(order):
        out[ell + 1] = step(out[ell])
    return out


def _grid_values(name: str, values: np.ndarray, operator: InteractionOperator) -> np.ndarray:
    """``values`` as floats, checked to be one finite value per grid point."""
    out = np.asarray(values, dtype=float)
    if out.shape != (operator.grid.count,):
        raise InvalidArgumentError(
            f"{name} must have {operator.grid.count} grid values, got shape {out.shape}"
        )
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError(f"{name} grid values must be finite")
    return out


def _gammas(alpha: np.ndarray, operator: InteractionOperator, h: np.ndarray,
            order: int) -> np.ndarray:
    """Rows Gamma^0(h), ..., Gamma^order(h) of the map h -> alpha(s) A(h, s)."""
    alpha = _grid_values("alpha", alpha, operator)
    return _iterates(lambda g: alpha * operator.apply_grid(g), h, order)


def gamma_power(alpha: np.ndarray, operator: InteractionOperator,
                h: np.ndarray, ell: int) -> np.ndarray:
    """Iterate h -> alpha(s) A(h, s) on the grid, ell times."""
    return _gammas(alpha, operator, _grid_values("h", h, operator), ell)[-1]


def _overflow(terms: np.ndarray) -> NumericalFailureError:
    """The error of a propagation whose sum is not finite, naming the first
    walk length (axis 0 of ``terms``) at which a partial sum is not."""
    finite = np.isfinite(np.cumsum(terms, axis=0)).reshape(len(terms), -1).all(axis=1)
    ell = int(np.argmin(finite)) if not finite.all() else len(terms) - 1
    return NumericalFailureError(f"the propagation is not finite from walk length {ell}: "
                                 "alpha, the shock or the weights are too large")


def _propagate(alpha: np.ndarray, operator: InteractionOperator,
               weights: NetworkWeights, unit: int, h: np.ndarray,
               order: int) -> PropagationResult:
    """Order-ell term (W^ell e_unit) x Gamma^ell(h) for ell = 0..order."""
    n = weights.n
    if not 0 <= unit < n:
        raise InvalidArgumentError(f"unit {unit} out of range for {n} units")
    per_order = _by_order(order, (n, operator.grid.count))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        gammas = _gammas(alpha, operator, h, order)
        reach = _iterates(weights.w.__matmul__, np.eye(1, n, unit)[0], order)
        np.multiply(reach[:, :, None], gammas[:, None, :], out=per_order)
        result = PropagationResult(per_order=per_order, quad=operator.grid)
        if not np.isfinite(result.cumulative).all():
            raise _overflow(per_order)
    return result


def marginal_effects(alpha: np.ndarray, operator: InteractionOperator,
                     weights: NetworkWeights, unit: int, beta: np.ndarray,
                     order: int = 5) -> PropagationResult:
    """Effect of raising one covariate of ``unit`` by one, by walk length.

    ``beta`` is that covariate's coefficient. Order 0 is the direct effect on
    the unit itself; order ell reaches its ell-step neighbours through
    repeated sparse products, never forming matrix powers.
    """
    beta = _grid_values("beta", beta, operator)
    return _propagate(alpha, operator, weights, unit, beta, order)


def impulse_response(alpha: np.ndarray, operator: InteractionOperator,
                     weights: NetworkWeights, unit: int, eta: np.ndarray,
                     order: int = 5) -> PropagationResult:
    """Response of all outcome functions to an error shock ``eta`` at one unit."""
    eta = _grid_values("eta", eta, operator)
    return _propagate(alpha, operator, weights, unit, eta, order)


def total_impact(result: PropagationResult) -> float:
    """Integrated aggregate response: sum over units of the integral of the sum."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        total = float(result.quad.integrate(result.cumulative).sum())
    if not np.isfinite(total):
        raise NumericalFailureError("the total impact is not finite: alpha, the shock or "
                                    "the weights are too large")
    return total


def total_impacts(alpha: np.ndarray, operator: InteractionOperator,
                  weights: NetworkWeights, eta: np.ndarray, order: int = 5) -> np.ndarray:
    """Total impact of a shock ``eta`` at each unit, all units in one propagation.

    Unit i's order-ell term is (W^ell e_i) x Gamma^ell(eta), so its total impact
    is sum_ell ((W')^ell 1)_i times the integral of Gamma^ell(eta), a factor
    shared by every unit. Entry i is ``total_impact(impulse_response(...))``
    for unit i, up to rounding.
    """
    eta = _grid_values("eta", eta, operator)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        integrals = operator.grid.integrate(_gammas(alpha, operator, eta, order))
        walks = _iterates(weights.w.T.__matmul__, np.ones(weights.n), order)
        impacts = integrals @ walks
        if not np.isfinite(impacts).all():
            raise _overflow(integrals[:, None] * walks)
    return impacts


def risk_key_player(alpha: np.ndarray, operator: InteractionOperator,
                    weights: NetworkWeights, eta: np.ndarray, order: int = 5) -> int:
    """Unit whose shock maximizes the total impact: the argmax of ``total_impacts``.

    Ties are broken on the computed values (lowest index among exactly equal
    ones); impacts equal up to rounding are not snapped to a tolerance.
    """
    return int(np.argmax(total_impacts(alpha, operator, weights, eta, order)))
