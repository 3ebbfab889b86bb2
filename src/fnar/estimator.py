"""Integrated-GMM estimation of the interaction-effect and coefficient functions.

The moment conditions combine instrument orthogonality (linear in the
coefficient block) with zero-diagonal quadratic forms of first-differenced
residuals, evaluated on a grid of points and averaged. First differences
are always computed directly between adjacent periods; the one-period lag
operator is never materialized outside the test oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .basis import BasisSystem, interp_nodes
from .errors import (
    CannotDifferenceError,
    InvalidArgumentError,
    NumericalFailureError,
    SmallTWarning,
    UnderidentificationWarning,
    UnderidentifiedError,
    VarianceUnavailableError,
    check_array_size,
)
from .interaction import InteractionOperator, network_lag
from .network import NetworkWeights, build_quadratic_weights
from .simulate import FunctionalPanel

__all__ = [
    "MomentSpec",
    "GmmFit",
    "build_instruments",
    "moment_function",
    "moment_jacobian",
    "fit_2sls",
    "fit_gmm",
    "estimate_fixed_effects",
    "estimate_variance",
    "fit_report_text",
    "functional_estimate_table",
]

_SV_FLOOR = 1e-10
# bytes of a fit stage's temporary (one row at least): the rows of s_z a design sums at
# once, the units whose A(W y) it forms at once, the variance's pairs summed at once
_CHUNK_BYTES = 1 << 18
ESTIMATORS = ("gmm1", "gmm2", "2sls")  # block-weight GMM, identity-weight GMM, 2SLS
CI_Z = 1.959963984540054  # two-sided 95% normal quantile

# Optimiser settings of fit_gmm's one run: Gauss-Newton iterations per stage
# and the gradient-norm tolerance. A run that ends without converging is
# reported (``stop_reason``, ``grad_norm``), not restarted.
_MAX_ITER = 200
_GRAD_TOL = 1e-10
_CONVERGED_STOPS = ("grad_tol", "no_descent")


@dataclass
class MomentSpec:
    """Everything the moment conditions need besides the panel itself.

    One spec fixes one moment design; the weight matrix is chosen per fit
    (``fit_gmm``'s ``estimator``).

    Attributes
    ----------
    basis : BasisSystem
        Shared basis for the interaction-effect and coefficient functions.
    operator : InteractionOperator
        The known linear functional applied to aggregated outcomes.
    weights : NetworkWeights
        Interaction matrix, the source of the instrument lags and of the
        quadratic-moment matrices.
    n_points : int
        Number L of moment-grid points l/(L+1), l = 1..L; at least the basis
        size K, since the instrument second moment has rank at most d_b L.
    iv_exclude : tuple of int
        Covariate indices excluded from instrument construction (they
        still instrument themselves), each at most once.
    quad_mats : list of scipy.sparse.csr_array
        Built from ``weights`` by ``build_quadratic_weights``, not an
        argument: the quadratic-moment matrices P1 = (W + W')/2 and P2 = W'W
        less its diagonal, from scipy's sparse sum and product.
    """

    basis: BasisSystem
    operator: InteractionOperator
    weights: NetworkWeights
    n_points: int = 10
    iv_exclude: tuple[int, ...] = ()
    quad_mats: list[sp.csr_array] = field(init=False)

    def __post_init__(self):
        if self.n_points < self.basis.size:
            raise InvalidArgumentError(
                f"need at least as many moment points as basis functions, "
                f"got L={self.n_points}, K={self.basis.size}")
        repeated = [j for k, j in enumerate(self.iv_exclude) if j in self.iv_exclude[:k]]
        if repeated:
            raise InvalidArgumentError(
                f"excluded covariate index {repeated[0]} is repeated, got {self.iv_exclude}")
        self.quad_mats = build_quadratic_weights(self.weights)

    @property
    def points(self) -> np.ndarray:
        """Moment-grid points, strictly interior and equally spaced."""
        L = self.n_points
        return np.arange(1, L + 1, dtype=float) / (L + 1)


def build_instruments(panel: FunctionalPanel, spec: MomentSpec) -> np.ndarray:
    """(n, T, d_q + d_x) instrument rows: the network lags W X and W^2 X of the
    covariates (W is ``spec.weights``), then the covariates.

    Covariates listed in ``spec.iv_exclude`` contribute no lags; an index
    outside 0..d_x-1 raises ``InvalidArgumentError``. The full
    covariate vector is always appended, so the row layout is (Q_it', X_it')'.
    """
    for j in spec.iv_exclude:
        if not 0 <= j < panel.d_x:
            raise InvalidArgumentError(
                f"excluded covariate index {j} is outside 0..{panel.d_x - 1}")
    included = [j for j in range(panel.d_x) if j not in set(spec.iv_exclude)]
    if not included:
        raise UnderidentifiedError("every covariate is excluded from instrument construction")
    lag1 = network_lag(spec.weights, panel.x[:, :, included])
    q = np.concatenate([lag1, network_lag(spec.weights, lag1)], axis=2)
    if np.all(q == 0.0):
        warnings.warn(
            "all network-lagged instruments are identically zero",
            UnderidentificationWarning,
        )
    return np.concatenate([q, panel.x], axis=2)


def _period_differences(values: np.ndarray) -> np.ndarray:
    """Differences of adjacent periods, time axis first: (n, T, ...) to a C-ordered
    (T-1, n, ...), so products of them come out C-ordered too."""
    by_period = np.swapaxes(values, 0, 1)
    return np.subtract(by_period[1:], by_period[:-1], order="C")


class _Aggregates(NamedTuple):
    """Moment aggregates: linear moments a - A theta, quadratic moments
    c_m - 2 b_m theta + theta' C_m theta. Leading axes (the moment grid of
    the per-point aggregates) carry through both methods."""

    a: np.ndarray  # (..., d_z)
    A: np.ndarray  # (..., d_z, d_theta)
    c: np.ndarray  # (..., M)
    b: np.ndarray  # (..., M, d_theta)
    C: np.ndarray  # (..., M, d_theta, d_theta)

    def moments(self, theta: np.ndarray) -> np.ndarray:
        lin = self.a - self.A @ theta
        quad = self.c - 2.0 * self.b @ theta + np.einsum(
            "...mkj,k,j->...m", self.C, theta, theta
        )
        return np.concatenate([lin, quad], axis=-1)

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        quad_rows = -2.0 * (self.b - np.einsum("...mkj,j->...mk", self.C, theta))
        return np.concatenate([-self.A, quad_rows], axis=-2)


class _Design:
    """Per-moment-point arrays and the aggregates the objective needs.

    Residual components are grid functions: at a moment point between
    nodes, the regressor block R(s) (x) phi(s) and the outcome are linear
    interpolations of their node values, so a panel that satisfies the
    model exactly on the grid has exactly zero differenced residuals at
    every moment point. Instrument rows use the basis evaluated exactly
    (instruments only need exogeneity, not grid consistency).

    All stored moment pieces carry the 1/(n(T-1)) normalization. The
    ``mean`` aggregates are additionally averaged over the moment grid; the
    ``per_point`` ones keep the grid axis. Nothing here depends on the
    weight matrix, so fits on one spec that differ only in it share a design.

    The aggregates are summed one moment point at a time, so one point's
    instrument and regressor rows exist at a time. ``s_z`` is one sequential
    sum over every (point, period, unit), added a chunk of rows at a time.
    A(W y) is formed a block of units at a time. ``_CHUNK_BYTES`` sizes the
    chunks and blocks. Afterwards the design keeps the
    outcome differences at the moment points (``dy``) and the factors of the
    rows: the differenced instruments, the basis at the moment points, the
    differenced aggregated outcomes at the grid nodes the stencil reads and
    the covariate differences. ``rows`` rebuilds one point's rows from them,
    bit for bit.
    """

    @np.errstate(over="ignore", invalid="ignore")  # non-finite aggregates raise below
    def __init__(self, panel: FunctionalPanel, spec: MomentSpec):
        if panel.T < 2:
            raise CannotDifferenceError(
                f"first differencing needs at least 2 periods, got T={panel.T}"
            )
        self.panel = panel
        self.spec = spec
        n, T, d_x = panel.n, panel.T, panel.d_x
        K = spec.basis.size
        self._db = _period_differences(build_instruments(panel, spec))
        self.d_theta = (1 + d_x) * K
        self.d_z = self._db.shape[2] * K
        self.M = len(spec.quad_mats)
        self.d_g = self.d_z + self.M
        L = spec.n_points
        self.n_obs = n * (T - 1)
        # dy and the per-point A and C, which grow with L, checked before the L points are made
        for shape in ((L, T - 1, n), (L, self.d_z, self.d_theta),
                      (L, self.M, self.d_theta, self.d_theta)):
            check_array_size(f"{L} moment points need {' x '.join(map(str, shape))} design "
                             "values, more memory than can be allocated", *shape)
        points = spec.points

        self._phi = spec.basis.eval_many(points)  # (L, K)
        norm = 1.0 / self.n_obs
        self._g0, self._lam = interp_nodes(panel.quad, points)
        # differences at the nodes the stencil reads; g0 and g0 + 1 are adjacent
        # columns there, and column self._col[l] holds node g0[l]
        nodes = np.unique(np.concatenate([self._g0, self._g0 + 1]))
        self._col = np.searchsorted(nodes, self._g0)
        self._d_ay = np.empty((T - 1, n, nodes.size))
        # A(W y) a block of units at a time: each row of W y is its own sum, and the
        # operator's (units, T, G) @ (G, G) product runs one GEMM per unit, so the
        # blocks give the bits of the whole product
        w, flat = spec.weights.w, panel.y.reshape(n, -1)
        block = max(1, _CHUNK_BYTES // flat[0].nbytes)
        for start in range(0, n, block):
            stop = min(start + block, n)
            lag = (w if stop - start == n else w[start:stop]) @ flat
            ay = spec.operator.apply_grid(lag.reshape(stop - start, T, -1))
            self._d_ay[:, start:stop] = _period_differences(ay[:, :, nodes])
        del lag, ay
        self._d_x = _period_differences(panel.x)  # (T-1, n, d_x)
        self.dy = self._at_points(_period_differences(panel.y[:, :, nodes]))  # (L, T-1, n)

        dz = np.empty((T - 1, n, self.d_z))  # point l's instrument rows
        dh = np.empty((T - 1, n, self.d_theta))  # and its regressor rows
        units = np.empty((n, T - 1, 1 + self.d_theta))
        self.per_point = agg = _Aggregates(
            a=np.empty((L, self.d_z)), A=np.empty((L, self.d_z, self.d_theta)),
            c=np.empty((L, self.M)), b=np.empty((L, self.M, self.d_theta)),
            C=np.empty((L, self.M, self.d_theta, self.d_theta)))
        # s_z is one sequential sum over (point, obs), which fixes its bits. Rows are
        # gathered, across points while they fit, and added as einsum("nz,nt->zt",
        # [I; rows], [s_z; rows]): the identity rows against the running sum give it
        # back exactly, ahead of the rows' terms
        step = max(1, _CHUNK_BYTES // (8 * self.d_z))
        eye_rows, sum_rows = np.empty((2, self.d_z + step, self.d_z))
        eye_rows[:self.d_z], sum_rows[:self.d_z] = np.eye(self.d_z), 0.0
        end = self.d_z  # rows of the buffers in use
        for l in range(L):
            self.rows(l, out=(dz, dh))
            zf = dz.reshape(self.n_obs, self.d_z)
            for start in range(0, self.n_obs, step):
                rows = zf[start:start + step]
                eye_rows[end:end + len(rows)] = sum_rows[end:end + len(rows)] = rows
                end += len(rows)
                last = l == L - 1 and start + step >= self.n_obs
                if last or end + min(step, self.n_obs) > self.d_z + step:  # next rows may not fit
                    sum_rows[:self.d_z] = np.einsum("nz,nt->zt", eye_rows[:end], sum_rows[:end])
                    end = self.d_z
            # each entry of a and A is one sequential sum over point l's (t, n) rows
            agg.a[l] = norm * np.einsum("nz,n->z", zf, self.dy[l].reshape(self.n_obs))
            agg.A[l] = norm * np.einsum("nz,nt->zt", zf, dh.reshape(self.n_obs, self.d_theta))
            # point l's outcome and regressor rows of every period side by side, unit-major:
            # one product sums each column as a product of that column alone would; the
            # einsums read C-ordered (T-1, n, .) copies, which fixes their order
            units[..., 0] = self.dy[l].T
            units[..., 1:] = dh.transpose(1, 0, 2)
            for m, p in enumerate(spec.quad_mats):
                prod = (p @ units.reshape(n, -1)).reshape(units.shape)
                py = np.ascontiguousarray(prod[..., 0].T)  # (T-1, n)
                ph = np.ascontiguousarray(prod[..., 1:].transpose(1, 0, 2))  # (T-1, n, d_theta)
                agg.c[l, m] = norm * np.sum(self.dy[l] * py)
                agg.b[l, m] = norm * np.einsum("tnk,tn->k", dh, py)
                agg.C[l, m] = norm * np.einsum("tnk,tnj->kj", dh, ph)
                del prod, py, ph  # freed before the next product: a lower peak
        self.s_z = norm * sum_rows[:self.d_z] / L
        self.mean = _Aggregates(*(part.mean(axis=0) for part in self.per_point))
        if not all(np.isfinite(part).all() for part in (self.s_z, *self.per_point, *self.mean)):
            raise NumericalFailureError("moment aggregates are not finite (overflow in the "
                                        "network weights or the data)")

    def _at_points(self, node_values: np.ndarray) -> np.ndarray:
        """(L, ...) interpolants at the moment points of (..., nodes) stencil values."""
        return np.stack([(1.0 - lam) * node_values[..., col] + lam * node_values[..., col + 1]
                         for col, lam in zip(self._col, self._lam)])

    def rows(self, l: int, out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Differenced instrument and regressor rows at moment point l,
        (T-1, n, d_z) and (T-1, n, d_theta), written into ``out`` (two
        C-contiguous arrays) when given; ``dy[l]`` holds the outcomes. Each
        regressor entry is (1 - lam) (dr_g0 phi_g0) + lam (dr_g1 phi_g1),
        with dr = [d(Ay), dx]."""
        periods, n = self._db.shape[:2]
        K = self._phi.shape[1]
        dz, dh = out or (np.empty((periods, n, self.d_z)), np.empty((periods, n, self.d_theta)))
        col, lam = self._col[l], self._lam[l]
        phi_nodes = self.spec.basis.values_on_grid[self._g0[l]: self._g0[l] + 2]
        h = dh.reshape(periods, n, -1, K)  # (T-1, n, 1 + d_x, K) views of the buffers
        part = np.empty_like(h)
        dr = np.empty(h.shape[:3])
        dr[..., 1:] = self._d_x
        for buf, weight, node, phi in ((h, 1.0 - lam, col, phi_nodes[0]),
                                       (part, lam, col + 1, phi_nodes[1])):
            dr[..., 0] = self._d_ay[..., node]
            np.einsum("tnr,k->tnrk", dr, phi, out=buf)
            buf *= weight
        h += part
        np.einsum("tnb,k->tnbk", self._db, self._phi[l], out=dz.reshape(periods, n, -1, K))
        return dz, dh

    def residual_scores(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Differenced residuals de (L, T-1, n) at theta and instrument scores
        u (T-1, n, d_z) = sum_l dz[l] de[l], from the factors without the rows.

        With theta as the (1 + d_x, K) matrix Theta, the fitted part
        ``dh[l] theta`` is (1 - lam) dr_g0 Theta phi_g0 + lam dr_g1 Theta phi_g1,
        and ``u[t, i, (b, k)] = db[t, i, b] sum_l phi[l, k] de[l, t, i]``.
        """
        coef = theta.reshape(-1, self._phi.shape[1])
        phi_nodes = self.spec.basis.values_on_grid
        fitted = np.zeros(self._d_ay.shape[:2] + self._lam.shape)  # (T-1, n, L)
        for weight, node, g in ((1.0 - self._lam, self._col, self._g0),
                                (self._lam, self._col + 1, self._g0 + 1)):
            c = phi_nodes[g] @ coef.T  # (L, 1 + d_x)
            term = self._d_ay[..., node] * c[:, 0]
            term += self._d_x @ c[:, 1:].T
            term *= weight
            fitted += term
        de = np.subtract(self.dy, np.moveaxis(fitted, -1, 0), order="C")
        del fitted, term  # freed before the scores: a lower peak
        u = self._db[..., :, None] * np.einsum("lk,ltn->tnk", self._phi, de)[..., None, :]
        return de, u.reshape(*u.shape[:2], self.d_z)

    @cached_property
    def _s_z_inverse(self) -> np.ndarray:
        try:
            chol = sla.cho_factor(self.s_z)
        except sla.LinAlgError as exc:
            raise UnderidentifiedError(
                "instrument second-moment matrix is singular (collinear instruments)"
            ) from exc
        return sla.cho_solve(chol, np.eye(self.d_z))

    def _instrument_weight(self) -> np.ndarray:
        """Inverse instrument second moment, computed once per design; a copy
        in the same memory order, which later products depend on bit for bit."""
        return self._s_z_inverse.copy(order="K")

    @cached_property
    def _2sls(self) -> tuple[np.ndarray, float]:
        smin = np.linalg.svd(self.mean.A, compute_uv=False)[-1]
        if smin < _SV_FLOOR:
            raise UnderidentifiedError(
                f"instrument design is rank deficient (smallest singular value {smin:.3g})"
            )
        try:
            lz = sla.cholesky(self.s_z, lower=True)
        except sla.LinAlgError as exc:
            raise UnderidentifiedError(
                "instrument second-moment matrix is singular (collinear instruments)"
            ) from exc
        design = sla.solve_triangular(lz, self.mean.A, lower=True)
        target = sla.solve_triangular(lz, self.mean.a, lower=True)
        theta, *_ = np.linalg.lstsq(design, target, rcond=None)
        return theta, float(smin)

    def solve_2sls(self) -> tuple[np.ndarray, float]:
        """Minimize the linear-moment quadratic form; returns (theta, min sv).

        Solved once per design; every call returns a copy of theta.
        """
        theta, smin = self._2sls
        return theta.copy(), smin


def _use_design(panel: FunctionalPanel, spec: MomentSpec, design: _Design | None) -> _Design:
    """A new design, or the one passed in if built on this very panel and spec object."""
    if design is None:
        return _Design(panel, spec)
    if design.panel is not panel or design.spec is not spec:
        raise InvalidArgumentError("design was built on another panel or spec")
    return design


def _omega_sqrt(omega: np.ndarray) -> np.ndarray:
    """Factor R with R'R = omega; the weights ``fit_gmm`` builds are positive definite."""
    vals, vecs = np.linalg.eigh(0.5 * (omega + omega.T))
    return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T


def moment_function(panel: FunctionalPanel, spec: MomentSpec, theta: np.ndarray,
                    *, per_point: bool = False) -> np.ndarray:
    """Averaged moment vector, or the per-grid-point stack when requested.

    Shape (d_g,) by default, (L, d_g) with ``per_point=True``.
    """
    design = _Design(panel, spec)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (design.d_theta,):
        raise InvalidArgumentError(
            f"theta must have length {design.d_theta}, got {theta.shape}"
        )
    return (design.per_point if per_point else design.mean).moments(theta)


def moment_jacobian(panel: FunctionalPanel, spec: MomentSpec, theta: np.ndarray,
                    *, per_point: bool = False) -> np.ndarray:
    """Analytic Jacobian of the (averaged) moment vector in theta."""
    design = _Design(panel, spec)
    theta = np.asarray(theta, dtype=float)
    return (design.per_point if per_point else design.mean).jacobian(theta)


@dataclass
class GmmFit:
    """Estimation result: coefficient block, evaluators, and diagnostics."""

    theta: np.ndarray
    spec: MomentSpec
    n: int
    T: int
    d_x: int
    method: str  # one of ESTIMATORS
    omega: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    sigma: np.ndarray | None = None
    fixed_effects: np.ndarray | None = None
    _design: object = field(default=None, repr=False)

    @property
    def basis(self) -> BasisSystem:
        return self.spec.basis

    @property
    def theta_alpha(self) -> np.ndarray:
        return self.theta[: self.basis.size]

    def theta_beta(self, j: int) -> np.ndarray:
        K = self.basis.size
        if not 0 <= j < self.d_x:
            raise InvalidArgumentError(f"covariate index {j} out of range")
        return self.theta[(1 + j) * K: (2 + j) * K]

    def alpha(self, s) -> np.ndarray:
        """Interaction-effect estimate at one or many points."""
        return self.basis.eval_many(np.atleast_1d(s)) @ self.theta_alpha

    def beta(self, j: int, s) -> np.ndarray:
        """Coefficient estimate for covariate j at one or many points."""
        return self.basis.eval_many(np.atleast_1d(s)) @ self.theta_beta(j)

    def _pointwise_se(self, block: int, phi: np.ndarray) -> np.ndarray:
        """Standard errors of function ``block`` (0 alpha, 1 + j beta_j) at the
        points whose basis rows are ``phi``; ``run_mc`` passes rows it built once."""
        if self.sigma is None:
            raise VarianceUnavailableError("run estimate_variance first")
        K = self.basis.size
        sub = self.sigma[block * K: (block + 1) * K, block * K: (block + 1) * K]
        sd = np.sqrt(np.maximum(np.einsum("ik,kj,ij->i", phi, sub, phi), 0.0))
        return sd / np.sqrt(self.n * (self.T - 1))

    def se_alpha(self, s) -> np.ndarray:
        """Pointwise standard error of the interaction-effect estimate."""
        return self._pointwise_se(0, self.basis.eval_many(np.atleast_1d(s)))

    def se_beta(self, j: int, s) -> np.ndarray:
        """Pointwise standard error of the j-th coefficient estimate."""
        if not 0 <= j < self.d_x:
            raise InvalidArgumentError(f"covariate index {j} out of range")
        return self._pointwise_se(1 + j, self.basis.eval_many(np.atleast_1d(s)))


def fit_2sls(panel: FunctionalPanel, spec: MomentSpec, *, design: _Design | None = None) -> GmmFit:
    """Closed-form estimator from the linear moments alone.

    Numerically identical to the full GMM estimator with the quadratic
    moments dropped and the block weight matrix retained. ``design`` is as
    in ``fit_gmm``.
    """
    design = _use_design(panel, spec, design)
    theta, smin = design.solve_2sls()
    resid = design.mean.a - design.mean.A @ theta
    omega_z = design._instrument_weight()
    return GmmFit(
        theta=theta,
        spec=spec,
        n=panel.n,
        T=panel.T,
        d_x=panel.d_x,
        method="2sls",
        omega=omega_z,
        objective_value=float(resid @ omega_z @ resid),
        iterations=0,
        converged=True,
        diagnostics={"min_singular_value": smin},
        _design=design,
    )


class _GnRun(NamedTuple):
    """One Gauss-Newton run of ``fit_gmm`` and why it stopped."""

    theta: np.ndarray
    objective: float
    iterations: int
    path: list  # objective after every accepted step, the start first
    stop_reason: str  # "grad_tol", "no_descent", "no_accepted_step" or "max_iter"
    grad_norm: float  # gradient norm at theta

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED_STOPS


def _gauss_newton(design: _Design, omega: np.ndarray, omega_sqrt: np.ndarray,
                  theta0: np.ndarray) -> _GnRun:
    """Levenberg-damped Gauss-Newton with an exact-Newton polish.

    Gauss-Newton converges only linearly once the (nonzero) moment residual
    dominates, which can stall above a tight gradient tolerance; the polish
    stage adds the analytic second-order term of the quadratic moments to
    finish the descent. Both stages keep the objective non-increasing. The
    run stops at the gradient tolerance ("grad_tol"), when the predicted
    decrease is below the objective's resolution ("no_descent"), when 60
    damping increases find no decrease ("no_accepted_step"), or after
    ``_MAX_ITER`` steps ("max_iter"); the first two count as converged, and
    the last two end the Gauss-Newton stage without ending the run.
    """
    agg = design.mean

    def residual(th):
        return omega_sqrt @ agg.moments(th)

    def gradient(th, r):
        jac = omega_sqrt @ agg.jacobian(th)
        return jac, 2.0 * jac.T @ r

    def curvature_fix(th):
        # second-order term: quadratic moment m contributes 2 C_m to its Hessian
        weighted = omega @ agg.moments(th)
        return 4.0 * np.einsum("m,mkj->kj", weighted[design.d_z:], agg.C)

    theta = theta0.copy()
    r = residual(theta)
    obj = float(r @ r)
    if not np.isfinite(obj):
        raise NumericalFailureError("objective is not finite at the starting point")
    path = [obj]
    iterations = 0
    identity = np.eye(design.d_theta)
    floor = 4.0 * np.finfo(float).eps
    for stage in ("gauss-newton", "newton"):
        lam = 1e-8
        stop = "max_iter"
        for _ in range(_MAX_ITER):
            jac, grad = gradient(theta, r)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm <= _GRAD_TOL:
                stop = "grad_tol"
                break
            hess = 2.0 * jac.T @ jac
            if stage == "newton":
                hess = hess + curvature_fix(theta)
            accepted = False
            for _ in range(60):
                try:
                    step = np.linalg.solve(hess + lam * identity, -grad)
                except np.linalg.LinAlgError:
                    lam = max(lam, 1e-12) * 10.0
                    continue
                predicted = -0.5 * float(grad @ step)
                if 0.0 <= predicted <= floor * (1.0 + obj):
                    # no representable descent remains: numerical stationary point
                    stop = "no_descent"
                    break
                trial = theta + step
                r_trial = residual(trial)
                obj_trial = float(r_trial @ r_trial)
                if np.isfinite(obj_trial) and obj_trial < obj:
                    theta, r, obj = trial, r_trial, obj_trial
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
                lam = max(lam, 1e-12) * 10.0
            if not accepted:
                if stop != "no_descent":
                    stop = "no_accepted_step"
                break
            iterations += 1
            path.append(obj)
        if stop in _CONVERGED_STOPS:
            break
    if stop == "max_iter":  # theta moved after the last gradient
        grad_norm = float(np.linalg.norm(gradient(theta, r)[1]))
    return _GnRun(theta, obj, iterations, path, stop, grad_norm)


def fit_gmm(panel: FunctionalPanel, spec: MomentSpec, *, estimator: str = "gmm1",
            design: _Design | None = None) -> GmmFit:
    """Minimize the integrated-GMM objective by damped Gauss-Newton.

    The weight matrix is fixed (one-step GMM): ``estimator`` "gmm1" pairs
    the inverse instrument second moment with an identity block for the
    quadratic moments, and "gmm2" weighs every moment alike; 2SLS is
    ``fit_2sls``. One run starts from the closed-form linear-moments
    solution and stops at gradient norm 1e-10, with at most 200 iterations
    per stage; a run that ends otherwise is reported through ``converged``
    and the ``stop_reason`` and ``grad_norm`` diagnostics, not restarted.
    ``design`` is for ``run_mc``, whose fits on one spec differ only in the
    weight matrix and share one moment design; a design built on another
    panel or spec object raises ``InvalidArgumentError``.
    """
    if estimator not in ("gmm1", "gmm2"):
        raise InvalidArgumentError(f"unknown GMM estimator {estimator!r}; use gmm1 or gmm2")
    design = _use_design(panel, spec, design)
    omega = np.eye(design.d_g)  # gmm2 weighs every moment alike
    if estimator == "gmm1":  # the inverse instrument second moment, then the identity
        omega[:design.d_z, :design.d_z] = design._s_z_inverse
    omega_sqrt = _omega_sqrt(omega)
    theta0, smin = design.solve_2sls()

    run = _gauss_newton(design, omega, omega_sqrt, theta0)
    return GmmFit(
        theta=run.theta,
        spec=spec,
        n=panel.n,
        T=panel.T,
        d_x=panel.d_x,
        method=estimator,
        omega=omega,
        objective_value=run.objective,
        iterations=run.iterations,
        converged=run.converged,
        diagnostics={"min_singular_value": smin, "objective_path": run.path,
                     "stop_reason": run.stop_reason, "grad_norm": run.grad_norm},
        _design=design,
    )


def estimate_fixed_effects(fit: GmmFit, panel: FunctionalPanel) -> np.ndarray:
    """Per-unit time averages of the residual functions on the grid.

    The residual y - alpha A(W y) - x beta is linear in the panel, so its
    period mean is ybar - alpha A(W ybar) - xbar beta, formed from the (n, G)
    and (n, d_x) period means. Consistency needs many periods; a
    single-period panel returns the lone residual path with a warning.
    """
    spec = fit.spec
    points = panel.quad.points
    y_bar = panel.y.mean(axis=1)
    ay_bar = spec.operator.apply_grid(network_lag(spec.weights, y_bar))
    beta_grid = np.stack([fit.beta(j, points) for j in range(fit.d_x)])
    if panel.T == 1:
        warnings.warn("fixed effects from a single period are the raw residual paths",
                      SmallTWarning)
    ay_bar *= fit.alpha(points)
    fit.fixed_effects = np.subtract(y_bar, ay_bar, out=y_bar)
    fit.fixed_effects -= panel.x.mean(axis=1) @ beta_grid
    return fit.fixed_effects


def _union_pattern(quad_mats, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union sparsity pattern (rows, cols) of the n x n quadratic matrices in
    row-major order, and their values pv (M, nnz) on it, zero off a matrix's
    own pattern.

    Entries are keyed row * n + col, so the sorted union of the keys runs in
    row-major order. Each matrix is canonical and stores no zeros, as
    ``build_quadratic_weights`` makes them, so its keys are one sorted run,
    and a stable sort (a merge of the runs) finds the union.
    """
    keys = [np.repeat(np.arange(n), np.diff(p.indptr)) * n + p.indices for p in quad_mats]
    union = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *keys]), kind="stable")
    union = union[np.diff(union, prepend=-1) != 0]
    pv = np.zeros((len(quad_mats), union.size))
    for m, (p, k) in enumerate(zip(quad_mats, keys)):
        pv[m, np.searchsorted(union, k)] = p.data
    rows, cols = np.divmod(union, n)
    return rows, cols, pv


def _quad_variance(de: np.ndarray, quad_mats) -> np.ndarray:
    """Quadratic-moment variance block before scaling, on the union pattern only,
    a chunk of pairs at a time: each pair's ``c`` and ``s`` are its own sums."""
    rows, cols, pv = _union_pattern(quad_mats, de.shape[2])
    s = np.empty(rows.size)
    step = max(1, _CHUNK_BYTES // (8 * de.shape[0] * de.shape[1]))
    for start in range(0, rows.size, step):
        pair = slice(start, start + step)
        c = np.einsum("ltk,ltk->tk", de[:, :, rows[pair]], de[:, :, cols[pair]])  # (T-1, pairs)
        s[pair] = np.einsum("tk,tk->k", c, c) + 2.0 * np.einsum("tk,tk->k", c[:-1], c[1:])
    return 2.0 * (pv * s) @ pv.T


def estimate_variance(fit: GmmFit, panel: FunctionalPanel, spec: MomentSpec) -> np.ndarray:
    """Sandwich covariance of the coefficient block, also stored as ``fit.sigma``.

    The long-run moment variance is estimated from the differenced residuals
    de[l, t, i] with the one-period band over differenced time indices;
    cross blocks between linear and quadratic moments are zero. The
    quadratic block (Kelejian & Prucha 2010) is summed only over the union
    sparsity pattern (rows[k], cols[k]) of the quadratic matrices, which is
    exact because their diagonals are zero::

        c[t, k] = sum_l de[l, t, rows[k]] de[l, t, cols[k]]
        s[k] = sum_t c[t, k]^2 + 2 sum_t c[t, k] c[t+1, k]
        v_q = 2 scale (pv * s) @ pv.T,   pv[m, k] = P_m[rows[k], cols[k]]

    with scale = 1/(L^2 n (T-1)), at O(nnz L T) time and memory. Returns the
    positive semidefinite covariance; ``GmmFit.se_alpha``/``se_beta`` give
    the pointwise standard errors from it. Negative eigenvalues are set to
    zero; ``fit.diagnostics`` records their number and summed magnitude as
    ``variance_clipped_count`` and ``variance_clipped_mass``.
    """
    design = _use_design(panel, spec, fit._design)
    n, T = panel.n, panel.T
    L = spec.n_points
    de, u = design.residual_scores(fit.theta)
    scale = 1.0 / (L * L * n * (T - 1))

    lag = np.einsum("tnz,tnw->zw", u[:-1], u[1:])
    v_z = scale * (np.einsum("tnz,tnw->zw", u, u) + lag + lag.T)

    if fit.method != "2sls":
        v_hat = np.zeros((design.d_g, design.d_g))  # no linear-quadratic cross block
        v_hat[:design.d_z, :design.d_z] = v_z
        v_hat[design.d_z:, design.d_z:] = scale * _quad_variance(de, spec.quad_mats)
        jbar = design.mean.jacobian(fit.theta)
    else:
        v_hat = v_z
        jbar = -design.mean.A

    omega = fit.omega
    bread = jbar.T @ omega @ jbar
    try:
        chol = sla.cho_factor(0.5 * (bread + bread.T))
    except sla.LinAlgError as exc:
        raise VarianceUnavailableError(
            "J' Omega J is singular; the sandwich covariance is unavailable"
        ) from exc
    meat = jbar.T @ omega @ v_hat @ omega @ jbar
    sigma = sla.cho_solve(chol, sla.cho_solve(chol, meat).T)
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    clipped = vals[vals < 0.0]  # no tolerance: every negative eigenvalue is set to 0
    sigma = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    fit.diagnostics["variance_clipped_count"] = clipped.size
    fit.diagnostics["variance_clipped_mass"] = float(-clipped.sum())
    fit.sigma = sigma
    return sigma


def functional_estimate_table(fit: GmmFit, target: str, j: int = 0) -> list[tuple]:
    """Rows (s, estimate, se, ci_lo, ci_hi) on the quadrature grid, 95% intervals."""
    grid = fit.basis.quad
    s = grid.points
    if target == "alpha":
        est = fit.alpha(s)
        se = fit.se_alpha(s) if fit.sigma is not None else np.full(s.size, np.nan)
    elif target == "beta":
        est = fit.beta(j, s)
        se = fit.se_beta(j, s) if fit.sigma is not None else np.full(s.size, np.nan)
    else:
        raise InvalidArgumentError(f"unknown target {target!r}")
    return [
        (float(si), float(ei), float(sei), float(ei - CI_Z * sei), float(ei + CI_Z * sei))
        for si, ei, sei in zip(s, est, se)
    ]


def fit_report_text(fit: GmmFit) -> str:
    """Nested key-value report of the fit, suitable for plain-text export."""
    lines = [
        "fit:",
        f"  method: {fit.method}",
        f"  n: {fit.n}",
        f"  T: {fit.T}",
        f"  d_x: {fit.d_x}",
        f"  basis_size: {fit.basis.size}",
        f"  moment_points: {fit.spec.n_points}",
        f"  objective: {fit.objective_value:.12g}",
        f"  iterations: {fit.iterations}",
        f"  converged: {fit.converged}",
        "theta:",
        "  alpha: " + " ".join(f"{v:.12g}" for v in fit.theta_alpha),
    ]
    for j in range(fit.d_x):
        lines.append(f"  beta{j + 1}: " + " ".join(f"{v:.12g}" for v in fit.theta_beta(j)))
    lines.append("diagnostics:")
    for key, value in fit.diagnostics.items():
        if key == "objective_path":
            lines.append(f"  {key}_length: {len(value)}")
        else:
            lines.append(f"  {key}: {value}")
    targets = [("alpha", "alpha", 0)] + [(f"beta{j + 1}", "beta", j) for j in range(fit.d_x)]
    for name, target, j in targets:
        lines.append(f"grid_{name}:")
        for s, est, se, *_ in functional_estimate_table(fit, target, j):
            se_text = f" se={se:.12g}" if fit.sigma is not None else ""
            lines.append(f"  {s:.6g}: {est:.12g}{se_text}")
    return "\n".join(lines) + "\n"
