"""Metamorphic checks: exact symmetries of the estimator.

Relabelling the units (y, x and W's rows and columns permuted together)
leaves theta and sigma unchanged and permutes the fixed effects and the
total impacts the same way. Reversing time flips the sign of every first
difference, which the products in the moments and the symmetric one-lag
variance band cancel. Doubling the covariate halves beta and leaves alpha,
the fixed effects and the impacts alone (gmm1 and 2SLS). All hold in real
arithmetic; in floating point the sums run in another order, so the fits
must agree to 1e-12 relative.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fnar.basis import build_bspline_basis, build_quadrature
from fnar.effects import total_impacts
from fnar.estimator import (
    ESTIMATORS,
    MomentSpec,
    estimate_fixed_effects,
    estimate_variance,
    fit_2sls,
    fit_gmm,
)
from fnar.network import NetworkWeights
from fnar.simulate import (
    DgpConfig,
    FunctionalPanel,
    mc_alpha,
    mc_beta,
    mc_fixed_effects,
    neumann_solve,
    simulate_mc_panel,
)

from conftest import ring_weights, small_operator

RTOL = 1e-12


def paper_cell():
    """The simulation study's cell (n=40, T=5, lattice network, kernel operator),
    replication 0 of ``run_mc`` at base seed 424242."""
    seed = np.random.SeedSequence(424242).spawn(1)[0]
    panel, truth = simulate_mc_panel(40, 5, 1.0, seed)
    return panel, truth.weights, truth.operator


def ring_panel(kind):
    """A ring network of 30 units over 4 periods with a point-eval or past-window operator."""
    n, T = 30, 4
    rng = np.random.default_rng(11)
    quad = build_quadrature(99)
    weights = ring_weights(n)
    operator = small_operator(kind, quad)
    cfg = DgpConfig(alpha=0.5 * mc_alpha(quad.points), beta=mc_beta(quad.points, 1.0)[None, :],
                    fixed_effects=mc_fixed_effects(n, quad.points), operator=operator,
                    weights=weights)
    x = rng.normal(size=(n, T, 1))
    y = np.stack([neumann_solve(cfg, x[:, t] @ cfg.beta + cfg.fixed_effects
                                + 0.3 * rng.normal(size=(n, quad.count))).values
                  for t in range(T)], axis=1)
    return FunctionalPanel(y=y, x=x, quad=quad), weights, operator


CASES = {"paper-cell": paper_cell,
         "ring-point": lambda: ring_panel("point"),
         "ring-window": lambda: ring_panel("window")}


def relabel(panel, weights):
    perm = np.random.default_rng(5).permutation(panel.n)
    relabelled = FunctionalPanel(y=panel.y[perm], x=panel.x[perm], quad=panel.quad)
    return relabelled, NetworkWeights(w=sp.csr_array(weights.w[perm][:, perm])), perm


def reverse_time(panel, weights):
    return (FunctionalPanel(y=panel.y[:, ::-1].copy(), x=panel.x[:, ::-1].copy(),
                            quad=panel.quad), weights, np.arange(panel.n))


TRANSFORMS = {"relabel": relabel, "reverse_time": reverse_time}


def fit_all(name, panel, weights, operator):
    spec = MomentSpec(basis=build_bspline_basis(2, 3, panel.quad), operator=operator,
                      weights=weights, n_points=10)
    fit = fit_2sls(panel, spec) if name == "2sls" else fit_gmm(panel, spec, estimator=name)
    estimate_variance(fit, panel, spec)
    estimate_fixed_effects(fit, panel)
    impacts = total_impacts(fit.alpha(operator.grid.points), operator, weights,
                            np.ones(panel.quad.count))
    return fit, impacts


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# gmm2 stops on the objective's decrease, which pins theta only to about
# sqrt(eps): on the paper cell the reordered sums move it by 5e-8 (relabelling)
# and 1e-7 (time reversal). ROADMAP item 1 fixes the stopping rule.
_GMM2_UNSTABLE = pytest.mark.xfail(strict=True, reason="gmm2 stopping rule, ROADMAP item 1")


def _params():
    for case in CASES:
        for transform in TRANSFORMS:
            for name in ESTIMATORS:
                marks = _GMM2_UNSTABLE if (name, case) == ("gmm2", "paper-cell") else ()
                yield pytest.param(case, transform, name, marks=marks,
                                   id=f"{case}-{transform}-{name}")


@pytest.mark.parametrize("case,transform,name", list(_params()))
def test_fit_is_invariant(case, transform, name):
    panel, weights, operator = CASES[case]()
    fit, impacts = fit_all(name, panel, weights, operator)
    panel2, weights2, perm = TRANSFORMS[transform](panel, weights)
    fit2, impacts2 = fit_all(name, panel2, weights2, operator)
    assert relative_gap(fit2.theta, fit.theta) <= RTOL
    assert relative_gap(fit2.sigma, fit.sigma) <= RTOL
    assert relative_gap(fit2.fixed_effects, fit.fixed_effects[perm]) <= RTOL
    assert relative_gap(impacts2, impacts[perm]) <= RTOL


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", ["gmm1", "2sls"])
def test_doubling_the_covariate_halves_beta(case, name):
    # the instruments double with x, so the block weight scales by 1/4 and the
    # objective at (alpha, beta / 2) is the old one; gmm2's identity weight is
    # not scale-invariant, so it is not checked
    panel, weights, operator = CASES[case]()
    fit, impacts = fit_all(name, panel, weights, operator)
    doubled = FunctionalPanel(y=panel.y, x=2.0 * panel.x, quad=panel.quad)
    fit2, impacts2 = fit_all(name, doubled, weights, operator)
    assert relative_gap(fit2.theta_alpha, fit.theta_alpha) <= RTOL
    assert relative_gap(2.0 * fit2.theta_beta(0), fit.theta_beta(0)) <= RTOL
    scale = np.repeat([1.0, 2.0], fit.basis.size)  # sigma of (alpha, 2 beta)
    assert relative_gap(scale[:, None] * fit2.sigma * scale, fit.sigma) <= RTOL
    assert relative_gap(fit2.fixed_effects, fit.fixed_effects) <= RTOL
    assert relative_gap(impacts2, impacts) <= RTOL
