"""Acceptance suite: every criterion runs at its stated tolerance and is
reported as a one-line pass/fail in the terminal summary.

The three replication studies reuse module-scoped runs; everything is
seeded, so the suite is deterministic for a fixed platform.
"""

import os

import numpy as np
import pytest

from fnar import simulate
from fnar.basis import build_bspline_basis, build_quadrature
from fnar.effects import impulse_response, marginal_effects
from fnar.estimator import fit_2sls, fit_gmm, moment_function, moment_jacobian
from fnar.interaction import PointEval
from fnar.montecarlo import McConfig, run_mc
from fnar.simulate import DgpConfig, FunctionalPanel, mc_alpha, neumann_solve

from conftest import record_criterion, ring_weights, small_operator
from dense_oracle import dense_jacobian, dense_moments
from test_estimator import exact_span_panel, make_panel, make_spec

_WORKERS = min(4, os.cpu_count() or 1)

PAPER_BIAS_ALPHA = 0.0083
PAPER_RMSE_ALPHA = 0.0649
PAPER_RMSE_BETA_R04 = 0.0653


@pytest.fixture(scope="module")
def run_r1():
    cfg = McConfig(n=40, T=5, L=10, inner_knots=2, r=1.0, estimators=("gmm1",),
                   replications=500, base_seed=20260811, workers=_WORKERS,
                   coverage_points=(0.25, 0.5, 0.75))
    return run_mc(cfg)


@pytest.fixture(scope="module")
def run_r04():
    cfg = McConfig(n=40, T=5, L=10, inner_knots=2, r=0.4,
                   estimators=("gmm1", "gmm2", "2sls"),
                   replications=500, base_seed=20260812, workers=_WORKERS)
    return run_mc(cfg)


@pytest.fixture(scope="module")
def run_big():
    cfg = McConfig(n=80, T=10, L=10, inner_knots=2, r=1.0, estimators=("gmm1",),
                   replications=500, base_seed=20260813, workers=_WORKERS)
    return run_mc(cfg)


def test_criterion_01_table1_cell(run_r1):
    bias = run_r1.bias[("gmm1", "alpha")]
    rmse = run_r1.rmse[("gmm1", "alpha")]
    ok_bias = abs(bias - PAPER_BIAS_ALPHA) <= 0.01
    ok_rmse = abs(rmse - PAPER_RMSE_ALPHA) <= 0.15 * PAPER_RMSE_ALPHA
    record_criterion(1, "table1 gmm1 alpha", ok_bias and ok_rmse,
                     f"bias={bias:.4f} rmse={rmse:.4f}")
    assert ok_bias, f"bias {bias:.4f} outside {PAPER_BIAS_ALPHA}+-0.01"
    assert ok_rmse, f"rmse {rmse:.4f} outside {PAPER_RMSE_ALPHA}+-15%"


def test_criterion_02_table2_cell(run_r04):
    rmse = run_r04.rmse[("gmm1", "beta")]
    ok = abs(rmse - PAPER_RMSE_BETA_R04) <= 0.15 * PAPER_RMSE_BETA_R04
    record_criterion(2, "table2 gmm1 beta", ok, f"rmse={rmse:.4f}")
    assert ok, f"rmse {rmse:.4f} outside {PAPER_RMSE_BETA_R04}+-15%"


def test_criterion_03_root_nt_scaling(run_r1, run_big):
    ratio = run_big.rmse[("gmm1", "alpha")] / run_r1.rmse[("gmm1", "alpha")]
    ok = 0.35 <= ratio <= 0.65
    record_criterion(3, "sqrt(nT) scaling", ok, f"ratio={ratio:.3f}")
    assert ok, f"RMSE ratio {ratio:.3f} outside [0.35, 0.65]"


def test_criterion_04_estimator_ordering(run_r04):
    rmse = {e: run_r04.rmse[(e, "alpha")] for e in ("gmm1", "2sls", "gmm2")}
    gaps = []
    for better, worse in (("gmm1", "2sls"), ("2sls", "gmm2")):
        diff = (run_r04.per_rep_rmse[(worse, "alpha")]
                - run_r04.per_rep_rmse[(better, "alpha")])
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        gaps.append((diff.mean(), se))
    ok = (rmse["gmm1"] < rmse["2sls"] < rmse["gmm2"]
          and all(gap > 2 * se for gap, se in gaps))
    detail = (f"gmm1={rmse['gmm1']:.4f} < 2sls={rmse['2sls']:.4f} "
              f"< gmm2={rmse['gmm2']:.4f}")
    record_criterion(4, "estimator ordering", ok, detail)
    assert ok, detail + f" gaps={gaps}"


def test_criterion_05_dense_oracle_equivalence():
    worst = 0.0
    rng = np.random.default_rng(17)
    for n in (2, 3):
        for T in (2, 3):
            for inner, degree in ((0, 0), (0, 1), (1, 0)):
                for kind in ("point", "kernel", "window"):
                    panel = make_panel(n=n, T=T, n_quad=15, seed=11 * n + T)
                    spec = make_spec(panel, operator_kind=kind, inner_knots=inner,
                                     degree=degree, n_points=3)
                    for _ in range(3):
                        theta = rng.normal(size=2 * spec.basis.size)
                        diff = np.max(np.abs(
                            moment_function(panel, spec, theta, per_point=True)
                            - dense_moments(panel, spec, theta)))
                        diff_j = np.max(np.abs(
                            moment_jacobian(panel, spec, theta, per_point=True)
                            - dense_jacobian(panel, spec, theta)))
                        worst = max(worst, diff, diff_j)
    ok = worst < 1e-12
    record_criterion(5, "dense oracle equivalence", ok, f"max dev={worst:.2e}")
    assert ok


def test_criterion_06_jacobian_finite_differences():
    worst = 0.0
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        panel = make_panel(n=3, T=3, n_quad=13, seed=seed)
        spec = make_spec(panel, n_points=3)
        theta = rng.normal(size=2 * spec.basis.size)
        jac = moment_jacobian(panel, spec, theta)
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            fd = (moment_function(panel, spec, up)
                  - moment_function(panel, spec, down)) / (2 * h)
            rel = np.max(np.abs(fd - jac[:, k]) / (1.0 + np.abs(jac[:, k])))
            worst = max(worst, rel)
    ok = worst < 1e-6
    record_criterion(6, "jacobian vs finite differences", ok, f"max rel={worst:.2e}")
    assert ok


def test_criterion_07_noiseless_recovery():
    panel, spec, theta0 = exact_span_panel(n=20, T=4, seed=3)
    err2 = np.linalg.norm(fit_2sls(panel, spec).theta - theta0)
    errg = np.linalg.norm(fit_gmm(panel, spec).theta - theta0)
    ok = err2 < 1e-8 and errg < 1e-8
    record_criterion(7, "noiseless recovery", ok, f"2sls={err2:.2e} gmm={errg:.2e}")
    assert ok


def test_criterion_08_concurrent_closed_forms():
    quad = build_quadrature(33)
    n = 6
    weights = ring_weights(n)
    operator = PointEval(quad)
    alpha = 0.55 + 0.1 * np.sin(6 * quad.points)
    beta = (1.0 + quad.points)[None, :]
    cfg = DgpConfig(alpha=alpha, beta=beta, fixed_effects=np.zeros((n, 33)),
                    operator=operator, weights=weights)
    rng = np.random.default_rng(8)
    rhs = rng.normal(size=(n, 33))
    dense_w = weights.dense()
    sol = neumann_solve(cfg, rhs)
    neumann_err = max(
        np.max(np.abs(sol.values[:, g]
                      - np.linalg.solve(np.eye(n) - alpha[g] * dense_w, rhs[:, g])))
        for g in range(33)
    )
    ok_neumann = neumann_err < 2 * simulate._TOL

    q = float(np.max(np.abs(alpha)))  # row sums are one, bound is one
    order = 30
    eta = np.cos(3 * quad.points)
    basis_vec = np.zeros(n)
    basis_vec[0] = 1.0
    res_m = marginal_effects(alpha, operator, weights, 0, beta[0], order=order)
    res_i = impulse_response(alpha, operator, weights, 0, eta, order=order)
    worst_m = worst_i = 0.0
    for g in range(33):
        inv = np.linalg.solve(np.eye(n) - alpha[g] * dense_w, basis_vec)
        worst_m = max(worst_m, np.max(np.abs(res_m.cumulative[:, g] - inv * beta[0, g])))
        worst_i = max(worst_i, np.max(np.abs(res_i.cumulative[:, g] - inv * eta[g])))
    tail_m = q ** (order + 1) / (1 - q) * np.max(np.abs(beta))
    tail_i = q ** (order + 1) / (1 - q) * np.max(np.abs(eta))
    ok_effects = worst_m <= tail_m + 1e-12 and worst_i <= tail_i + 1e-12
    ok = ok_neumann and ok_effects
    record_criterion(8, "concurrent closed forms", ok,
                     f"neumann={neumann_err:.2e} M={worst_m:.2e} I={worst_i:.2e}")
    assert ok


def test_criterion_09_fixed_effect_invariance():
    worst = 0.0
    for kind in ("point", "kernel", "window"):
        rng = np.random.default_rng(900)
        panel = make_panel(n=5, T=4, n_quad=21, seed=5)
        spec = make_spec(panel, operator_kind=kind, inner_knots=1, degree=2,
                         n_points=5)
        shift = rng.normal(size=(5, 1, 21)) * 4.0
        shifted = FunctionalPanel(y=panel.y + shift, x=panel.x, quad=panel.quad)
        for _ in range(4):
            theta = rng.normal(size=2 * spec.basis.size)
            diff = np.max(np.abs(moment_function(panel, spec, theta)
                                 - moment_function(shifted, spec, theta)))
            worst = max(worst, diff)
    ok = worst < 1e-12
    record_criterion(9, "fixed-effect invariance", ok, f"max dev={worst:.2e}")
    assert ok


def test_criterion_10_basis_orthonormality():
    quad = build_quadrature(99)
    worst = 0.0
    for inner in range(6):
        for degree in (1, 2, 3):
            basis = build_bspline_basis(inner, degree, quad)
            dev = np.max(np.abs(basis.gram_matrix() - np.eye(basis.size)))
            worst = max(worst, dev)
    ok = worst < 1e-8
    record_criterion(10, "basis orthonormality", ok, f"max dev={worst:.2e}")
    assert ok


def test_criterion_11_ci_coverage(run_r1):
    rates = run_r1.coverage
    ok = (run_r1.coverage_count >= 450
          and all(0.90 <= rates[p] <= 0.98 for p in (0.25, 0.5, 0.75)))
    detail = " ".join(f"s={p}:{rates[p]:.3f}" for p in (0.25, 0.5, 0.75))
    record_criterion(11, "95% CI coverage", ok, detail)
    assert ok, detail


def test_criterion_12_geometric_truncation_decay():
    from fnar.network import build_lattice_weights

    quad = build_quadrature(99)
    operator = small_operator("kernel", quad)
    weights = build_lattice_weights(40, 5)
    alpha = mc_alpha(quad.points)
    rate = float(np.max(np.abs(alpha))) * operator.contraction_bound() * weights.row_sup
    unit = int(np.argmax(weights.degrees))
    eta = 1.0 + 0.5 * np.sin(3 * quad.points)
    res = impulse_response(alpha, operator, weights, unit, eta, order=11)
    sups = np.array([np.max(np.abs(res.per_order[ell])) for ell in range(12)])
    ratios = sups[2:12] / sups[1:11]
    ok = np.all(ratios <= rate + 0.05)
    record_criterion(12, "geometric truncation decay", ok,
                     f"max ratio={ratios.max():.3f} bound={rate + 0.05:.3f}")
    assert ok
