import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from fnar.basis import build_quadrature
from fnar.effects import (
    PropagationResult,
    gamma_power,
    impulse_response,
    marginal_effects,
    risk_key_player,
    total_impact,
    total_impacts,
)
from fnar.errors import InvalidArgumentError, NumericalFailureError
from fnar.interaction import PastWindow, PointEval
from fnar.network import NetworkWeights, build_lattice_weights
from fnar.simulate import mc_alpha, mc_beta, simulate_mc_panel

from conftest import ring_weights, small_operator


def truth_source(n, quad, operator, alpha=None, weights=None):
    """(alpha, operator, weights): alpha 0.5 on the grid and an n-unit ring by default."""
    return (alpha if alpha is not None else 0.5 * np.ones(quad.count), operator,
            weights if weights is not None else ring_weights(n))


def star_weights(n):
    """Hub 0 linked to every spoke; symmetric before row normalization."""
    w = np.zeros((n, n))
    w[0, 1:] = 1.0 / (n - 1)
    w[1:, 0] = 1.0
    return NetworkWeights(w=sp.csr_array(w))


class TestGammaPower:
    def test_order_zero_is_identity(self, quad99, epa_op):
        h = np.sin(quad99.points)
        assert_allclose(gamma_power(np.ones(99), epa_op, h, 0), h)

    def test_point_eval_scalar_recursion(self):
        quad = build_quadrature(21)
        op = PointEval(quad)
        a, c = 0.7, 2.0
        for ell in range(5):
            out = gamma_power(np.full(21, a), op, np.full(21, c), ell)
            assert_allclose(out, a**ell * c, atol=1e-12)

    def test_sup_norm_bound(self, quad99, epa_op):
        rng = np.random.default_rng(0)
        alpha = mc_alpha(quad99.points)
        a_bar = np.max(np.abs(alpha))
        b = epa_op.contraction_bound()
        for _ in range(5):
            h = rng.normal(size=99)
            for ell in range(1, 6):
                out = gamma_power(alpha, epa_op, h, ell)
                assert np.max(np.abs(out)) <= (a_bar * b) ** ell * np.max(np.abs(h)) + 1e-12

    def test_negative_order_rejected(self, quad99, epa_op):
        with pytest.raises(InvalidArgumentError):
            gamma_power(np.ones(99), epa_op, np.ones(99), -1)


class TestMarginalEffects:
    def test_zero_coefficient(self, quad99, epa_op):
        src = truth_source(4, quad99, epa_op)
        res = marginal_effects(*src, 1, np.zeros(99), order=4)
        assert_allclose(res.cumulative, 0.0)

    def test_order_zero_is_direct_effect(self, quad99, epa_op):
        beta = mc_beta(quad99.points, 1.0)[None, :]
        src = truth_source(4, quad99, epa_op)
        res = marginal_effects(*src, 2, beta[0], order=0)
        assert_allclose(res.cumulative[2], beta[0])
        assert_allclose(np.delete(res.cumulative, 2, axis=0), 0.0)

    def test_point_eval_closed_form(self):
        quad = build_quadrature(33)
        op = PointEval(quad)
        n = 6
        w = ring_weights(n)
        alpha = 0.55 + 0.1 * np.sin(6 * quad.points)
        beta = mc_beta(quad.points, 1.0)[None, :]
        res = marginal_effects(alpha, op, w, 0, beta[0], order=30)
        dense = w.dense()
        a_bar = np.max(np.abs(alpha))
        tail = a_bar**31 / (1 - a_bar) * np.max(np.abs(beta))
        e0 = np.zeros(n)
        e0[0] = 1.0
        for g in range(quad.count):
            direct = np.linalg.solve(np.eye(n) - alpha[g] * dense, e0) * beta[0, g]
            assert np.max(np.abs(res.cumulative[:, g] - direct)) <= tail + 1e-12

    def test_bad_unit_rejected(self, quad99, epa_op):
        src = truth_source(3, quad99, epa_op)
        with pytest.raises(InvalidArgumentError):
            marginal_effects(*src, 5, np.ones(99))


class TestImpulseResponse:
    def test_zero_shock(self, quad99, epa_op):
        src = truth_source(4, quad99, epa_op)
        res = impulse_response(*src, 1, np.zeros(99), order=5)
        assert_allclose(res.cumulative, 0.0)

    def test_concurrent_response_vanishes_off_support(self):
        quad = build_quadrature(49)
        op = PointEval(quad)
        src = truth_source(4, quad, op)
        eta = np.where(quad.points < 0.5, 1.0, 0.0)
        res = impulse_response(*src, 0, eta, order=6)
        on = quad.points < 0.5
        assert np.max(np.abs(res.cumulative[:, ~on])) == 0.0
        assert np.max(np.abs(res.cumulative[:, on])) > 0.0

    def test_backward_window_propagates_past_shocks(self):
        quad = build_quadrature(49)
        op = PastWindow(quad, width=0.5)
        src = truth_source(4, quad, op)
        eta = np.where(quad.points <= 0.2, 1.0, 0.0)  # shock before s' = 0.3
        res = impulse_response(*src, 0, eta, order=4)
        later = (quad.points > 0.3) & (quad.points < 0.6)
        neighbour = res.cumulative[1]
        assert np.max(np.abs(neighbour[later])) > 1e-4

    def test_linearity_in_shock(self, quad99, epa_op):
        src = truth_source(5, quad99, epa_op)
        rng = np.random.default_rng(3)
        e1, e2 = rng.normal(size=(2, 99))
        a, b = 1.3, -2.1
        r1 = impulse_response(*src, 2, e1, order=5)
        r2 = impulse_response(*src, 2, e2, order=5)
        r12 = impulse_response(*src, 2, a * e1 + b * e2, order=5)
        combo = a * r1.cumulative + b * r2.cumulative
        assert np.max(np.abs(r12.cumulative - combo)) < 1e-12

    def test_partial_sums_reconstruct(self, quad99, epa_op):
        src = truth_source(4, quad99, epa_op)
        res = impulse_response(*src, 0, np.ones(99), order=5)
        assert_allclose(res.partial(5), res.cumulative, atol=0)
        assert_allclose(res.partial(0), res.per_order[0], atol=0)

    def test_cumulative_is_not_an_argument(self, quad99):
        with pytest.raises(TypeError):
            PropagationResult(per_order=np.ones((2, 3, 99)), quad=quad99,
                              cumulative=np.zeros((3, 99)))


class TestTotalImpactAndKeyPlayer:
    def test_zero_shock_ties_to_first_unit(self, quad99, epa_op):
        src = truth_source(4, quad99, epa_op)
        assert risk_key_player(*src, np.zeros(99), order=4) == 0

    def test_symmetric_cycle_ties_to_lower_index(self, quad99, epa_op):
        src = truth_source(2, quad99, epa_op, weights=ring_weights(2))
        eta = np.exp(-quad99.points)
        assert risk_key_player(*src, eta, order=5) == 0

    def test_star_hub_dominates(self):
        quad = build_quadrature(33)
        op = PointEval(quad)
        n = 6
        w = star_weights(n)
        src = truth_source(n, quad, op, alpha=0.4 * np.ones(33), weights=w)
        eta = np.ones(33)
        # brute-force winner among all candidate units
        impacts = [
            total_impact(impulse_response(*src, i, eta, order=8)) for i in range(n)
        ]
        assert int(np.argmax(impacts)) == 0
        assert risk_key_player(*src, eta, order=8) == 0

    def test_total_impact_integrates_cumulative(self, quad99, epa_op):
        src = truth_source(3, quad99, epa_op)
        res = impulse_response(*src, 1, np.ones(99), order=3)
        manual = sum(quad99.integrate(res.cumulative[i]) for i in range(3))
        assert total_impact(res) == pytest.approx(manual, abs=1e-12)


def impact_oracle(alpha, operator, weights, eta, order, units):
    """Per-unit loop: one full propagation for each unit's shock."""
    return np.array([total_impact(impulse_response(alpha, operator, weights, i, eta, order))
                     for i in units])


GRAPHS = {
    "ring": lambda: ring_weights(12),
    "star": lambda: star_weights(9),
    "lattice": lambda: build_lattice_weights(200, 11),
}


class TestTotalImpacts:
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_per_unit_oracle(self, graph, kind, sign):
        quad = build_quadrature(33)
        w = GRAPHS[graph]()
        alpha = sign * (0.55 + 0.1 * np.sin(6 * quad.points))
        src = truth_source(w.n, quad, small_operator(kind, quad), alpha=alpha, weights=w)
        eta = 1.0 + 0.5 * np.cos(4 * quad.points)
        for order in (0, 1, 5):
            impacts = total_impacts(*src, eta, order)
            oracle = impact_oracle(*src, eta, order, range(w.n))
            assert impacts.shape == (w.n,)
            assert np.max(np.abs(impacts - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            assert risk_key_player(*src, eta, order) == int(np.argmax(impacts))

    def test_order_zero_is_the_shock_integral(self, quad99, epa_op):
        src = truth_source(5, quad99, epa_op)
        eta = np.exp(-quad99.points)
        impacts = total_impacts(*src, eta, order=0)
        assert_allclose(impacts, quad99.integrate(eta), rtol=1e-15)

    def test_zero_shock_is_exactly_zero(self, quad99, epa_op):
        src = truth_source(6, quad99, epa_op)
        impacts = total_impacts(*src, np.zeros(99), order=5)
        assert np.array_equal(impacts, np.zeros(6))

    def test_bad_shock_and_order_rejected(self, quad99, epa_op):
        src = truth_source(4, quad99, epa_op)
        with pytest.raises(InvalidArgumentError):
            total_impacts(*src, np.ones(98))
        with pytest.raises(InvalidArgumentError):
            total_impacts(*src, np.ones(99), order=-1)

    def test_near_tie_reports_one_of_the_tied_units(self):
        # units 1233 and 1447 of this panel have impacts equal to within one
        # ulp; which of them wins depends on rounding, never on a tolerance
        panel, truth = simulate_mc_panel(1600, 2, 1.0, 3)
        eta = np.ones(panel.quad.count)
        tied = (1233, 1447)
        src = truth.alpha, truth.operator, truth.weights
        impacts = total_impacts(*src, eta, order=5)
        star = risk_key_player(*src, eta, order=5)
        assert star in tied
        assert star == int(np.argmax(impacts))
        oracle = impact_oracle(*src, eta, 5, tied)
        assert abs(oracle[0] - oracle[1]) <= np.spacing(oracle.max())
        assert np.max(np.abs(impacts[list(tied)] - oracle)) <= 1e-12 * oracle.max()


def _with_entry(values, value):
    out = values.copy()
    out[3] = value
    return out


# each effects function, called with alpha and the function it propagates
EFFECTS = {
    "gamma_power": lambda alpha, op, w, h: gamma_power(alpha, op, h, 2),
    "marginal_effects": lambda alpha, op, w, h: marginal_effects(alpha, op, w, 0, h),
    "impulse_response": lambda alpha, op, w, h: impulse_response(alpha, op, w, 0, h),
    "total_impacts": total_impacts,
}
BAD_GRID_VALUES = {
    "short": lambda good: good[:-1],
    "scalar": lambda good: good[0],
    "row": lambda good: good[None, :],
    "nan": lambda good: _with_entry(good, np.nan),
    "inf": lambda good: _with_entry(good, -np.inf),
}


class TestGridValuesChecked:
    @pytest.mark.parametrize("effect", sorted(EFFECTS))
    @pytest.mark.parametrize("bad", sorted(BAD_GRID_VALUES))
    @pytest.mark.parametrize("which", ["alpha", "propagated"])
    def test_bad_values_rejected(self, quad99, epa_op, effect, bad, which):
        alpha, h = 0.5 * np.ones(99), np.ones(99)
        if which == "alpha":
            alpha = BAD_GRID_VALUES[bad](alpha)
        else:
            h = BAD_GRID_VALUES[bad](h)
        with pytest.raises(InvalidArgumentError):
            EFFECTS[effect](alpha, epa_op, ring_weights(4), h)

    def test_error_names_the_function(self, quad99, epa_op):
        w = ring_weights(4)
        with pytest.raises(InvalidArgumentError, match="alpha must have 99 grid values"):
            total_impacts(np.ones(98), epa_op, w, np.ones(99))
        with pytest.raises(InvalidArgumentError, match="beta grid values must be finite"):
            marginal_effects(np.ones(99), epa_op, w, 0, _with_entry(np.ones(99), np.nan))
        with pytest.raises(InvalidArgumentError, match="eta must have 99 grid values"):
            impulse_response(np.ones(99), epa_op, w, 0, 1.0)


def stacked_terms(alpha, operator, weights, unit, h, order):
    """The propagation terms as the effects layer built them before it
    allocated them up front: lists of iterates, stacked, then multiplied."""
    def iterates(step, start):
        out = [np.asarray(start, dtype=float)]
        for _ in range(order):
            out.append(step(out[-1]))
        return np.stack(out)

    gammas = iterates(lambda g: alpha * operator.apply_grid(g), h)
    reach = iterates(weights.w.__matmul__, np.eye(1, weights.n, unit)[0])
    walks = iterates(weights.w.T.__matmul__, np.ones(weights.n))
    return reach[:, :, None] * gammas[:, None, :], operator.grid.integrate(gammas) @ walks


class TestOrderAllocation:
    """Each propagation allocates its (order + 1)-row arrays before the first
    step: the values do not change, and an order whose arrays cannot be held
    fails at once."""

    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    def test_terms_match_stacked_oracle(self, kind):
        quad = build_quadrature(33)
        w = build_lattice_weights(60, 4)
        alpha = 0.55 + 0.1 * np.sin(6 * quad.points)
        src = alpha, small_operator(kind, quad), w
        h = 1.0 + 0.5 * np.cos(4 * quad.points)
        for order in (0, 1, 5, 12):
            per_order, impacts = stacked_terms(*src, 7, h, order)
            assert np.array_equal(impulse_response(*src, 7, h, order).per_order, per_order)
            assert np.array_equal(marginal_effects(*src, 7, h, order).per_order, per_order)
            assert np.array_equal(total_impacts(*src, h, order), impacts)

    # 10**12 + 1 rows of 99 grid values, 720 TiB, exceed MAX_ARRAY_BYTES
    @pytest.mark.parametrize("effect", sorted(EFFECTS))
    def test_order_too_large_to_allocate_rejected(self, quad99, epa_op, effect):
        src = truth_source(5, quad99, epa_op)
        call = {
            "gamma_power": lambda: gamma_power(src[0], epa_op, np.ones(99), 10**12),
            "marginal_effects": lambda: marginal_effects(*src, 0, np.ones(99), 10**12),
            "impulse_response": lambda: impulse_response(*src, 0, np.ones(99), 10**12),
            "total_impacts": lambda: total_impacts(*src, np.ones(99), 10**12),
        }[effect]
        with pytest.raises(InvalidArgumentError,
                           match="truncation order 1000000000000 needs more memory"):
            call()


class TestOverflow:
    """A propagation whose partial sums leave the doubles raises
    ``NumericalFailureError`` at the first walk length where one does, and
    numpy warns of nothing."""

    # on the two-unit exchange ring with point evaluation, Gamma^ell(h) is
    # alpha**ell h and unit 0's shock reaches unit ell mod 2 at walk length ell
    @pytest.mark.parametrize("alpha,h,lengths", [
        (1e200, 1.0, {"impulse_response": 2, "marginal_effects": 2, "total_impacts": 2}),
        # every term is finite: unit 0's sum overflows at 2, the total at 1
        (1.0, 1e308, {"impulse_response": 2, "marginal_effects": 2, "total_impacts": 1})])
    @pytest.mark.parametrize("effect", sorted(EFFECTS.keys() - {"gamma_power"}))
    def test_names_the_first_walk_length_that_overflows(self, effect, alpha, h, lengths):
        quad = build_quadrature(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError,
                               match=f"not finite from walk length {lengths[effect]}:"):
                EFFECTS[effect](np.full(9, alpha), PointEval(quad), ring_weights(2),
                                np.full(9, h))

    def test_total_impact_past_the_largest_double(self):
        # each unit's response is finite, their sum is not
        result = PropagationResult(per_order=np.full((1, 2, 9), 1e308),
                                   quad=build_quadrature(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="total impact is not finite"):
                total_impact(result)


class TestTruncationDecay:
    def test_geometric_decay_on_benchmark_operator(self, quad99, epa_op):
        w = build_lattice_weights(40, 5)
        alpha = mc_alpha(quad99.points)
        unit = int(np.argmax(w.degrees))
        eta = 1.0 + 0.5 * np.sin(3 * quad99.points)
        res = impulse_response(alpha, epa_op, w, unit, eta, order=11)
        rate = np.max(np.abs(alpha)) * epa_op.contraction_bound() * w.row_sup
        sups = np.array([np.max(np.abs(res.per_order[ell])) for ell in range(12)])
        ratios = sups[2:] / sups[1:-1]  # orders 1..10 against their successors
        assert np.all(ratios <= rate + 0.05)

    def test_fitted_propagation_tracks_truth_with_more_data(self):
        # propagation under the fit vs under the span-projected truth: the
        # gap is pure estimation noise, so seed-matched averages must shrink
        # when nT quadruples (the raw truth would add a fixed sieve bias)
        from fnar.basis import build_bspline_basis
        from fnar.estimator import GmmFit, MomentSpec, fit_gmm
        from fnar.simulate import simulate_mc_panel

        gaps = {"small": [], "large": []}
        for seed in range(60, 68):
            for label, (n, T) in (("small", (40, 5)), ("large", (80, 10))):
                panel, truth = simulate_mc_panel(n, T, 1.0, seed=seed)
                basis = build_bspline_basis(2, 3, panel.quad)
                spec = MomentSpec(basis=basis, operator=truth.operator,
                                  weights=truth.weights, n_points=10)
                fit = fit_gmm(panel, spec)
                theta_star = np.concatenate([
                    basis.project(truth.alpha), basis.project(truth.beta[0])
                ])
                pseudo = GmmFit(theta=theta_star, spec=spec, n=n, T=T, d_x=1,
                                method="projected-truth",
                                omega=np.eye(1), objective_value=0.0,
                                iterations=0, converged=True)
                unit = int(np.argmax(truth.weights.degrees))
                eta = np.ones(panel.quad.count)
                points = truth.operator.grid.points
                r_fit = impulse_response(fit.alpha(points), truth.operator, truth.weights,
                                         unit, eta, order=5)
                r_ref = impulse_response(pseudo.alpha(points), truth.operator, truth.weights,
                                         unit, eta, order=5)
                gaps[label].append(np.max(np.abs(r_fit.cumulative - r_ref.cumulative)))
        assert np.mean(gaps["large"]) < np.mean(gaps["small"])
