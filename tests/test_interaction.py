import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fnar.basis import build_bspline_basis, build_quadrature, interp_on_grid
from fnar.errors import InvalidArgumentError
from fnar.estimator import MomentSpec, fit_gmm
from fnar.interaction import (
    KernelIntegral,
    PastWindow,
    PointEval,
    epanechnikov_kernel,
    network_lag,
)
from fnar.simulate import simulate_mc_panel

from conftest import ring_weights, small_operator

ORACLE_GRIDS = (2, 13, 15, 21, 33, 99, 999)
ORACLE_WIDTHS = (1e-3, 0.1, 0.25, 0.3, 0.5, 1.0)


def kernel_matrix_oracle(grid, kernel):
    """The kernel table weighted by the quadrature rule, as first written."""
    u = grid.points
    table = np.asarray(kernel(u[:, None], u[None, :]), dtype=float)
    return table * grid.weights[:, None]


def window_weights_oracle(grid, width, s):
    """Renormalized quadrature weights of the nodes in [max(0, s - width), s];
    zero when the window holds no node."""
    lo = max(0.0, s - width)
    mask = (grid.points >= lo) & (grid.points <= s)
    w = np.where(mask, grid.weights, 0.0)
    total = w.sum()
    if total <= 0.0:
        return np.zeros_like(w)
    return w / total


def window_matrix_oracle(grid, width):
    cols = np.zeros((grid.count, grid.count))
    for g, s in enumerate(grid.points):
        cols[:, g] = window_weights_oracle(grid, width, s)
    return cols


class TestGridMatrix:
    @pytest.mark.parametrize("count", ORACLE_GRIDS)
    def test_kernel_equals_oracle_bitwise(self, count):
        quad = build_quadrature(count)
        op = KernelIntegral(quad, kernel=epanechnikov_kernel)
        assert np.array_equal(op.matrix, kernel_matrix_oracle(quad, epanechnikov_kernel))
        assert op.contraction_bound() == float(np.max(np.abs(
            epanechnikov_kernel(quad.points[:, None], quad.points[None, :]))))

    @pytest.mark.parametrize("count", ORACLE_GRIDS)
    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_window_equals_oracle_bitwise(self, count, width):
        quad = build_quadrature(count)
        op = PastWindow(quad, width=width)
        assert np.array_equal(op.matrix, window_matrix_oracle(quad, width))
        # every node lies in its own window, so no column is empty
        assert np.all(op.matrix.sum(axis=0) > 0.0)

    @pytest.mark.parametrize("build", [lambda quad: KernelIntegral(quad, epanechnikov_kernel),
                                       lambda quad: PastWindow(quad, width=0.25)])
    def test_table_too_large_to_allocate_rejected(self, build):
        # a 16 MB grid whose 29 TiB table is refused before any entry is computed
        with pytest.raises(InvalidArgumentError,
                           match="grid count 2000000 needs a 2000000 x 2000000 operator table"):
            build(build_quadrature(2 * 10**6))


class TestApplyIsInterpolant:
    """A(h, s) is the linear interpolant of the grid image, everywhere."""

    @staticmethod
    def _points(quad):
        nodes = quad.points
        spec = MomentSpec(basis=build_bspline_basis(2, 3, quad),
                          operator=PointEval(quad), weights=ring_weights(4))
        return np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]), [0.0, 1.0],
                               spec.points])

    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    @pytest.mark.parametrize("count", [13, 99])
    def test_scalar_and_array_points(self, kind, count):
        quad = build_quadrature(count)
        op = small_operator(kind, quad)
        rng = np.random.default_rng(count)
        h = rng.normal(size=(3, count))
        points = self._points(quad)
        want = interp_on_grid(op.apply_grid(h), quad, points)
        assert np.array_equal(op.apply(h, points), want)
        for k, s in enumerate(points):
            assert np.array_equal(op.apply(h, float(s)), want[:, k])

    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    def test_nodes_give_grid_image(self, kind, quad99):
        op = small_operator(kind, quad99)
        h = np.random.default_rng(8).normal(size=99)
        assert np.array_equal(op.apply(h, quad99.points), op.apply_grid(h))


class TestKernelTable:
    def test_constant_kernel_is_broadcast(self):
        quad = build_quadrature(99)
        op = KernelIntegral(quad, kernel=lambda u, s: 0.5)
        assert op.matrix.shape == (99, 99)
        assert np.array_equal(op.matrix, np.broadcast_to(0.5 * quad.weights[:, None], (99, 99)))
        assert op.contraction_bound() == 0.5

    def test_constant_kernel_fits(self):
        panel, truth = simulate_mc_panel(20, 5, 1.0, seed=3)
        op = KernelIntegral(panel.quad, kernel=lambda u, s: 0.5)
        spec = MomentSpec(basis=build_bspline_basis(2, 3, panel.quad), operator=op,
                          weights=truth.weights)
        fit = fit_gmm(panel, spec)
        assert np.all(np.isfinite(fit.theta))

    @pytest.mark.parametrize("kernel", [lambda u, s: 1.0 / np.abs(u - s),
                                        lambda u, s: np.where(u > s, np.nan, 1.0)],
                             ids=["singular", "nan"])
    def test_non_finite_kernel_rejected(self, kernel):
        with np.errstate(divide="ignore"):
            with pytest.raises(InvalidArgumentError, match="not finite"):
                KernelIntegral(build_quadrature(99), kernel=kernel)


class TestApply:
    def test_point_eval_on_constants(self, quad99):
        op = PointEval(quad99)
        h = np.full(99, 3.25)
        for s in (0.0, 0.31, 0.5, 1.0):
            assert op.apply(h, s) == pytest.approx(3.25, abs=1e-14)

    def test_epanechnikov_constant_at_half(self, quad99):
        # exact integral of 0.75 (1 - (u - 0.5)^2) over [0, 1] is 0.6875;
        # the shared rule carries O(G^-2) error, so check both resolutions
        op = KernelIntegral(quad99, kernel=epanechnikov_kernel)
        assert op.apply(np.ones(99), 0.5) == pytest.approx(0.6875, abs=2e-3)
        fine = build_quadrature(4999)
        op_fine = KernelIntegral(fine, kernel=epanechnikov_kernel)
        assert op_fine.apply(np.ones(4999), 0.5) == pytest.approx(0.6875, abs=5e-5)

    def test_past_window_full_width_constant(self, quad99):
        op = PastWindow(quad99, width=1.0)
        assert op.apply(np.ones(99), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_past_window_start_of_domain(self, quad99):
        op = PastWindow(quad99, width=0.25)
        h = 1.0 + quad99.points
        assert op.apply(h, 0.0) == pytest.approx(h[0], abs=1e-14)

    def test_grid_mismatch_rejected(self, quad99):
        op = PointEval(quad99)
        with pytest.raises(InvalidArgumentError):
            op.apply(np.ones(50), 0.5)

    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    def test_linearity(self, kind, quad99):
        op = small_operator(kind, quad99)
        rng = np.random.default_rng(5)
        h = rng.normal(size=99)
        g = rng.normal(size=99)
        a, b = 1.7, -0.4
        for s in quad99.points[::10]:
            lhs = op.apply(a * h + b * g, s)
            rhs = a * op.apply(h, s) + b * op.apply(g, s)
            assert abs(lhs - rhs) < 1e-12

    def test_narrow_kernel_approaches_point_eval(self):
        # local-average kernels shrink onto point evaluation on smooth inputs
        quad = build_quadrature(999)
        h = quad.points**3 - 0.2 * quad.points
        point = PointEval(quad)
        errors = []
        for width in (0.5, 0.25, 0.1):
            def kernel(u, s, w=width):
                raw = np.maximum(1.0 - ((u - s) / w) ** 2, 0.0)
                lo = np.maximum(s - w, 0.0)
                hi = np.minimum(s + w, 1.0)
                # normalize by the in-domain mass so the average is proper
                mass = (hi - lo) - ((hi - s) ** 3 + (s - lo) ** 3) / (3 * w**2)
                return raw / mass

            op = KernelIntegral(quad, kernel=kernel)
            # interior points: one-sided boundary windows converge only O(w)
            sup_err = max(
                abs(op.apply(h, s) - point.apply(h, s))
                for s in np.linspace(0.15, 0.85, 15)
            )
            errors.append(sup_err)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 6e-3


class TestNetworkLag:
    def test_zero_matrix(self, quad99):
        import scipy.sparse as sp

        from fnar.network import NetworkWeights

        w = NetworkWeights(w=sp.csr_array((3, 3)))
        y = np.random.default_rng(0).normal(size=(3, 99))
        assert_allclose(network_lag(w, y), np.zeros((3, 99)))

    def test_permutation_weights(self, quad99):
        import scipy.sparse as sp

        from fnar.network import NetworkWeights

        w = NetworkWeights(w=sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
        y = np.stack([np.ones(99), 2 * np.ones(99)])
        out = network_lag(w, y)
        assert_allclose(out[0], 2.0)
        assert_allclose(out[1], 1.0)

    def test_constant_functions_preserved_by_row_normalized(self):
        w = ring_weights(5)
        y = np.full((5, 20), 4.5)
        assert_allclose(network_lag(w, y), 4.5)

    def test_own_value_never_enters(self, quad99):
        w = ring_weights(6)
        rng = np.random.default_rng(1)
        y = rng.normal(size=(6, 99))
        base = network_lag(w, y)
        y2 = y.copy()
        y2[2] += 100.0
        out = network_lag(w, y2)
        assert_allclose(out[2], base[2])

    def test_dimension_mismatch(self):
        w = ring_weights(4)
        with pytest.raises(InvalidArgumentError):
            network_lag(w, np.ones((5, 9)))


class TestContractionBound:
    def test_point_eval(self, quad99):
        assert PointEval(quad99).contraction_bound() == 1.0

    def test_epanechnikov(self, quad99, epa_op):
        assert epa_op.contraction_bound() == pytest.approx(0.75, abs=1e-12)

    def test_scaled_kernel(self, quad99):
        op = KernelIntegral(quad99, kernel=lambda u, s: 2.0 * epanechnikov_kernel(u, s))
        assert op.contraction_bound() == pytest.approx(1.5, abs=1e-12)

    def test_past_window(self, quad99):
        assert PastWindow(quad99, width=0.5).contraction_bound() == 1.0

    def test_l2_bound_holds_empirically(self, quad99, epa_op):
        rng = np.random.default_rng(7)
        bound = epa_op.contraction_bound()
        for _ in range(10):
            h = rng.normal(size=99)
            image = epa_op.apply_grid(h)
            lhs = np.sqrt(quad99.integrate(image**2))
            rhs = bound * np.sqrt(quad99.integrate(h**2))
            assert lhs <= rhs + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    scale_a=st.floats(-3, 3, allow_nan=False),
    scale_b=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_linearity_property(scale_a, scale_b, seed):
    quad = build_quadrature(33)
    op = KernelIntegral(quad, kernel=epanechnikov_kernel)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=33)
    g = rng.normal(size=33)
    s = float(rng.uniform())
    lhs = op.apply(scale_a * h + scale_b * g, s)
    rhs = scale_a * op.apply(h, s) + scale_b * op.apply(g, s)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
