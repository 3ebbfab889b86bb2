import numpy as np
import pytest
from numpy.testing import assert_allclose

from fnar.basis import _bspline_design, build_bspline_basis, build_quadrature
from fnar.errors import DomainError, IllConditionedBasisError, InvalidArgumentError


class TestQuadrature:
    def test_99_points_equally_spaced(self):
        quad = build_quadrature(99)
        assert_allclose(quad.points, np.arange(1, 100) / 100.0)
        assert_allclose(quad.weights, np.full(99, 1 / 99))
        assert quad.weights.sum() == pytest.approx(1.0)

    def test_three_points(self):
        quad = build_quadrature(3)
        assert_allclose(quad.points, [0.25, 0.5, 0.75])
        assert_allclose(quad.weights, [1 / 3] * 3)

    def test_degenerate_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_quadrature(1)

    @pytest.mark.parametrize("count", [10**12, 10**30])
    def test_count_too_large_to_allocate_rejected(self, count):
        # 7.3 TiB and 10**30 points both exceed MAX_ARRAY_BYTES
        with pytest.raises(InvalidArgumentError,
                           match=f"grid count {count} needs more memory than can be"):
            build_quadrature(count)

    def test_integrate_linear_exactly(self):
        quad = build_quadrature(99)
        assert quad.integrate(2.0 + 3.0 * quad.points) == pytest.approx(3.5, abs=1e-12)


class TestBSplineBasis:
    def test_two_inner_knots_cubic(self, quad99):
        basis = build_bspline_basis(2, 3, quad99)
        assert basis.size == 6
        assert np.max(np.abs(basis.gram_matrix() - np.eye(6))) < 1e-8

    def test_constant_basis(self):
        quad = build_quadrature(9)
        basis = build_bspline_basis(0, 0, quad)
        assert basis.size == 1
        for s in (0.0, 0.37, 1.0):
            assert_allclose(basis.eval(s), [1.0], atol=1e-12)

    def test_three_knots_vs_highres_oracle(self):
        # orthonormality re-checked with an independently written inner product
        quad = build_quadrature(10**4)
        basis = build_bspline_basis(3, 3, quad)
        assert basis.size == 7
        vals = basis.eval_many(quad.points)
        gram = np.zeros((7, 7))
        for j in range(7):
            for k in range(7):
                gram[j, k] = np.sum(vals[:, j] * vals[:, k]) / quad.count
        assert np.max(np.abs(gram - np.eye(7))) < 1e-8

    @pytest.mark.parametrize("inner", range(6))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_orthonormality_sweep(self, inner, degree, quad99):
        basis = build_bspline_basis(inner, degree, quad99)
        assert basis.size == inner + degree + 1
        err = np.max(np.abs(basis.gram_matrix() - np.eye(basis.size)))
        assert err < 1e-8

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(IllConditionedBasisError):
            build_bspline_basis(5, 3, build_quadrature(10))

    def test_reproduces_raw_span(self, quad99):
        # any function already in the raw span projects back exactly
        basis = build_bspline_basis(2, 3, quad99)
        rng = np.random.default_rng(0)
        raw_coeffs = rng.normal(size=basis.size)
        from scipy.interpolate import BSpline

        target = BSpline(basis.knots, raw_coeffs, basis.degree)(quad99.points)
        recon = basis.values_on_grid @ basis.project(target)
        assert np.max(np.abs(recon - target)) < 1e-10


class TestDesignMatrix:
    """The numpy Cox-de Boor design matrix against scipy's compiled one, bit for bit."""

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("inner", range(9))
    def test_equals_scipy_bitwise(self, inner, degree):
        from scipy.interpolate import BSpline

        knots = build_bspline_basis(inner, degree, build_quadrature(199)).knots
        rng = np.random.default_rng(10 * inner + degree)
        for count in (2, 10, 99, 199):
            grid = build_quadrature(count).points
            for x in (grid, rng.uniform(size=count), np.array([0.0, 1.0]), knots,
                      np.concatenate([[0.0], grid, [1.0]])):
                want = BSpline.design_matrix(x, knots, degree).toarray()
                assert np.array_equal(_bspline_design(x, knots, degree), want)


class TestEvalBasis:
    def test_boundary_continuity(self, cubic_basis):
        left = cubic_basis.eval(0.0)
        near = cubic_basis.eval(1e-14)
        assert np.max(np.abs(left - near)) < 1e-12

    def test_outside_domain_rejected(self, cubic_basis):
        with pytest.raises(DomainError):
            cubic_basis.eval(-0.01)
        with pytest.raises(DomainError):
            cubic_basis.eval(1.01)

    @pytest.mark.parametrize("points", [[np.nan], [0.5, np.nan], [0.5, -np.inf], [np.inf]])
    def test_nan_and_infinite_points_rejected(self, cubic_basis, points):
        with pytest.raises(DomainError):
            cubic_basis.eval_many(np.array(points))

    def test_gram_trace_equals_size(self, cubic_basis):
        assert np.trace(cubic_basis.gram_matrix()) == pytest.approx(6.0, abs=1e-8)

    def test_lipschitz_on_dense_sample(self, cubic_basis):
        s = np.linspace(0.0, 1.0, 2001)
        vals = cubic_basis.eval_many(s)
        increments = np.abs(np.diff(vals, axis=0)) / np.diff(s)[:, None]
        assert np.max(increments) < 200.0  # finite slope everywhere
