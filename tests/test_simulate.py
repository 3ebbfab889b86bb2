import numpy as np
import pytest
from numpy.testing import assert_allclose

from fnar import simulate
from fnar.basis import build_quadrature
from fnar.errors import InvalidArgumentError, NonStationaryDgpError, SchemaError
from fnar.interaction import PointEval, network_lag
from fnar.io import read_panel, write_panel
from fnar.network import build_lattice_weights
from fnar.simulate import (
    DgpConfig,
    _ROW_BLOCK,
    _draw_mc_panel,
    _mc_parts,
    _poly_error_paths,
    gen_mc_errors,
    mc_alpha,
    mc_beta,
    neumann_solve,
    simulate_mc_panel,
)

from conftest import ring_weights, small_operator


def allocating_neumann_solve(cfg, rhs):
    """The update neumann_solve made before it worked in place and in row
    blocks, kept as the oracle: whole arrays, with the same errors."""
    y = rhs.copy()
    for iteration in range(1, simulate._MAX_ITER + 1):
        propagated = cfg.alpha[None, :] * network_lag(cfg.weights, cfg.operator.apply_grid(y))
        y_next = propagated + rhs
        change = float(np.max(np.abs(y_next - y)))
        y = y_next
        if not np.isfinite(change):
            raise NonStationaryDgpError(
                f"iteration diverged to non-finite values at step {iteration}"
            )
        if change < simulate._TOL:
            return y, iteration, change
    raise NonStationaryDgpError(
        f"no convergence within {simulate._MAX_ITER} iterations (last change {change:.3g})"
    )


def allocating_draw_mc_panel(parts, seed):
    """The draw _draw_mc_panel made before it streamed the error paths one
    period at a time: the whole (n, T, G) error array, then each period."""
    seq = np.random.SeedSequence(seed)
    seed_net, seed_x, seed_eps = seq.spawn(3)
    n, T, quad = parts.n, parts.T, parts.quad
    weights = build_lattice_weights(n, np.random.default_rng(seed_net))
    cfg = DgpConfig(alpha=parts.alpha, beta=parts.beta, fixed_effects=parts.fixed_effects,
                    operator=parts.operator, weights=weights)
    x = np.random.default_rng(seed_x).normal(size=(n, T, 1))
    eps = gen_mc_errors(n, T, weights, quad, np.random.default_rng(seed_eps))
    y = np.empty((n, T, quad.count))
    for t in range(T):
        rhs = x[:, t, :] @ cfg.beta + cfg.fixed_effects + eps[:, t, :]
        y[:, t, :] = allocating_neumann_solve(cfg, rhs)[0]
    return y, x


@pytest.fixture
def stop_rule(monkeypatch):
    """Sets neumann_solve's stopping rule for one test."""
    def set_rule(tol=simulate._TOL, max_iter=simulate._MAX_ITER):
        monkeypatch.setattr(simulate, "_TOL", tol)
        monkeypatch.setattr(simulate, "_MAX_ITER", max_iter)
    return set_rule


def _without_margin_check(build):
    """``build()`` with DgpConfig's stationarity check passed, for divergence
    experiments; the config's own margin is not changed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DgpConfig, "stationarity_margin", lambda self: 0.0)
        return build()


def _point_eval_config(n=6, alpha_const=0.5):
    quad = build_quadrature(33)
    w = ring_weights(n)
    return DgpConfig(
        alpha=np.full(33, alpha_const),
        beta=np.ones((1, 33)),
        fixed_effects=np.zeros((n, 33)),
        operator=PointEval(quad),
        weights=w,
    ), quad, w


class TestNeumann:
    def test_zero_alpha_returns_rhs(self, stop_rule):
        stop_rule(tol=1e-10)
        cfg, quad, w = _point_eval_config(alpha_const=0.0)
        rhs = np.random.default_rng(0).normal(size=(6, 33))
        res = neumann_solve(cfg, rhs)
        assert_allclose(res.values, rhs)
        assert res.iterations == 1
        assert not np.shares_memory(res.values, rhs)

    def test_point_eval_matches_direct_solve(self):
        cfg, quad, w = _point_eval_config(alpha_const=0.6)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(6, 33))
        res = neumann_solve(cfg, rhs)
        dense_w = w.dense()
        for g in range(33):
            direct = np.linalg.solve(np.eye(6) - cfg.alpha[g] * dense_w, rhs[:, g])
            assert np.max(np.abs(res.values[:, g] - direct)) < 2 * simulate._TOL

    def test_nonstationary_config_rejected(self):
        with pytest.raises(NonStationaryDgpError):
            _point_eval_config(n=2, alpha_const=1.2)

    def test_forced_nonstationary_iteration_diverges(self, stop_rule):
        stop_rule(tol=1e-10)
        cfg, quad, w = _without_margin_check(lambda: _point_eval_config(n=2, alpha_const=1.2))
        # symmetric 2-cycle: spectral radius 1.2 > 1, partial sums blow up
        rhs = np.ones((2, 33))
        with pytest.raises(NonStationaryDgpError):
            neumann_solve(cfg, rhs)

    def test_residual_within_geometric_tail(self):
        cfg, quad, w = _point_eval_config(alpha_const=0.6)
        rhs = np.random.default_rng(2).normal(size=(6, 33))
        y = neumann_solve(cfg, rhs).values
        fixed_point = cfg.alpha * network_lag(cfg.weights, cfg.operator.apply_grid(y)) + rhs
        q = cfg.stationarity_margin()
        bound = simulate._TOL * (1 + q) / (1 - q)
        assert np.max(np.abs(y - fixed_point)) < bound

    def test_halving_alpha_weakly_reduces_iterations(self, stop_rule):
        stop_rule(tol=1e-8)
        cfg_full, quad, w = _point_eval_config(alpha_const=0.8)
        cfg_half, _, _ = _point_eval_config(alpha_const=0.4)
        rhs = np.random.default_rng(3).normal(size=(6, 33))
        assert neumann_solve(cfg_half, rhs).iterations <= neumann_solve(cfg_full, rhs).iterations

    def test_doubled_kernel_pushes_margin_past_one(self, stop_rule):
        # contraction certificate 1.5 combined with |alpha| * ||W|| = 0.9
        # breaks the stationarity margin, and the iteration indeed blows up
        from fnar.interaction import KernelIntegral, epanechnikov_kernel

        quad = build_quadrature(33)
        op = KernelIntegral(quad, kernel=lambda u, s: 2.0 * epanechnikov_kernel(u, s))
        assert op.contraction_bound() == pytest.approx(1.5)
        w = ring_weights(2)
        stop_rule(max_iter=500)

        def build():
            return DgpConfig(alpha=np.full(33, 0.9), beta=np.ones((1, 33)),
                             fixed_effects=np.zeros((2, 33)), operator=op, weights=w)

        with pytest.raises(NonStationaryDgpError, match="stationarity margin 1.35 >= 1"):
            build()
        cfg = _without_margin_check(build)
        assert cfg.stationarity_margin() == pytest.approx(1.35)
        with pytest.raises(NonStationaryDgpError):
            neumann_solve(cfg, np.ones((2, 33)))

    @pytest.mark.parametrize("kind", ["point", "kernel", "window"])
    def test_in_place_update_matches_allocating_update(self, kind, stop_rule):
        stop_rule(tol=1e-12)
        quad = build_quadrature(33)
        cfg = DgpConfig(alpha=0.6 * np.cos(quad.points), beta=np.ones((1, 33)),
                        fixed_effects=np.zeros((9, 33)), operator=small_operator(kind, quad),
                        weights=ring_weights(9))
        rhs = np.random.default_rng(4).normal(size=(9, 33))
        before = rhs.copy()
        res = neumann_solve(cfg, rhs)
        values, iterations, change = allocating_neumann_solve(cfg, rhs)
        assert np.array_equal(res.values, values)
        assert (res.iterations, res.final_change) == (iterations, change)
        assert np.array_equal(rhs, before)
        assert not np.shares_memory(res.values, rhs)

    def test_in_place_update_matches_allocating_update_on_mc_design(self):
        _, cfg = simulate_mc_panel(3200, 1, 1.0, seed=5)
        rhs = np.random.default_rng(6).normal(size=(3200, cfg.operator.grid.count))
        before = rhs.copy()
        res = neumann_solve(cfg, rhs)
        values, iterations, change = allocating_neumann_solve(cfg, rhs)
        assert np.array_equal(res.values, values)
        assert (res.iterations, res.final_change) == (iterations, change)
        assert np.array_equal(rhs, before)
        assert not np.shares_memory(res.values, rhs)

    def test_rhs_of_wrong_shape_rejected(self):
        cfg, _, _ = _point_eval_config()
        for shape in ((5, 33), (6, 32), (6,)):
            with pytest.raises(InvalidArgumentError, match="right-hand side"):
                neumann_solve(cfg, np.zeros(shape))


def _oracle_error(solve, cfg, rhs):
    with pytest.raises(NonStationaryDgpError) as err, np.errstate(over="ignore",
                                                                   invalid="ignore"):
        solve(cfg, rhs)
    return str(err.value)


class TestRowBlocks:
    """neumann_solve updates _ROW_BLOCK rows at a time; every size, error
    and message must be those of the whole-array oracle."""

    def _ring_config(self, n):
        quad = build_quadrature(33)
        return DgpConfig(alpha=np.full(33, 0.5), beta=np.ones((1, 33)),
                         fixed_effects=np.zeros((n, 33)), operator=PointEval(quad),
                         weights=ring_weights(n))

    def test_divergence_first_in_a_later_block(self, stop_rule):
        # near-overflow values in the third block reach inf at step 2, while
        # every other block stays finite
        n = 2 * _ROW_BLOCK + 76
        stop_rule(tol=1e-12)
        cfg = self._ring_config(n)
        rhs = np.random.default_rng(7).normal(size=(n, 33))
        rhs[2 * _ROW_BLOCK + 26] = 1.7e308
        message = _oracle_error(neumann_solve, cfg, rhs)
        assert message == "iteration diverged to non-finite values at step 2"
        assert message == _oracle_error(allocating_neumann_solve, cfg, rhs)

    def test_max_iter_exhausted_reports_the_same_last_change(self, stop_rule):
        # the largest change sits in the ragged last block
        n = 2 * _ROW_BLOCK + 1
        stop_rule(tol=1e-300, max_iter=3)
        cfg = self._ring_config(n)
        rhs = np.random.default_rng(8).normal(size=(n, 33))
        rhs[n - 1] *= 100.0
        message = _oracle_error(neumann_solve, cfg, rhs)
        assert message.startswith("no convergence within 3 iterations (last change ")
        assert message == _oracle_error(allocating_neumann_solve, cfg, rhs)

    @pytest.mark.parametrize("n", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                   2 * _ROW_BLOCK, 3 * _ROW_BLOCK + 1])
    def test_block_edges_match_oracle(self, n, stop_rule):
        stop_rule(tol=1e-9)
        cfg = self._ring_config(n)
        rhs = np.random.default_rng(n).normal(size=(n, 33))
        res = neumann_solve(cfg, rhs)
        values, iterations, change = allocating_neumann_solve(cfg, rhs)
        assert np.array_equal(res.values, values)
        assert (res.iterations, res.final_change) == (iterations, change)


class TestSolverSettings:
    """neumann_solve's stopping rule is the module constants _TOL and _MAX_ITER."""

    def test_one_iteration_suffices_without_interaction(self, stop_rule):
        stop_rule(tol=1e-10, max_iter=1)
        cfg, _, _ = _point_eval_config(alpha_const=0.0)
        rhs = np.random.default_rng(3).normal(size=(6, 33))
        assert neumann_solve(cfg, rhs).iterations == 1


class TestMcErrors:
    def test_period_slices_give_the_whole_array(self):
        quad = build_quadrature(17)
        draws = np.random.default_rng(9).normal(0.0, 0.4, size=(7, 4, 3))
        degrees = np.arange(7, dtype=float)
        whole = _poly_error_paths(draws, degrees, quad.points)
        for t in range(4):
            assert np.array_equal(_poly_error_paths(draws[:, t, :], degrees, quad.points),
                                  whole[:, t, :])

    def test_forced_unit_coefficients(self):
        points = build_quadrature(33).points
        draws = np.zeros((1, 1, 3))
        draws[0, 0, 0] = 1.0  # e = (1, 0, 0)
        paths = _poly_error_paths(draws, np.array([0.0]), points)
        assert_allclose(paths[0, 0], np.ones(33))

    def test_degree_scaling(self):
        points = build_quadrature(9).points
        draws = np.ones((2, 1, 3)) * np.array([1.0, 0.0, 0.0])
        paths = _poly_error_paths(draws, np.array([0.0, 3.0]), points)
        assert_allclose(paths[1, 0] / paths[0, 0], 2.0)

    def test_variance_at_origin_and_one(self):
        quad = build_quadrature(9)
        w = ring_weights(4)  # every unit has degree 2
        rng = np.random.default_rng(42)
        eps = gen_mc_errors(4, 25000, w, quad, rng)
        var0 = eps[:, :, 0].var()  # s ~ 0.1, Var = 3(1 + s^2 + s^4) * 0.16-ish
        s0 = quad.points[0]
        expected0 = 3.0 * 0.16 * (1 + s0**2 + s0**4)
        assert var0 == pytest.approx(expected0, rel=0.02)
        # evaluate exactly at s = 1 through the polynomial form
        draws = rng.normal(0, 0.4, size=(4, 100000, 3))
        at_one = np.sqrt(3.0) * draws.sum(axis=2)
        assert at_one.var() == pytest.approx(3 * 0.16 * 3, rel=0.02)


class TestMcPanel:
    def test_alpha_truth_value(self):
        # density at its mode: 1/(0.5 sqrt(2 pi)), plus 0.2*0.4 - 0.4*0.16
        manual = 1.0 / (0.5 * np.sqrt(2 * np.pi)) + 0.08 - 0.064
        assert mc_alpha(0.4) == pytest.approx(manual, abs=1e-12)
        assert manual == pytest.approx(0.81388, abs=5e-6)

    def test_alpha_equals_scipy_density_bitwise(self):
        from scipy.stats import norm

        def scipy_alpha(s):  # mc_alpha as it was written on scipy.stats
            s = np.asarray(s, dtype=float)
            return norm.pdf(s, loc=0.4, scale=0.5) + 0.2 * s - 0.4 * s**2

        for s in (build_quadrature(99).points, np.linspace(0.0, 1.0, 1001),
                  np.random.default_rng(7).uniform(-1.0, 2.0, size=(20, 5))):
            assert np.array_equal(mc_alpha(s), scipy_alpha(s))
        for s in (0.0, 0.25, 0.4, 0.73, 1.0):
            got = mc_alpha(s)
            assert np.ndim(got) == 0 and got == scipy_alpha(s)

    def test_beta_truth_value(self):
        assert mc_beta(0.0, 1.0) == pytest.approx(1.0)
        assert mc_beta(0.0, 0.4) == pytest.approx(0.4)

    def test_stationarity_margin_of_design(self):
        _, truth = simulate_mc_panel(20, 2, 1.0, seed=0)
        margin = truth.stationarity_margin()
        assert margin < 1.0
        assert margin == pytest.approx(0.75 * np.max(np.abs(mc_alpha(truth.operator.grid.points))), rel=1e-6)

    def test_determinism(self):
        p1, _ = simulate_mc_panel(15, 3, 0.4, seed=99)
        p2, _ = simulate_mc_panel(15, 3, 0.4, seed=99)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.x, p2.x)

    def test_alpha_scale_can_break_stationarity(self):
        with pytest.raises(NonStationaryDgpError):
            simulate_mc_panel(10, 2, 1.0, seed=1, alpha_scale=2.0)

    def test_r_must_be_positive(self):
        from fnar.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            simulate_mc_panel(10, 2, 0.0, seed=1)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_r_must_be_finite(self, r):
        from fnar.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError, match="finite"):
            simulate_mc_panel(10, 2, r, seed=1)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_alpha_scale_must_be_finite(self, scale):
        # a NaN scale passes the stationarity check and diverges in the iteration
        with pytest.raises(InvalidArgumentError, match="alpha scale must be finite"):
            simulate_mc_panel(10, 2, 1.0, seed=1, alpha_scale=scale)

    def test_draws_share_the_parts_unchanged(self):
        parts = _mc_parts(12, 3, 0.4, 17)
        before = [np.copy(parts.alpha), np.copy(parts.beta), np.copy(parts.fixed_effects),
                  np.copy(parts.operator.matrix)]
        first, truth = _draw_mc_panel(parts, 5)
        _draw_mc_panel(parts, 6)
        again, _ = _draw_mc_panel(parts, 5)
        public, public_truth = simulate_mc_panel(12, 3, 0.4, seed=5, n_quad=17)
        for got in (again, public):
            assert np.array_equal(got.y, first.y) and np.array_equal(got.x, first.x)
        after = [parts.alpha, parts.beta, parts.fixed_effects, parts.operator.matrix]
        assert all(np.array_equal(a, b) for a, b in zip(before, after, strict=True))
        assert truth.alpha is parts.alpha
        assert np.array_equal(public_truth.alpha, truth.alpha)

    @pytest.mark.parametrize("n", [2, 40, 513, 1025, 3200])
    def test_streamed_draw_matches_allocating_draw(self, n):
        # one block, several blocks and a ragged last block
        parts = _mc_parts(n, 3, 1.0)
        panel, _ = _draw_mc_panel(parts, 424242)
        y, x = allocating_draw_mc_panel(parts, 424242)
        assert np.array_equal(panel.y, y) and np.array_equal(panel.x, x)

    @pytest.mark.parametrize("T", [0, -2])
    def test_needs_a_period(self, T):
        from fnar.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError, match="at least one period"):
            simulate_mc_panel(10, T, 1.0, seed=1)

    @pytest.mark.parametrize("n_quad", [1, 0, -3])
    def test_rejects_fewer_than_two_grid_points(self, n_quad):
        with pytest.raises(InvalidArgumentError, match="at least 2 points"):
            simulate_mc_panel(16, 3, 1.0, seed=3, n_quad=n_quad)

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_rejected(self, seed):
        from fnar.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError, match="non-negative"):
            simulate_mc_panel(10, 2, 1.0, seed=seed)


class TestPanelIo:
    def test_round_trip(self, tmp_path):
        panel, _ = simulate_mc_panel(5, 3, 1.0, seed=4, n_quad=17)
        write_panel(panel, tmp_path / "obs.csv", tmp_path / "cov.csv")
        back = read_panel(tmp_path / "obs.csv", tmp_path / "cov.csv", build_quadrature(17))
        assert_allclose(back.y, panel.y)
        assert_allclose(back.x, panel.x)
        assert back.quad.count == 17

    def test_unbalanced_rejected(self, tmp_path):
        panel, _ = simulate_mc_panel(3, 2, 1.0, seed=4, n_quad=9)
        write_panel(panel, tmp_path / "obs.csv", tmp_path / "cov.csv")
        lines = (tmp_path / "obs.csv").read_text().splitlines()
        # drop the last (unit, period)'s rows: a cell with fewer points is valid
        (tmp_path / "obs.csv").write_text("\n".join(lines[:-9]) + "\n")
        with pytest.raises(SchemaError):
            read_panel(tmp_path / "obs.csv", tmp_path / "cov.csv", build_quadrature(9))
