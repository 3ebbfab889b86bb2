import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest

import fnar.montecarlo as mc
from fnar import simulate
from fnar.basis import build_quadrature
from fnar.errors import (
    CannotDifferenceError,
    HarnessError,
    IllConditionedBasisError,
    InvalidArgumentError,
)
from fnar.montecarlo import McConfig, format_report, run_mc


def tiny_cfg(**kw):
    defaults = dict(n=16, T=3, L=8, inner_knots=2, r=1.0, estimators=("gmm1", "2sls"),
                    replications=4, base_seed=3, n_quad=33)
    defaults.update(kw)
    return McConfig(**defaults)


def paper_cell(**kw):
    """The simulation study's benchmark cell (table 1, r=1.0) with coverage."""
    defaults = dict(n=40, T=5, L=10, inner_knots=2, r=1.0,
                    estimators=("gmm1", "gmm2", "2sls"), coverage_points=(0.25, 0.5, 0.75))
    defaults.update(kw)
    return McConfig(**defaults)


# bias, RMSE and coverage of paper_cell(replications=10, base_seed=424242), as
# computed when each estimator still built its own moment design
GOLDEN_PAPER_CELL = {
    ("gmm1", "alpha"): (0.0013033700400481379, 0.0834556268187991),
    ("gmm1", "beta"): (0.03570619295651057, 0.07895064393936338),
    ("gmm2", "alpha"): (-0.0023454229839675713, 0.15103286184653356),
    ("gmm2", "beta"): (0.03855063330096316, 0.0883677571159788),
    ("2sls", "alpha"): (0.00044066483632208207, 0.09407672443399875),
    ("2sls", "beta"): (0.03762917830662001, 0.07812263845474185),
}
GOLDEN_COVERAGE = (0.9, 0.8, 0.8)


class TestConfig:
    """McConfig checks the harness's own values; the builders check the
    design values when ``run_mc`` reaches them, the basis before the first
    replication and the rest at it."""

    def test_rejects_empty_estimators(self):
        with pytest.raises(InvalidArgumentError):
            tiny_cfg(estimators=())

    def test_rejects_unknown_estimator(self):
        with pytest.raises(InvalidArgumentError):
            tiny_cfg(estimators=("ols",))

    @pytest.mark.parametrize("estimators", [("gmm1", "gmm1"), ("gmm1", "2sls", "gmm1")])
    def test_rejects_repeated_estimator(self, estimators):
        # a repeat would score, and report, the same fits twice
        with pytest.raises(InvalidArgumentError, match="must not repeat"):
            tiny_cfg(estimators=estimators)

    def test_coverage_needs_gmm1(self):
        with pytest.raises(InvalidArgumentError):
            tiny_cfg(estimators=("2sls",), coverage_points=(0.5,))

    @pytest.mark.parametrize("points", [(1.5,), (-0.1, 0.5), (np.nan, 0.5), (0.5, np.inf)])
    def test_rejects_coverage_points_outside_unit_interval(self, points):
        with pytest.raises(InvalidArgumentError, match="coverage points"):
            tiny_cfg(estimators=("gmm1",), coverage_points=points)

    def test_coverage_at_the_end_points(self):
        rep = run_mc(tiny_cfg(estimators=("gmm1",), coverage_points=(0.0, 1.0), replications=1))
        assert set(rep.coverage) == {0.0, 1.0}

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(InvalidArgumentError, match="at least one worker"):
            tiny_cfg(workers=workers)

    @pytest.mark.parametrize("T", [1, 0])
    def test_rejects_fewer_than_two_periods(self, T):
        # one period simulates but cannot be differenced; zero cannot be simulated
        error = CannotDifferenceError if T == 1 else InvalidArgumentError
        with pytest.raises(error, match="period"):
            run_mc(tiny_cfg(T=T))

    def test_rejects_negative_base_seed(self):
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            tiny_cfg(base_seed=-1)

    def test_rejects_negative_inner_knots(self):
        with pytest.raises(InvalidArgumentError, match="inner knot count"):
            run_mc(tiny_cfg(inner_knots=-1))
        assert run_mc(tiny_cfg(inner_knots=0, replications=1)).failures == 0

    @pytest.mark.parametrize("n_quad", [1, 0, -3])
    def test_rejects_fewer_than_two_grid_points(self, n_quad):
        with pytest.raises(InvalidArgumentError, match="at least 2 points"):
            run_mc(tiny_cfg(n_quad=n_quad))

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_covariate_strength(self, r):
        with pytest.raises(InvalidArgumentError, match="finite"):
            run_mc(tiny_cfg(r=r))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("design,message", [
        ({"n": 1}, "at least 2 units"),
        ({"L": 3}, "as many moment points as basis functions"),
        ({"L": 0}, "as many moment points as basis functions"),
    ], ids=["n=1", "L=3", "L=0"])
    def test_design_error_stops_the_run(self, design, message, workers):
        # the same error in every replication, so it is raised, not counted
        with pytest.raises(InvalidArgumentError, match=message):
            run_mc(tiny_cfg(workers=workers, **design))


class TestSharedBasis:
    """The basis depends on the design alone: one ``run_mc`` call builds it once."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        original, calls = getattr(mc, name), []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, name, counting)
        return calls

    def test_one_run_builds_the_basis_once(self, monkeypatch):
        builds = self._count_calls(monkeypatch, "build_bspline_basis")
        rep = run_mc(tiny_cfg(replications=5, coverage_points=(0.5,)))
        assert len(builds) == 1 and rep.failures == 0

    def test_one_run_builds_the_simulation_parts_once(self, monkeypatch):
        parts = self._count_calls(monkeypatch, "_mc_parts")
        draws = self._count_calls(monkeypatch, "_draw_mc_panel")
        rep = run_mc(tiny_cfg(replications=5, coverage_points=(0.5,)))
        assert len(parts) == 1 and len(draws) == 5 and rep.failures == 0

    def test_one_run_builds_one_grid(self, monkeypatch):
        # the basis and the simulation share it
        grids = []
        for module in (mc, simulate):
            monkeypatch.setattr(module, "build_quadrature",
                                lambda count: grids.append(count) or build_quadrature(count))
        rep = run_mc(tiny_cfg(replications=2))
        assert grids == [33] and rep.failures == 0

    def test_basis_too_fine_stops_before_the_first_replication(self, monkeypatch):
        simulations = self._count_calls(monkeypatch, "_draw_mc_panel")
        # K = 24 + 4 spline functions need at least 56 grid points, not 33;
        # the basis is checked before the simulation's values
        for bad in ({}, {"r": -1.0}, {"T": 0}):
            with pytest.raises(IllConditionedBasisError, match="cannot resolve"):
                run_mc(tiny_cfg(inner_knots=24, **bad))
        assert simulations == []


class TestRun:
    def test_reproducible(self):
        r1 = run_mc(tiny_cfg())
        r2 = run_mc(tiny_cfg())
        assert r1.bias == r2.bias
        assert r1.rmse == r2.rmse
        for key in r1.per_rep_rmse:
            assert np.array_equal(r1.per_rep_rmse[key], r2.per_rep_rmse[key])

    def test_worker_count_invariance(self):
        serial = run_mc(tiny_cfg())
        parallel = run_mc(tiny_cfg(workers=2))
        assert serial.bias == parallel.bias
        assert serial.rmse == parallel.rmse

    @pytest.mark.parametrize("workers,replications,cpus,started", [
        (100_000, 16, 64, 2),  # two chunks of 8 replications
        (3, 40, 64, 3),
        (100_000, 40, 4, 4),
        (2, 1, 64, 1),
        (100_000, 16, None, 1),  # CPU count unknown
    ])
    def test_pool_capped_at_cpus_and_chunks(self, monkeypatch, workers, replications, cpus,
                                            started):
        # a fake pool records its size and maps in this process, starting none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        cfg = tiny_cfg(n=5, estimators=("2sls",), replications=replications)
        rep = run_mc(replace(cfg, workers=workers))
        assert sizes == [started]
        assert rep.rmse == run_mc(cfg).rmse

    def test_worker_count_invariance_of_the_whole_report(self):
        # the workers get the config-only values in their payload, pickled
        serial = run_mc(paper_cell(replications=6, base_seed=21))
        parallel = run_mc(paper_cell(replications=6, base_seed=21, workers=2))
        assert serial.coverage_count > 0
        for name in ("bias", "rmse", "coverage", "coverage_count", "coverage_skipped",
                     "failures", "errors", "nonconverged"):
            assert getattr(serial, name) == getattr(parallel, name), name
        for name in ("per_rep_err", "per_rep_rmse"):
            got, want = getattr(parallel, name), getattr(serial, name)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in want), name

    def test_single_replication_identity(self):
        rep = run_mc(tiny_cfg(replications=1))
        for key in rep.rmse:
            assert rep.rmse[key] >= abs(rep.bias[key])

    def test_rmse_dominates_bias(self):
        rep = run_mc(tiny_cfg())
        for key in rep.rmse:
            assert rep.rmse[key] >= abs(rep.bias[key]) - 1e-15

    def test_coverage_tracking(self):
        rep = run_mc(tiny_cfg(estimators=("gmm1",), coverage_points=(0.5,)))
        assert rep.coverage_count == 4
        assert rep.coverage_skipped == 0
        assert 0.0 <= rep.coverage[0.5] <= 1.0

    def test_coverage_skips_non_converged_gmm1_fits_and_counts_them(self, monkeypatch):
        import fnar.estimator as est

        monkeypatch.setattr(est, "_MAX_ITER", 1)
        rep = run_mc(tiny_cfg(coverage_points=(0.5,)))
        assert rep.nonconverged == {"gmm1": 4}
        assert (rep.coverage_count, rep.coverage_skipped, rep.coverage) == (0, 4, {})
        assert rep.per_rep_err[("gmm1", "alpha")].size == 4  # still scored

    def test_failures_counted_and_capped(self, monkeypatch):
        original = mc._draw_mc_panel
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] % 2 == 0:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_draw_mc_panel", flaky)
        with pytest.raises(HarnessError, match="RuntimeError: synthetic failure"):
            run_mc(tiny_cfg(replications=4))

    def test_failure_messages_kept(self, monkeypatch):
        original = mc._draw_mc_panel
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 3:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_draw_mc_panel", flaky)
        rep = run_mc(tiny_cfg(replications=10))
        assert rep.failures == 1
        assert rep.errors == ["replication 2: RuntimeError: synthetic failure"]
        assert rep.per_rep_rmse[("gmm1", "alpha")].size == 9

    def test_report_rows_layout(self):
        rep = run_mc(tiny_cfg())
        rows = rep.to_rows()
        assert len(rows) == 4  # two estimators x two targets
        assert rows[0][:5] == (16, 3, 8, 2, 1.0)
        text = format_report(rep)
        assert text.splitlines()[0] == "n,T,L,Ktilde,r,estimator,target,bias,rmse"
        assert len(text.splitlines()) == 5

    def test_rmse_se_positive(self):
        rep = run_mc(tiny_cfg())
        assert rep.rmse_se("gmm1", "alpha") > 0.0


class TestSharedDesign:
    def test_one_design_and_one_quadratic_build_per_replication(self, monkeypatch):
        import fnar.estimator as est

        calls = {"instruments": 0, "quad": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(est, "build_instruments", counted("instruments", est.build_instruments))
        monkeypatch.setattr(est, "build_quadratic_weights",
                            counted("quad", est.build_quadratic_weights))
        rep = run_mc(paper_cell(replications=3, base_seed=5))
        assert rep.failures == 0 and rep.coverage_count > 0
        assert calls == {"instruments": 3, "quad": 3}

    def test_paper_cell_golden(self):
        rep = run_mc(paper_cell(replications=10, base_seed=424242))
        for key, (bias, rmse) in GOLDEN_PAPER_CELL.items():
            assert rep.bias[key] == pytest.approx(bias, rel=1e-12, abs=0)
            assert rep.rmse[key] == pytest.approx(rmse, rel=1e-12, abs=0)
        coverage = tuple(rep.coverage[p] for p in rep.config.coverage_points)
        assert coverage == pytest.approx(GOLDEN_COVERAGE, rel=1e-12, abs=0)
