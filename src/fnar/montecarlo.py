"""Replication harness: simulate, fit, and score estimators over many seeds."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem, build_bspline_basis, build_quadrature
from .errors import CannotDifferenceError, HarnessError, InvalidArgumentError
from .estimator import CI_Z, ESTIMATORS, MomentSpec, estimate_variance, fit_2sls, fit_gmm
from .simulate import _draw_mc_panel, _mc_parts, _McParts, mc_alpha

__all__ = ["McConfig", "McReport", "run_mc", "format_report", "PRESETS"]

SPLINE_DEGREE = 3  # cubic B-splines, as in the simulation design
_CHUNK = 8  # replications a worker process takes at a time


@dataclass(frozen=True)
class McConfig:
    """One cell of the simulation design, on a 99-point quadrature grid.

    ``coverage_points`` lists evaluation points at which the pointwise 95%
    confidence interval for the interaction-effect function is checked
    against the truth (gmm1 fits only); each must lie in [0, 1]. Only the
    harness's own values are checked here, and an estimator may not repeat; a
    design value that the basis or the simulation's config-only parts reject
    stops ``run_mc`` before the first replication, and one that the lattice
    or the moment design rejects stops it at the first.
    """

    n: int = 40
    T: int = 5
    L: int = 10
    inner_knots: int = 2
    r: float = 1.0
    estimators: tuple[str, ...] = ("gmm1",)
    replications: int = 500
    base_seed: int = 0
    workers: int = 1
    coverage_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidArgumentError(f"need at least one replication, got {self.replications}")
        if self.base_seed < 0:
            raise InvalidArgumentError(f"base seed must be non-negative, got {self.base_seed}")
        if self.workers < 1:
            raise InvalidArgumentError(f"need at least one worker, got {self.workers}")
        if not self.estimators or not set(self.estimators) <= set(ESTIMATORS):
            raise InvalidArgumentError(
                f"estimators must be a non-empty selection of {ESTIMATORS}, got {self.estimators}")
        if len(set(self.estimators)) < len(self.estimators):
            raise InvalidArgumentError(f"estimators must not repeat, got {self.estimators}")
        if self.coverage_points and "gmm1" not in self.estimators:
            raise InvalidArgumentError("coverage tracking requires the gmm1 estimator")
        points = np.asarray(self.coverage_points, dtype=float)
        if not np.all((points >= 0.0) & (points <= 1.0)):  # NaN fails both
            raise InvalidArgumentError(
                f"coverage points must lie in [0, 1], got {self.coverage_points}")


@dataclass
class McReport:
    """Aggregated bias and RMSE with the per-replication raw scores."""

    config: McConfig
    bias: dict = field(default_factory=dict)   # (estimator, target) -> float
    rmse: dict = field(default_factory=dict)
    per_rep_err: dict = field(default_factory=dict)   # mean error per replication
    per_rep_rmse: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)      # point -> rate
    coverage_count: int = 0
    coverage_skipped: int = 0  # scored replications whose gmm1 fit did not converge
    failures: int = 0
    errors: list = field(default_factory=list)        # one message per failure
    nonconverged: dict = field(default_factory=dict)  # estimator -> count
    wall_clock: float = 0.0

    def rmse_se(self, estimator: str, target: str) -> float:
        """Monte Carlo standard error of the reported RMSE."""
        values = self.per_rep_rmse[(estimator, target)]
        return float(np.std(values, ddof=1) / np.sqrt(values.size))

    def to_rows(self) -> list[tuple]:
        rows = []
        for name in self.config.estimators:
            for target in ("alpha", "beta"):
                rows.append((
                    self.config.n, self.config.T, self.config.L,
                    self.config.inner_knots, self.config.r, name, target,
                    self.bias[(name, target)], self.rmse[(name, target)],
                ))
        return rows


def _run_replication(cfg: McConfig, basis: BasisSystem, dgp: _McParts,
                     cover: tuple[np.ndarray, np.ndarray],
                     seed: np.random.SeedSequence) -> dict:
    """Simulate one panel of ``dgp`` and fit every estimator on its one moment
    design; ``cover`` holds the basis rows and true alpha at the coverage points."""
    panel, truth = _draw_mc_panel(dgp, seed)
    spec = MomentSpec(basis=basis, operator=truth.operator, weights=truth.weights,
                      n_points=cfg.L)
    design = None  # built by the first fit, shared by the others
    out = {"scores": {}, "nonconverged": [], "covered": None}
    for name in cfg.estimators:
        fit = (fit_2sls(panel, spec, design=design) if name == "2sls"
               else fit_gmm(panel, spec, estimator=name, design=design))
        design = fit._design
        if not fit.converged:
            out["nonconverged"].append(name)
        err_alpha = basis.values_on_grid @ fit.theta_alpha - truth.alpha
        err_beta = basis.values_on_grid @ fit.theta_beta(0) - truth.beta[0]
        out["scores"][name] = (
            float(err_alpha.mean()), float(np.sqrt(np.mean(err_alpha**2))),
            float(err_beta.mean()), float(np.sqrt(np.mean(err_beta**2))),
        )
        if name == "gmm1" and cfg.coverage_points and fit.converged:
            estimate_variance(fit, panel, spec)
            phi, alpha = cover
            half = CI_Z * fit._pointwise_se(0, phi)
            gap = np.abs(phi @ fit.theta_alpha - alpha)
            out["covered"] = (gap <= half).tolist()
    return out


def _worker(payload):
    try:
        return _run_replication(*payload)
    except (InvalidArgumentError, CannotDifferenceError):
        raise  # a design error, the same in every replication
    except Exception as exc:  # scored as a failure, not fatal to the harness
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_mc(cfg: McConfig) -> McReport:
    """Run the replication loop and aggregate bias/RMSE per estimator and target.

    Per-replication seeds are spawned from the base seed up front, so the
    report is identical for any worker count. What depends only on the
    config is built once, before the first replication, and handed to every
    replication (to workers in their payload): the basis, the simulation's
    grid, operator and true functions, and the basis rows and true alpha at
    the coverage points. A basis the grid cannot carry, or a simulation
    value the design rejects, raises here. Failed replications are kept in
    ``errors`` and skipped; more than 10% of them abort. A design error
    (``InvalidArgumentError``, ``CannotDifferenceError``) is raised as is.
    The process pool starts at most as many processes as there are CPUs
    and chunks of ``_CHUNK`` replications, whatever ``cfg.workers`` asks, and
    only if that is more than one: else the replications run in this process.
    """
    started = time.perf_counter()
    quad = build_quadrature(99)  # the simulation design's grid
    basis = build_bspline_basis(cfg.inner_knots, SPLINE_DEGREE, quad)
    dgp = _mc_parts(cfg.n, cfg.T, cfg.r, quad)
    points = np.array(cfg.coverage_points)
    cover = (basis.eval_many(np.atleast_1d(points)), mc_alpha(points))
    seeds = np.random.SeedSequence(cfg.base_seed).spawn(cfg.replications)
    payloads = [(cfg, basis, dgp, cover, seed) for seed in seeds]
    workers = min(cfg.workers, os.cpu_count() or 1, -(-cfg.replications // _CHUNK))
    if workers > 1:
        # only here: it loads multiprocessing, which the serial path never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, payloads, chunksize=_CHUNK))
    else:
        results = [_worker(p) for p in payloads]

    report = McReport(config=cfg)
    scores = {name: [] for name in cfg.estimators}
    covered = []
    for rep, res in enumerate(results):
        if "error" in res:
            report.failures += 1
            report.errors.append(f"replication {rep}: {res['error']}")
            continue
        for name in cfg.estimators:
            scores[name].append(res["scores"][name])
        for name in res["nonconverged"]:
            report.nonconverged[name] = report.nonconverged.get(name, 0) + 1
        if res["covered"] is not None:
            covered.append(res["covered"])
        elif cfg.coverage_points:
            report.coverage_skipped += 1
    if report.failures > 0.1 * cfg.replications:
        raise HarnessError(
            f"{report.failures} of {cfg.replications} replications failed; "
            f"first: {report.errors[0]}"
        )

    for name in cfg.estimators:
        arr = np.asarray(scores[name])  # (R, 4)
        for col, target in ((0, "alpha"), (2, "beta")):
            report.per_rep_err[(name, target)] = arr[:, col]
            report.per_rep_rmse[(name, target)] = arr[:, col + 1]
            report.bias[(name, target)] = float(arr[:, col].mean())
            report.rmse[(name, target)] = float(arr[:, col + 1].mean())
    if covered:
        cov = np.asarray(covered, dtype=float)  # (R_cov, n_points)
        report.coverage_count = cov.shape[0]
        for k, point in enumerate(cfg.coverage_points):
            report.coverage[point] = float(cov[:, k].mean())
    report.wall_clock = time.perf_counter() - started
    return report


def format_report(report: McReport) -> str:
    """Flat table mirroring the simulation-study layout."""
    lines = ["n,T,L,Ktilde,r,estimator,target,bias,rmse"]
    for row in report.to_rows():
        head = ",".join(str(v) for v in row[:7])
        lines.append(f"{head},{row[7]:.6f},{row[8]:.6f}")
    return "\n".join(lines) + "\n"


PRESETS = {
    "benchmark-table1-row1": McConfig(n=40, T=5, L=10, inner_knots=2, r=0.4,
                                  estimators=("gmm1", "gmm2", "2sls")),
    "benchmark-table1-row2": McConfig(n=40, T=5, L=10, inner_knots=2, r=1.0,
                                  estimators=("gmm1", "gmm2", "2sls")),
}
