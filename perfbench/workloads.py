"""The three benchmark workloads, each a closed loop of one operation after another.

Every workload drives the public fnar API through module attributes
(``montecarlo.run_mc``, ``estimator.fit_gmm``, ``cli.main``), so the tracer's
wrappers are picked up when installed. ``run`` is the timed (and, in a traced
run, traced) part of an operation; ``check`` verifies its outputs afterwards,
outside the timed region, and returns what the operation counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fnar import basis, cli, estimator, interaction, montecarlo, simulate

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The paper's benchmark cell (simulation table 1, row r=1.0), as the
# acceptance suite and the ``benchmark-table1-row2`` preset run it.
MC_CELL = dict(n=40, T=5, L=10, inner_knots=2, r=1.0,
               estimators=("gmm1", "gmm2", "2sls"),
               coverage_points=(0.25, 0.5, 0.75), workers=1)
MC_BATCH = 10            # replications per run_mc call; one call is one timed batch
FIT_N, FIT_T = 3200, 5
CLI_N, CLI_T = 1600, 5
SE_POINTS = (0.25, 0.5, 0.75)
REFERENCE_SEED = 424242  # fixed inputs of the exact-reference checks
WARMUP_SEED = 17


def op_seed(seed: int, index: int) -> int:
    """Integer seed of operation ``index`` in a run with benchmark seed ``seed``."""
    return seed * 100_000 + index


def mc_config(base_seed: int, replications: int = MC_BATCH) -> montecarlo.McConfig:
    return montecarlo.McConfig(**MC_CELL, replications=replications, base_seed=base_seed)


def fit_pipeline(n: int, seed: int):
    """simulate -> gmm1 fit -> sandwich variance -> fixed effects, in memory."""
    panel, truth = simulate.simulate_mc_panel(n, FIT_T, 1.0, seed)
    spec = estimator.MomentSpec(basis=basis.build_bspline_basis(2, 3, panel.quad),
                                operator=truth.operator, weights=truth.weights,
                                n_points=10)
    fit = estimator.fit_gmm(panel, spec)
    estimator.estimate_variance(fit, panel, spec)
    estimator.estimate_fixed_effects(fit, panel)
    return fit


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


@dataclass
class OpResult:
    """What one operation counted, beyond its wall time."""

    failed: int = 0
    fits: int = 0
    nonconverged: int = 0
    stages: dict = field(default_factory=dict)  # CLI command -> (start, end) CPU times
    bytes_read: int = 0
    bytes_written: int = 0
    impact_rows_missing: int = 0
    notes: list = field(default_factory=list)


def _close(a, b, rtol=1e-6, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=atol))


def mc_summary(report) -> dict:
    out = {f"{name}.{target}": [report.bias[(name, target)], report.rmse[(name, target)]]
           for name in report.config.estimators for target in ("alpha", "beta")}
    out["coverage"] = [report.coverage[p] for p in report.config.coverage_points]
    return out


class McTable1:
    """``run_mc`` on the paper's benchmark cell, MC_BATCH replications per call."""

    name = "mc-table1"
    unit = "rep"
    units = MC_BATCH         # user operations (replications) per timed operation
    min_ops = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reports = {}  # by base seed: a traced run repeats each batch once

    def warm_up(self):
        montecarlo.run_mc(mc_config(WARMUP_SEED, replications=1))

    def run(self, index: int, tracer):
        return montecarlo.run_mc(mc_config(op_seed(self.seed, index)))

    def check(self, report) -> OpResult:
        self.reports[report.config.base_seed] = report
        scored = MC_BATCH - report.failures
        return OpResult(failed=report.failures,
                        fits=scored * len(MC_CELL["estimators"]),
                        nonconverged=sum(report.nonconverged.values()))

    def named_metrics(self, ops) -> dict:
        seconds = sum(op["seconds"] for op in ops)
        return {"mc_reps_per_s": (self.units * len(ops) / seconds, "1/s")}

    def final_checks(self) -> list[tuple[str, bool, str]]:
        ref = load_reference()["mc-table1"]
        checks = [self._check_against_study(ref["study"])]
        exact = mc_summary(montecarlo.run_mc(mc_config(REFERENCE_SEED)))
        bad = [key for key, value in ref["exact"].items() if not _close(exact[key], value)]
        checks.append(("mc-table1.exact_reference", not bad,
                       f"seed {REFERENCE_SEED}, {MC_BATCH} reps; mismatched: {bad or 'none'}"))
        return checks

    def _check_against_study(self, study: dict) -> tuple[str, bool, str]:
        """Pooled bias, RMSE and coverage of this run against a large reference study.

        Each pooled mean must lie within 5 standard errors (this run's and the
        study's, combined) of the study's mean.
        """
        reports = list(self.reports.values())
        if not reports:
            return ("mc-table1.reference_study", False, "no replication completed")
        bad = []
        for key, (ref_mean, ref_se) in study["scores"].items():
            name, target, stat = key.split(".")
            field_ = "per_rep_err" if stat == "bias" else "per_rep_rmse"
            values = np.concatenate([getattr(r, field_)[(name, target)] for r in reports])
            se = np.std(values, ddof=1) / np.sqrt(values.size)
            if abs(values.mean() - ref_mean) > 5.0 * np.hypot(se, ref_se):
                bad.append(f"{key}={values.mean():.4f} (ref {ref_mean:.4f})")
        counts = sum(r.coverage_count for r in reports)
        for point, ref_rate in zip(MC_CELL["coverage_points"], study["coverage"]):
            rate = sum(r.coverage[point] * r.coverage_count for r in reports) / counts
            se = np.sqrt(ref_rate * (1 - ref_rate) * (1 / counts + 1 / study["coverage_count"]))
            if abs(rate - ref_rate) > 5.0 * se:
                bad.append(f"coverage@{point}={rate:.3f} (ref {ref_rate:.3f})")
        reps = sum(len(r.per_rep_err[("gmm1", "alpha")]) for r in reports)
        return ("mc-table1.reference_study", not bad,
                f"{reps} reps vs {study['replications']}-rep study; off: {bad or 'none'}")


class FitLarge:
    """One in-memory panel pipeline at n=3200, T=5 per operation."""

    name = "fit-large"
    unit = "panel"
    units = 1
    min_ops = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.se_ref = np.asarray(load_reference()["fit-large"]["se_alpha"])

    def warm_up(self):
        fit_pipeline(40, WARMUP_SEED)

    def run(self, index: int, tracer):
        return fit_pipeline(FIT_N, op_seed(self.seed, index))

    def check(self, fit) -> OpResult:
        """The estimate lies near the truth and its standard error near the reference's.

        At n=3200 both concentrate: the truth must sit within 6 standard
        errors, and the standard errors within 25% of the reference panel's.
        """
        s = np.asarray(SE_POINTS)
        alpha, se = fit.alpha(s), fit.se_alpha(s)
        gap = np.abs(alpha - simulate.mc_alpha(s))
        result = OpResult(fits=1, nonconverged=int(not fit.converged))
        ok = (np.all(np.isfinite(alpha)) and np.all(gap <= 6.0 * se)
              and np.all(np.abs(se / self.se_ref - 1.0) <= 0.25))
        if not ok:
            result.failed = 1
            result.notes.append(f"alpha={alpha.tolist()} se={se.tolist()}")
        return result

    def named_metrics(self, ops) -> dict:
        return {"fit_s": (statistics.fmean(op["seconds"] for op in ops), "s")}

    def final_checks(self) -> list[tuple[str, bool, str]]:
        ref = load_reference()["fit-large"]
        fit = fit_pipeline(FIT_N, REFERENCE_SEED)
        s = np.asarray(SE_POINTS)
        ok = _close(fit.alpha(s), ref["alpha"]) and _close(fit.se_alpha(s), ref["se_alpha"])
        return [("fit-large.exact_reference", ok,
                 f"seed {REFERENCE_SEED}: alpha={fit.alpha(s).tolist()} "
                 f"se_alpha={fit.se_alpha(s).tolist()}")]


_THETA_LINE = re.compile(r"^  (alpha|beta\d+): (.*)$", re.MULTILINE)
_KEY_PLAYER = re.compile(r"risk key player: unit (\d+)")


def _parse_fit_report(text: str) -> tuple[bool, np.ndarray]:
    converged = re.search(r"^  converged: (\w+)$", text, re.MULTILINE).group(1) == "True"
    theta = np.concatenate([np.array(line.split(), float)
                            for _, line in _THETA_LINE.findall(text)])
    return converged, theta


class CliPipeline:
    """``fnar simulate`` -> ``fnar estimate`` (gmm1) -> ``fnar effects keyplayer``.

    The commands run in process through ``fnar.cli.main``; the panel goes
    through the CSV files, as a user's would.
    """

    name = "cli-pipeline"
    unit = "pipeline"
    units = 1
    min_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir / "cli"
        self.shock = workdir / "eta.csv"
        self.shock.write_text("s,value\n0,1\n1,1\n")

    def _commands(self, n: int, seed: int) -> list[tuple[str, list[str]]]:
        w = self.work
        fit_inputs = ["--weights", str(w / "sim" / "weights.csv"), "--operator", "epanechnikov"]
        return [
            ("simulate", ["simulate", "--n", str(n), "--T", str(CLI_T), "--seed", str(seed),
                          "--out", str(w / "sim")]),
            ("estimate", ["estimate", "--observations", str(w / "sim" / "observations.csv"),
                          "--covariates", str(w / "sim" / "covariates.csv"), *fit_inputs,
                          "--moment-points", "10", "--inner-knots", "2",
                          "--estimator", "gmm1", "--out", str(w / "est")]),
            ("keyplayer", ["effects", "keyplayer",
                           "--alpha-file", str(w / "est" / "alpha_hat.csv"),
                           *fit_inputs, "--shock-file", str(self.shock),
                           "--out", str(w / "impacts.csv")]),
        ]

    def _pipeline(self, n: int, seed: int, tracer) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "sim").mkdir(parents=True)
        (self.work / "est").mkdir()
        state = {"seed": seed, "n": n, "codes": {}, "stdout": {}, "stages": {}}
        for name, argv in self._commands(n, seed):
            record = tracer.open(f"cli.{name}") if tracer else None
            buffer = io.StringIO()
            start = time.process_time()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            state["stages"][f"cli_{name}_s"] = (start, time.process_time())
            if record is not None:
                tracer.close(record)
            state["codes"][name] = code
            state["stdout"][name] = buffer.getvalue()
            if code != 0:
                break
        return state

    def warm_up(self):
        self._pipeline(40, WARMUP_SEED, None)

    def run(self, index: int, tracer):
        return self._pipeline(CLI_N, op_seed(self.seed, index), tracer)

    def check(self, state) -> OpResult:
        result = OpResult(stages=state["stages"])
        failed = [name for name, code in state["codes"].items() if code != 0]
        if failed or len(state["codes"]) < 3:
            result.failed = 1
            result.notes.append(f"nonzero exit: {state['codes']}")
            return result
        w = self.work
        sim_files = sorted((w / "sim").iterdir())
        est_files = sorted((w / "est").iterdir())
        result.bytes_written = sum(p.stat().st_size for p in
                                   [*sim_files, *est_files, w / "impacts.csv"])
        result.bytes_read = sum(p.stat().st_size for p in [
            w / "sim" / "observations.csv", w / "sim" / "covariates.csv",
            w / "sim" / "weights.csv",                      # estimate
            w / "est" / "alpha_hat.csv", w / "sim" / "weights.csv", self.shock,  # keyplayer
        ])

        converged, theta_csv = _parse_fit_report((w / "est" / "fit_report.txt").read_text())
        result.fits = 1
        result.nonconverged = int(not converged)
        theta_mem = self._in_memory_theta(state["n"], state["seed"])
        if not _close(theta_csv, theta_mem, rtol=1e-8, atol=1e-10):
            result.failed = 1
            result.notes.append("CSV round-trip fit differs from the in-memory fit: "
                                f"max |diff| {np.max(np.abs(theta_csv - theta_mem)):.3g}")

        impacts = np.loadtxt(w / "impacts.csv", delimiter=",", skiprows=1, ndmin=2)
        star = int(_KEY_PLAYER.search(state["stdout"]["keyplayer"]).group(1))
        if int(impacts[np.argmax(impacts[:, 1]), 0]) != star:
            result.failed = 1
            result.notes.append(f"reported key player {star} is not the argmax of the impacts")
        # Known defect, counted but not failed: `fnar effects` takes the unit
        # count from the edge list, so isolated units with the highest ids
        # get no row.
        result.impact_rows_missing = state["n"] - impacts.shape[0]
        shutil.rmtree(self.work, ignore_errors=True)
        return result

    @staticmethod
    def _in_memory_theta(n: int, seed: int) -> np.ndarray:
        """The fit ``fnar estimate`` should reproduce, computed without the CSV files."""
        panel, truth = simulate.simulate_mc_panel(n, CLI_T, 1.0, seed)
        operator = interaction.KernelIntegral(panel.quad, kernel=interaction.epanechnikov_kernel)
        spec = estimator.MomentSpec(basis=basis.build_bspline_basis(2, 3, panel.quad),
                                    operator=operator, weights=truth.weights, n_points=10)
        return estimator.fit_gmm(panel, spec).theta

    def named_metrics(self, ops) -> dict:
        named = {}
        for stage in ("cli_simulate_s", "cli_estimate_s", "cli_keyplayer_s"):
            values = [op["stages"][stage] for op in ops if stage in op["stages"]]
            named[stage] = (statistics.fmean(values) if values else float("nan"), "s")
        named["keyplayer_rows_missing"] = (
            sum(op["result"].impact_rows_missing for op in ops), "count")
        return named

    def final_checks(self) -> list[tuple[str, bool, str]]:
        return []


WORKLOADS = {cls.name: cls for cls in (McTable1, FitLarge, CliPipeline)}
