"""Regenerate ``reference.json``, the stored outputs the benchmark checks against.

Run from the repository root on a commit whose numbers are trusted:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

It takes about a minute on a 2-core machine. The study seed differs from
every seed the benchmark derives, so a run is never checked against itself.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import (FIT_N, MC_CELL, REFERENCE_FILE, REFERENCE_SEED, SE_POINTS,
                       mc_summary, fit_pipeline, mc_config)
from fnar import montecarlo

STUDY_SEED = 20261017
STUDY_REPS = 1500


def mc_reference() -> dict:
    report = montecarlo.run_mc(mc_config(STUDY_SEED, replications=STUDY_REPS))
    scores = {}
    for name in MC_CELL["estimators"]:
        for target in ("alpha", "beta"):
            for stat, values in (("bias", report.per_rep_err[(name, target)]),
                                 ("rmse", report.per_rep_rmse[(name, target)])):
                se = np.std(values, ddof=1) / np.sqrt(values.size)
                scores[f"{name}.{target}.{stat}"] = [float(values.mean()), float(se)]
    study = {"seed": STUDY_SEED, "replications": STUDY_REPS, "scores": scores,
             "coverage": [report.coverage[p] for p in MC_CELL["coverage_points"]],
             "coverage_count": report.coverage_count}
    exact = mc_summary(montecarlo.run_mc(mc_config(REFERENCE_SEED)))
    return {"study": study, "exact": exact}


def fit_reference() -> dict:
    fit = fit_pipeline(FIT_N, REFERENCE_SEED)
    s = np.asarray(SE_POINTS)
    return {"seed": REFERENCE_SEED, "points": list(SE_POINTS),
            "alpha": fit.alpha(s).tolist(), "se_alpha": fit.se_alpha(s).tolist()}


if __name__ == "__main__":
    reference = {"mc-table1": mc_reference(), "fit-large": fit_reference()}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
