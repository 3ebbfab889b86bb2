"""fnar runs on numpy, scipy.sparse and scipy.linalg alone.

A fresh interpreter imports fnar and its CLI, runs an n=40
simulate -> estimate -> effects keyplayer pipeline and a 2-replication
Monte Carlo study on one worker, and reports which scipy subpackages and
whether ``multiprocessing`` were loaded; only a study on several workers
needs the process pool.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_LOADED = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.spatial",
              "scipy.special")

PIPELINE = """
import json, sys, tempfile
from pathlib import Path
import fnar, fnar.cli
from fnar.montecarlo import McConfig, run_mc

def run(*args):
    code = fnar.cli.main([str(a) for a in args])
    assert code == 0, (args[0], code)

with tempfile.TemporaryDirectory() as tmp:
    sim, est = Path(tmp, "sim"), Path(tmp, "est")
    sim.mkdir()
    est.mkdir()
    shock = Path(tmp, "eta.csv")
    shock.write_text("s,value\\n0,1\\n1,0.5\\n")
    run("simulate", "--n", 40, "--T", 5, "--r", 1, "--seed", 7, "--out", sim)
    run("estimate", "--observations", sim / "observations.csv",
        "--covariates", sim / "covariates.csv", "--weights", sim / "weights.csv",
        "--operator", "epanechnikov", "--moment-points", 10, "--inner-knots", 2,
        "--estimator", "gmm2", "--out", est)
    run("effects", "keyplayer", "--alpha-file", est / "alpha_hat.csv",
        "--weights", sim / "weights.csv", "--operator", "epanechnikov",
        "--shock-file", shock, "--out", Path(tmp, "impacts.csv"))
report = run_mc(McConfig(replications=2, base_seed=3, estimators=("gmm1", "gmm2", "2sls"),
                         coverage_points=(0.5,)))
assert report.failures == 0, report.errors
print(json.dumps({prefix: sorted(name for name in sys.modules if name.startswith(prefix))
                  for prefix in ("scipy", "multiprocessing")}))
"""


def test_pipeline_loads_no_other_scipy_subpackage(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PIPELINE], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "scipy.sparse" in loaded["scipy"] and "scipy.linalg" in loaded["scipy"]
    assert [name for name in loaded["scipy"] if name.startswith(NOT_LOADED)] == []
    assert loaded["multiprocessing"] == []
