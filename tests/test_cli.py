import csv
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import fifo_of
from fnar import cli, errors, io
from fnar.basis import build_bspline_basis, build_quadrature
from fnar.cli import main
from fnar.effects import impulse_response
from fnar.estimator import MomentSpec, estimate_variance, fit_2sls, fit_gmm
from fnar.interaction import PastWindow
from fnar.io import read_edge_list, read_function, read_panel
from fnar.simulate import mc_alpha


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    out.mkdir()
    code = run(["simulate", "--n", 40, "--T", 5, "--r", 1, "--seed", 7, "--out", out])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("observations.csv", "covariates.csv", "weights.csv",
                     "truth_functions.csv"):
            assert (sim_dir / name).exists()

    def test_missing_output_dir_is_io_error(self, tmp_path):
        code = run(["simulate", "--n", 10, "--T", 3, "--r", 1, "--seed", 1,
                    "--out", tmp_path / "nope"])
        assert code == 2

    def test_nonstationary_scale_is_model_error(self, tmp_path):
        out = tmp_path / "sim2"
        out.mkdir()
        code = run(["simulate", "--n", 10, "--T", 3, "--r", 1, "--seed", 1,
                    "--alpha-scale", 2.0, "--out", out])
        assert code == 3

    def test_margin_of_a_huge_scale_is_printed_to_four_digits(self, tmp_path, capsys):
        code = run(["simulate", "--n", 12, "--T", 3, "--seed", 1, "--alpha-scale", "1e308",
                    "--out", tmp_path])
        assert code == 3
        assert capsys.readouterr().err == ("error: stationarity margin 6.118e+307 >= 1: the "
                                           "simultaneous system may have no stable solution\n")

    @pytest.mark.parametrize("r,code", [("1e308", 4), ("1e200", 0)])
    def test_right_hand_side_that_overflows_is_data_error(self, tmp_path, capsys, r, code):
        # r = 1e308 is finite, but the covariate times beta overflows; 1e200 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--n", 12, "--T", 3, "--seed", 1, "--r", r,
                        "--out", tmp_path]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("error: right-hand side has non-finite values: an input of the "
                           "system overflows\n")
            assert not any(tmp_path.iterdir())
        else:
            assert err == "" and (tmp_path / "observations.csv").exists()

    @pytest.mark.parametrize("flags", [["--T", 3, "--seed", -1], ["--T", 0, "--seed", 1],
                                       ["--T", -2, "--seed", 1]])
    def test_bad_seed_or_period_count_is_data_error(self, tmp_path, capsys, flags):
        code = run(["simulate", "--n", 10, *flags, "--out", tmp_path])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "observations.csv").exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_scale_is_data_error(self, tmp_path, capsys, scale):
        # not a model error: a NaN scale used to diverge in the Neumann iteration
        code = run(["simulate", "--n", 10, "--T", 3, "--seed", 1,
                    f"--alpha-scale={scale}", "--out", tmp_path])
        assert code == 4
        assert capsys.readouterr().err == f"error: alpha scale must be finite, got {scale}\n"
        assert not (tmp_path / "observations.csv").exists()

    @pytest.mark.parametrize("count,message", [
        (10**12, "grid count 1000000000000 needs more memory than can be allocated"),
        (2 * 10**6, "grid count 2000000 needs a 2000000 x 2000000 operator table, "
                    "more memory than can be allocated")])
    def test_grid_count_too_large_to_allocate_is_data_error(self, tmp_path, capsys, count,
                                                            message):
        # a 7.3 TiB grid, and the 29 TiB kernel table of a 16 MB grid, exceed
        # MAX_ARRAY_BYTES, so nothing beyond that grid is held
        code = run(["simulate", "--n", 10, "--T", 3, "--seed", 1,
                    "--grid-count", count, "--out", tmp_path])
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestEstimate:
    def test_round_trip_recovers_truth(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--weights", sim_dir / "weights.csv",
            "--operator", "epanechnikov", "--out", est,
        ])
        assert code == 0
        with open(est / "alpha_hat.csv") as fh:
            rows = list(csv.DictReader(fh))
        s = np.array([float(r["s"]) for r in rows])
        est_vals = np.array([float(r["estimate"]) for r in rows])
        sup_err = np.max(np.abs(est_vals - mc_alpha(s)))
        # 3x the typical sup error of this design (RMSE ~ 0.065)
        assert sup_err < 0.40
        report = (est / "fit_report.txt").read_text()
        assert "converged: True" in report
        assert (est / "fixed_effects.csv").exists()
        assert (est / "beta1_hat.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("layout", ["sorted", "pipe", "space"])
    def test_outputs_are_byte_equal_whatever_the_table_layout(self, sim_dir, tmp_path, layout):
        # rows sorted by y take the whole-table read, whose stable sort and
        # interpolation at the grid's own points give the streamed values; pipes
        # are copied and read as files; a whitespace-only last line fails the
        # first parse, which runs again without it
        written = {name: sim_dir / f"{name}.csv"
                   for name in ("observations", "covariates", "weights")}
        tables, feeds = dict(written), []
        if layout == "sorted":
            header, *rows = written["observations"].read_bytes().splitlines(keepends=True)
            rows.sort(key=lambda row: float(row.split(b",")[3]))
            tables["observations"] = tmp_path / "sorted.csv"
            tables["observations"].write_bytes(header + b"".join(rows))
        elif layout == "space":
            tables["observations"] = tmp_path / "space.csv"
            tables["observations"].write_bytes(written["observations"].read_bytes() + b"  \r\n")
        else:
            for name, path in written.items():
                tables[name], feed = fifo_of(tmp_path, path)
                feeds.append(feed)
        outputs = []
        for files in (written, tables):
            out = tmp_path / f"est-{len(outputs)}"
            out.mkdir()
            assert run(["estimate", "--observations", files["observations"],
                        "--covariates", files["covariates"], "--weights", files["weights"],
                        "--out", out]) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        for feed in feeds:
            feed.join(60)
            assert not feed.is_alive()
        assert sorted(outputs[0]) == ["alpha_hat.csv", "beta1_hat.csv", "fit_report.txt",
                                      "fixed_effects.csv"]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("estimator", ["gmm1", "gmm2", "2sls"])
    def test_past_window_matches_library_fit(self, sim_dir, tmp_path, estimator):
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--weights", sim_dir / "weights.csv", "--estimator", estimator,
            "--operator", "past-window", "--window-width", 0.3, "--out", est,
        ])
        assert code == 0
        panel = read_panel(sim_dir / "observations.csv", sim_dir / "covariates.csv")
        spec = MomentSpec(basis=build_bspline_basis(2, 3, panel.quad),
                          operator=PastWindow(panel.quad, width=0.3),
                          weights=read_edge_list(sim_dir / "weights.csv", n=panel.n))
        fit = (fit_2sls(panel, spec) if estimator == "2sls"
               else fit_gmm(panel, spec, estimator=estimator))
        assert fit.method == estimator
        report = (est / "fit_report.txt").read_text()
        assert f"\n  method: {estimator}\n" in report
        assert "  alpha: " + " ".join(f"{v:.12g}" for v in fit.theta_alpha) + "\n" in report
        assert "  beta1: " + " ".join(f"{v:.12g}" for v in fit.theta_beta(0)) + "\n" in report
        table = np.loadtxt(est / "alpha_hat.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1], fit.alpha(panel.quad.points))
        estimate_variance(fit, panel, spec)  # the weight matrix enters the sandwich
        assert np.array_equal(table[:, 2], fit.se_alpha(panel.quad.points))

    def test_single_period_is_data_error(self, sim_dir, tmp_path):
        rows = []
        with open(sim_dir / "observations.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [r for r in reader if r[1] == "0"]
        obs1 = tmp_path / "obs1.csv"
        with open(obs1, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        cov_rows = []
        with open(sim_dir / "covariates.csv") as fh:
            reader = csv.reader(fh)
            cov_header = next(reader)
            cov_rows = [r for r in reader if r[1] == "0"]
        cov1 = tmp_path / "cov1.csv"
        with open(cov1, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cov_header)
            writer.writerows(cov_rows)
        est = tmp_path / "est1"
        est.mkdir()
        code = run(["estimate", "--observations", obs1, "--covariates", cov1,
                    "--weights", sim_dir / "weights.csv", "--out", est])
        assert code == 4

    def test_irregular_observation_times_accepted(self, tmp_path):
        rng = np.random.default_rng(5)
        n, T = 8, 4
        obs = tmp_path / "obs.csv"
        cov = tmp_path / "cov.csv"
        wfile = tmp_path / "w.csv"
        with open(obs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "period", "s", "y"])
            for i in range(n):
                for t in range(T):
                    n_pts = rng.integers(5, 12)  # irregular per unit-period
                    pts = np.sort(rng.uniform(0, 1, size=n_pts))
                    for s in pts:
                        writer.writerow([i, t, s, rng.normal()])
        with open(cov, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "period", "x1"])
            for i in range(n):
                for t in range(T):
                    writer.writerow([i, t, rng.normal()])
        with open(wfile, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "weight"])
            for i in range(n):
                writer.writerow([i, (i + 1) % n, 0.5])
                writer.writerow([i, (i - 1) % n, 0.5])
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", obs, "--covariates", cov,
                    "--weights", wfile, "--grid-count", 33, "--moment-points", 6,
                    "--out", est])
        assert code == 0

    def test_schema_error_reports_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("unit,period,s,y\n0,0,0.5,1.0\n0,0,banana,2.0\n")
        cov = tmp_path / "cov.csv"
        cov.write_text("unit,period,x1\n0,0,1.0\n")
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", obs, "--covariates", cov,
                    "--weights", obs, "--out", est])
        assert code == 4
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("table,column,value", [
        ("observations", 3, "nan"), ("observations", 3, "inf"), ("covariates", 2, "-inf")])
    def test_non_finite_panel_value_reports_line(self, sim_dir, tmp_path, capsys,
                                                 table, column, value):
        files = {name: sim_dir / f"{name}.csv" for name in ("observations", "covariates")}
        lines = files[table].read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = value
        lines[3] = ",".join(fields)
        files[table] = tmp_path / f"{table}.csv"
        files[table].write_text("\n".join(lines) + "\n")
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", files["observations"],
                    "--covariates", files["covariates"], "--weights", sim_dir / "weights.csv",
                    "--out", est])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[table]}:4: non-finite point (") and value in err

    def test_short_covariate_row_reports_line(self, sim_dir, tmp_path, capsys):
        cov = tmp_path / "cov.csv"
        lines = (sim_dir / "covariates.csv").read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:2])  # "0,1": no x1 value
        cov.write_text("\n".join(lines) + "\n")
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", sim_dir / "observations.csv",
                    "--covariates", cov, "--weights", sim_dir / "weights.csv", "--out", est])
        assert code == 4
        assert capsys.readouterr().err == f"error: {cov}:3: expected 3 fields, got 2\n"

    def test_coords_weights_path(self, sim_dir, tmp_path):
        # distance-band weights built from station coordinates
        coords = tmp_path / "coords.csv"
        with open(coords, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "lon", "lat"])
            rng = np.random.default_rng(0)
            for i in range(40):
                writer.writerow([i, rng.uniform(0, 3), rng.uniform(0, 3)])
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--coords", coords, "--threshold", 1.0, "--out", est,
        ])
        assert code == 0

    @pytest.mark.parametrize("flags, code, message", [
        (["--weights", "negw.csv"], 4, "negw.csv:3: unit ids must be non-negative"),
        (["--coords", "two.csv", "--threshold", 5], 4, "weights are for 2 units, panel has 12"),
        (["--coords", "two.csv"], 4, "--threshold is required with --coords"),
        ([], 4, "provide --weights or --coords"),
        (["--weights", "weights.csv", "--out", "nowhere"], 2,
         "output directory nowhere does not exist"),
        (["--weights", "weights.csv", "--observations", "empty.csv"], 4,
         "empty.csv: observation table is empty"),
        (["--weights", "weights.csv", "--covariates", "nox.csv"], 4,
         "nox.csv:1: covariate table needs at least one x column"),
    ], ids=["negative-edge-id", "two-stations", "coords-without-threshold", "no-weights",
            "missing-out", "header-only-observations", "covariates-without-x"])
    def test_refused_input_is_one_error_line(self, tmp_path, monkeypatch, capsys, flags, code,
                                             message):
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 4, "--out", tmp_path]) == 0
        tables = {"negw.csv": "i,j,weight\n0,1,0.5\n-1,2,0.5\n",
                  "two.csv": "unit,lon,lat\n0,0,0\n1,1,1\n",
                  "empty.csv": "unit,period,s,y\n", "nox.csv": "unit,period\n0,0\n"}
        for name, text in tables.items():
            Path(name).write_text(text)
        Path("out").mkdir()
        capsys.readouterr()
        assert run(["estimate", "--observations", "observations.csv", "--covariates",
                    "covariates.csv", "--out", "out", *flags]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not any(Path("out").iterdir())

    def test_excluding_every_instrument_is_numeric_error(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--weights", sim_dir / "weights.csv", "--iv-exclude", "0", "--out", est,
        ])
        assert code == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_fewer_moment_points_than_basis_functions_is_data_error(self, sim_dir, tmp_path,
                                                                    capsys):
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--weights", sim_dir / "weights.csv", "--moment-points", 3, "--out", est,
        ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: need at least as many moment points as basis functions, "
                       "got L=3, K=6"]
        assert not any(est.iterdir())

    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_overflowing_weights_are_numeric_error(self, sim_dir, tmp_path, capsys, scale):
        # the moment aggregates overflow: a typed error, not a scipy traceback
        edges = np.loadtxt(sim_dir / "weights.csv", delimiter=",", skiprows=1)
        wfile = tmp_path / "w.csv"
        with open(wfile, "w") as fh:
            fh.write("i,j,weight\n")
            for i, j, w in edges:
                fh.write(f"{int(i)},{int(j)},{float(w * scale)!r}\n")
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv", "--weights", wfile, "--out", est,
        ])
        assert code == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]
        assert not any(est.iterdir())

    @pytest.mark.parametrize("operator", ["epanechnikov", "past-window"])
    def test_grid_count_too_large_for_the_operator_fails_before_the_panel_is_read(
            self, sim_dir, tmp_path, capsys, monkeypatch, operator):
        # the 29 TiB table is refused before 2.98 GiB of panel values are filled
        read = []
        monkeypatch.setattr(cli, "read_panel", lambda *args: read.append(args))
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv", "--weights", sim_dir / "weights.csv",
            "--operator", operator, "--grid-count", 2 * 10**6, "--out", tmp_path,
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: grid count 2000000 needs a 2000000 x 2000000 operator table, "
            "more memory than can be allocated\n")
        assert read == []

    @staticmethod
    def point_eval_in_a_small_address_space(sim_dir, tmp_path, grid_count):
        """``fnar estimate --operator point-eval`` on the n=40 panel, run in a
        child whose address space is limited to 1.5 GiB; the output directory."""
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
                  "from fnar.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        est = tmp_path / "est"
        est.mkdir()
        proc = subprocess.run([
            sys.executable, "-c", script, "estimate",
            "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv", "--weights", sim_dir / "weights.csv",
            "--operator", "point-eval", "--grid-count", str(grid_count), "--out", est,
        ], capture_output=True, text=True, env=env, timeout=300)
        return proc, est

    @pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                        reason="needs resource limits")
    def test_grid_count_too_large_for_the_panel_values_is_data_error(self, sim_dir, tmp_path):
        # point-eval has no table, so the count reaches read_panel, whose 200 x
        # 4,000,000 values (6 GiB) exceed MAX_ARRAY_BYTES
        proc, est = self.point_eval_in_a_small_address_space(sim_dir, tmp_path, 4 * 10**6)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error: grid count 4000000 needs 200 x 4000000 panel values, "
                               "more memory than can be allocated\n")
        assert not any(est.iterdir())

    @pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                        reason="needs resource limits")
    def test_panel_values_the_address_space_refuses_are_data_error(self, sim_dir, tmp_path):
        # 200 x 2,000,000 values (3.2 GB) pass MAX_ARRAY_BYTES, and the child's
        # 1.5 GiB address space refuses them: a MemoryError, exit 4 and one line
        proc, est = self.point_eval_in_a_small_address_space(sim_dir, tmp_path, 2 * 10**6)
        assert proc.returncode == 4, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Traceback" not in proc.stderr
        assert not any(est.iterdir())

    @pytest.mark.parametrize("margin, text", [(2.5, "2.5"), (1.0, "1"), (0.999, None)])
    def test_margin_of_the_fit_past_one_warns_and_writes_the_same_files(
            self, sim_dir, tmp_path, capsys, monkeypatch, margin, text):
        seen = []

        def outputs(name):
            out = tmp_path / name
            out.mkdir()
            code = run(["estimate", "--observations", sim_dir / "observations.csv",
                        "--covariates", sim_dir / "covariates.csv",
                        "--weights", sim_dir / "weights.csv", "--out", out])
            stdout, err = capsys.readouterr()
            return (code, stdout.replace(str(out), "OUT"),
                    {path.name: path.read_bytes() for path in out.iterdir()}), err

        capsys.readouterr()
        monkeypatch.setattr(cli, "stationarity_margin",
                            lambda *args: seen.append(args) or margin)
        checked, err = outputs("checked")
        assert checked[0] == 0 and checked[2]
        assert err.splitlines() == ([] if text is None else [
            f"warning: stationarity margin {text} >= 1: the propagation series "
            "may diverge, so the effects may mean nothing"])
        # the margin of alpha-hat as alpha_hat.csv holds it, on the operator's grid and W
        (alpha, operator, weights), = seen
        with open(tmp_path / "checked" / "alpha_hat.csv") as fh:
            written = [float(row["estimate"]) for row in csv.DictReader(fh)]
        assert alpha.tolist() == written and operator.grid.count == 99 and weights.n == 40
        # the check changes neither the exit code nor stdout nor a byte of the files
        monkeypatch.setattr(cli, "stationarity_margin", lambda *args: 0.0)
        assert outputs("unchecked") == (checked, "")

    @pytest.mark.parametrize("value", ["a", "0,x", "5", "-1", "0,1", "0,0"])
    def test_bad_iv_exclude_is_data_error(self, sim_dir, tmp_path, capsys, value):
        # not integers, not covariate indices of the one-covariate panel, or repeated
        est = tmp_path / "est"
        est.mkdir()
        code = run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv",
            "--weights", sim_dir / "weights.csv", "--iv-exclude", value, "--out", est,
        ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "exclude" in err[0]
        assert not any(est.iterdir())


class TestMonteCarlo:
    def test_preset_table(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", "--preset", "benchmark-table1-row1",
                    "--replications", 2, "--seed", 5, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,T,L,Ktilde,r,estimator,target,bias,rmse"
        assert len(lines) == 7  # three estimators x two targets

    def test_unknown_preset(self, tmp_path):
        code = run(["montecarlo", "--preset", "bogus", "--seed", 5])
        assert code == 4

    def test_explicit_design(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", "--n", 16, "--T", 3, "--moment-points", 8,
                    "--r", 1.0, "--estimators", "2sls", "--replications", 2,
                    "--seed", 9, "--out", out])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("flag,value", [("--n", 64), ("--T", 3), ("--moment-points", 8),
                                            ("--inner-knots", 3), ("--r", 0.4),
                                            ("--estimators", "gmm1")])
    def test_design_option_beside_a_preset_warns(self, tmp_path, capsys, flag, value):
        # a preset fixes the whole design: the option is reported and has no effect
        preset = ["montecarlo", "--preset", "benchmark-table1-row2", "--replications", 2,
                  "--seed", 5]
        assert run([*preset, "--out", tmp_path / "preset.csv"]) == 0
        capsys.readouterr()
        code = run([*preset, flag, value, "--out", tmp_path / "mc.csv"])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("# ")] == [
            f"warning: {flag} does not apply with --preset; ignored"]
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "preset.csv").read_bytes()

    @pytest.mark.parametrize("design", [["--preset", "benchmark-table1-row1"],
                                        ["--n", 16, "--T", 3, "--estimators", "2sls"]])
    @pytest.mark.parametrize("flag", ["--replications", "--workers"])
    def test_zero_count_is_data_error(self, tmp_path, capsys, design, flag):
        # a zero is passed on, not replaced by a default, and nothing runs
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", *design, flag, 0, "--seed", 9, "--out", out])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", -1], ["--T", 1, "--seed", 9],
                                       ["--preset", "benchmark-table1-row1", "--seed", -1]])
    def test_bad_seed_or_period_count_is_data_error(self, tmp_path, capsys, flags):
        # rejected before any replication runs
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", *flags, "--replications", 2, "--out", out])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_repeated_estimator_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", "--n", 16, "--T", 3, "--moment-points", 8,
                    "--estimators", "gmm1,gmm1", "--replications", 1, "--seed", 9,
                    "--out", out])
        assert code == 4
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--inner-knots", -1], ["--r", "nan"], ["--r", "inf"],
                                       ["--n", 1], ["--moment-points", 3],
                                       ["--moment-points", 0, "--workers", 2]])
    def test_bad_design_value_is_data_error(self, tmp_path, capsys, flags):
        # the first replication raises the design error (exit 4), before any
        # replication is scored; only other failures are counted (exit 5 if many)
        out = tmp_path / "mc.csv"
        code = run(["montecarlo", "--n", 5, "--T", 3, *flags, "--replications", 1,
                    "--seed", 1, "--out", out])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


class TestFailureReports:
    def test_montecarlo_reports_first_failure(self, tmp_path, monkeypatch, capsys):
        import fnar.montecarlo as mc

        original = mc._draw_mc_panel
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 2:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_draw_mc_panel", flaky)
        code = run(["montecarlo", "--n", 16, "--T", 3, "--moment-points", 8,
                    "--estimators", "gmm1", "--replications", 10, "--seed", 1,
                    "--out", tmp_path / "mc.csv"])
        assert code == 0
        err = capsys.readouterr().err
        assert "10 replications, 1 failures" in err
        assert "first failure: replication 1: RuntimeError: synthetic failure" in err

    def test_montecarlo_reports_non_converged_fits(self, tmp_path, monkeypatch, capsys):
        import fnar.estimator as est

        argv = ["montecarlo", "--n", 16, "--T", 3, "--moment-points", 8, "--replications", 2,
                "--seed", 1]
        assert run(argv) == 0
        converged = capsys.readouterr()
        assert "not converged" not in converged.err
        monkeypatch.setattr(est, "_MAX_ITER", 1)
        assert run(argv) == 0
        capped = capsys.readouterr()
        assert capped.err.splitlines()[1:] == [
            "# fits not converged, still scored in bias and rmse: gmm1 2, gmm2 2"]
        # the table keeps its layout; only its values move with the capped fits
        table = [line.split(",")[:7] for line in capped.out.splitlines()]
        assert table == [line.split(",")[:7] for line in converged.out.splitlines()]
        assert len(table) == 7

    def test_estimate_warns_when_not_converged(self, sim_dir, tmp_path, monkeypatch,
                                               capsys):
        import fnar.cli as cli

        original = cli.fit_gmm

        def stalled(*args, **kwargs):
            fit = original(*args, **kwargs)
            fit.converged = False
            return fit

        monkeypatch.setattr(cli, "fit_gmm", stalled)
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", sim_dir / "observations.csv",
                    "--covariates", sim_dir / "covariates.csv",
                    "--weights", sim_dir / "weights.csv", "--out", est])
        assert code == 0
        assert "warning: gmm1 fit not converged" in capsys.readouterr().err
        assert "  converged: False" in (est / "fit_report.txt").read_text()

    def test_estimate_silent_when_converged(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        code = run(["estimate", "--observations", sim_dir / "observations.csv",
                    "--covariates", sim_dir / "covariates.csv",
                    "--weights", sim_dir / "weights.csv", "--out", est])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        assert "  converged: True" in (est / "fit_report.txt").read_text()


class TestEffects:
    @pytest.fixture()
    def star_files(self, tmp_path):
        wfile = tmp_path / "w.csv"
        n = 5
        with open(wfile, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "weight"])
            for j in range(1, n):
                writer.writerow([0, j, 1.0 / (n - 1)])
                writer.writerow([j, 0, 1.0])
        alpha = tmp_path / "alpha.csv"
        with open(alpha, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "value"])
            for s in np.linspace(0, 1, 21):
                writer.writerow([s, 0.4])
        shock = tmp_path / "eta.csv"
        with open(shock, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "value"])
            for s in np.linspace(0, 1, 21):
                writer.writerow([s, 1.0])
        return wfile, alpha, shock

    def test_impulse_tables(self, star_files, tmp_path, capsys):
        wfile, alpha, shock = star_files
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", "impulse", "--alpha-file", alpha, "--weights", wfile,
                    "--operator", "point-eval", "--unit", 0, "--shock-file", shock,
                    "--orders", 5, "--grid-count", 33, "--out", out])
        assert code == 0
        with open(out / "impulse_orders.csv") as fh:
            rows = list(csv.DictReader(fh))
        orders = {int(r["order"]) for r in rows}
        assert orders == set(range(6))

    def test_past_window_impulse_matches_library(self, star_files, tmp_path):
        wfile, alpha, shock = star_files
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", "impulse", "--alpha-file", alpha, "--weights", wfile,
                    "--operator", "past-window", "--window-width", 0.3, "--unit", 1,
                    "--shock-file", shock, "--orders", 4, "--grid-count", 33, "--out", out])
        assert code == 0
        quad = build_quadrature(33)
        want = impulse_response(read_function(alpha, quad), PastWindow(quad, width=0.3),
                                read_edge_list(wfile), 1, read_function(shock, quad), order=4)
        for stem, values in (("orders", want.per_order), ("cumulative", want.cumulative)):
            table = np.loadtxt(out / f"impulse_{stem}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(table[:, -1], values.ravel())

    def test_key_player_finds_hub(self, star_files, tmp_path, capsys):
        wfile, alpha, shock = star_files
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--weights", wfile,
                    "--operator", "point-eval", "--shock-file", shock,
                    "--grid-count", 33])
        assert code == 0
        assert "risk key player: unit 0" in capsys.readouterr().out

    def test_key_player_table_keeps_isolated_last_unit(self, tmp_path, capsys):
        # seed 0 leaves unit 11 of a 12-unit lattice without neighbours
        sim = tmp_path / "sim"
        sim.mkdir()
        assert run(["simulate", "--n", 12, "--T", 2, "--seed", 0, "--grid-count", 33,
                    "--out", sim]) == 0
        assert (sim / "weights.csv").read_text().splitlines()[-1] == "11,11,0.0"
        shock = tmp_path / "eta.csv"
        shock.write_text("s,value\n0,1\n1,0.5\n")
        table = tmp_path / "impacts.csv"
        capsys.readouterr()
        code = run(["effects", "keyplayer", "--alpha-file", sim / "truth_functions.csv",
                    "--weights", sim / "weights.csv", "--shock-file", shock,
                    "--grid-count", 33, "--out", table])
        assert code == 0
        impacts = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
        assert impacts[:, 0].tolist() == list(range(12))
        star = int(impacts[np.argmax(impacts[:, 1]), 0])
        assert f"risk key player: unit {star}" in capsys.readouterr().out

    def test_tied_key_player_warns(self, star_files, tmp_path, capsys):
        # a band shorter than every distance links no pair: all units tie
        _, alpha, shock = star_files
        coords = tmp_path / "coords.csv"
        coords.write_text("unit,lon,lat\n0,0,0\n1,0.5,0\n2,1,1\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--coords", coords,
                    "--threshold", 0.1, "--shock-file", shock, "--grid-count", 33])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "risk key player: unit 0\n"
        assert err == "warning: 3 units tie at the largest total impact\n"

    def test_lattice_key_player_has_no_tie(self, sim_dir, star_files, capsys):
        _, _, shock = star_files
        capsys.readouterr()
        code = run(["effects", "keyplayer", "--alpha-file", sim_dir / "truth_functions.csv",
                    "--weights", sim_dir / "weights.csv", "--shock-file", shock])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("risk key player: unit ") and err == ""

    @pytest.mark.parametrize("effect, given, ignored", [
        ("keyplayer", ["--unit", 2, "--beta-file", "does-not-exist.csv"],
         ["--unit does not apply to keyplayer", "--beta-file does not apply to keyplayer"]),
        ("impulse", ["--beta-file", "does-not-exist.csv"],
         ["--beta-file does not apply to impulse"]),
        ("marginal", ["--shock-file", "does-not-exist.csv"],
         ["--shock-file does not apply to marginal"]),
        ("keyplayer", ["--coords", "does-not-exist.csv", "--threshold", -5,
                       "--coord-type", "greatcircle", "--binary-weights"],
         [f"{option} does not apply with --weights"
          for option in ("--coords", "--threshold", "--coord-type", "--binary-weights")]),
    ])
    def test_ignored_options_warn(self, star_files, tmp_path, capsys, effect, given,
                                  ignored):
        wfile, alpha, shock = star_files
        needs = {"keyplayer": ["--shock-file", shock], "impulse": ["--shock-file", shock],
                 "marginal": ["--beta-file", alpha]}[effect]

        def outputs(name, *options):
            out = tmp_path / name
            out.mkdir()
            code = run(["effects", effect, "--alpha-file", alpha, "--weights", wfile,
                        *needs, *options, "--grid-count", 33,
                        "--out", out / "impacts.csv" if effect == "keyplayer" else out])
            assert code == 0
            return out, {path.name: path.read_bytes() for path in out.iterdir()}

        out, files = outputs("eff", *given)
        stdout, err = capsys.readouterr()
        assert err.splitlines() == [f"warning: {text}; ignored" for text in ignored]
        assert files and files == outputs("plain")[1]
        if effect != "keyplayer":
            # without --unit, impulse and marginal take unit 0
            assert f" for unit 0 written to {out}" in stdout

    @pytest.mark.parametrize("value, operator, margin", [
        (2.5, "point-eval", "2.5"), (2.5, "epanechnikov", "1.875"),
        (0.4, "point-eval", None), (0.4, "epanechnikov", None)])
    @pytest.mark.parametrize("effect", ["impulse", "marginal", "keyplayer"])
    def test_margin_past_one_warns_and_writes_the_same_files(
            self, sim_dir, tmp_path, capsys, monkeypatch, effect, value, operator, margin):
        # on the row-normalised lattice ||W||_inf = 1: the margin is 2.5 times
        # the operator's bound, 1 for point-eval and 0.75 for epanechnikov
        alpha = tmp_path / "alpha.csv"
        alpha.write_text(f"s,value\n0,{value}\n1,{value}\n")
        shock = tmp_path / "eta.csv"
        shock.write_text("s,value\n0,1\n1,0.5\n")
        given = ["--beta-file" if effect == "marginal" else "--shock-file", shock]

        def outputs(name):
            out = tmp_path / name
            out.mkdir()
            code = run(["effects", effect, "--alpha-file", alpha,
                        "--weights", sim_dir / "weights.csv", *given, "--operator", operator,
                        "--out", out / "impacts.csv" if effect == "keyplayer" else out])
            return code, {path.name: path.read_bytes() for path in out.iterdir()}

        capsys.readouterr()
        code, files = outputs("checked")
        err = capsys.readouterr().err
        assert code == 0 and files
        assert err.splitlines() == ([] if margin is None else [
            f"warning: stationarity margin {margin} >= 1: the propagation series "
            "may diverge, so the effects may mean nothing"])
        # the check changes neither the exit code nor a byte of the tables
        monkeypatch.setattr(cli, "stationarity_margin", lambda *args: 0.0)
        assert outputs("unchecked") == (0, files)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("effect,alpha,eta,operator,err", [
        *[(effect, "1e308", "1", "epanechnikov", [
            "warning: stationarity margin 7.5e+307 >= 1: the propagation series may diverge, "
            "so the effects may mean nothing",
            "error: the propagation is not finite from walk length 2: alpha, the shock or the "
            "weights are too large"]) for effect in ("impulse", "marginal", "keyplayer")],
        # every unit's response is finite, their total impact is not
        ("impulse", "0.5", "1.2e308", "point-eval", [
            "error: the total impact is not finite: alpha, the shock or the weights are too "
            "large"])])
    def test_propagation_that_overflows_is_numeric_error(self, tmp_path, capsys, effect, alpha,
                                                         eta, operator, err):
        sim, out = tmp_path / "sim", tmp_path / "out"
        sim.mkdir()
        out.mkdir()
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 1, "--out", sim]) == 0
        (tmp_path / "alpha.csv").write_text(f"s,value\n0,{alpha}\n1,{alpha}\n")
        (tmp_path / "eta.csv").write_text(f"s,value\n0,{eta}\n1,{eta}\n")
        given = ["--beta-file" if effect == "marginal" else "--shock-file", tmp_path / "eta.csv"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["effects", effect, "--alpha-file", tmp_path / "alpha.csv", "--weights",
                        sim / "weights.csv", *given, "--operator", operator,
                        "--out", out / "impacts.csv" if effect == "keyplayer" else out])
        assert code == 5
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.splitlines() == err
        assert not any(out.iterdir())

    def test_applicable_options_do_not_warn(self, star_files, tmp_path, capsys):
        wfile, alpha, shock = star_files
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", "impulse", "--alpha-file", alpha, "--weights", wfile,
                    "--unit", 2, "--shock-file", shock, "--grid-count", 33, "--out", out])
        assert code == 0
        stdout, err = capsys.readouterr()
        assert err == "" and f"for unit 2 written to {out}" in stdout

    @pytest.mark.parametrize("effect", ["impulse", "marginal", "keyplayer"])
    def test_order_too_large_to_allocate_is_data_error(self, star_files, tmp_path, capsys,
                                                       effect):
        # 10**12 orders of 33 grid values, 240 TiB, exceed MAX_ARRAY_BYTES
        wfile, alpha, shock = star_files
        inputs = {"marginal": ["--beta-file", alpha]}.get(effect, ["--shock-file", shock])
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", effect, "--alpha-file", alpha, "--weights", wfile, *inputs,
                    "--orders", 10**12, "--grid-count", 33,
                    "--out", out / "impacts.csv" if effect == "keyplayer" else out])
        assert code == 4
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == (
            "error: truncation order 1000000000000 needs more memory than can be allocated\n")
        assert list(out.iterdir()) == []

    def test_marginal_requires_beta(self, star_files, tmp_path):
        wfile, alpha, shock = star_files
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", "marginal", "--alpha-file", alpha, "--weights", wfile,
                    "--unit", 1, "--grid-count", 33, "--out", out])
        assert code == 4


    def test_impulse_without_out_is_data_error(self, star_files, capsys):
        wfile, alpha, shock = star_files
        code = run(["effects", "impulse", "--alpha-file", alpha, "--weights", wfile,
                    "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        assert capsys.readouterr().err == "error: impulse needs --out (an output directory)\n"

    def test_marginal_without_out_is_data_error(self, star_files, capsys):
        wfile, alpha, _ = star_files
        code = run(["effects", "marginal", "--alpha-file", alpha, "--beta-file", alpha,
                    "--weights", wfile, "--grid-count", 33])
        assert code == 4
        assert capsys.readouterr().err == "error: marginal needs --out (an output directory)\n"

    @pytest.mark.parametrize("effect", ["impulse", "keyplayer"])
    def test_missing_shock_file_is_data_error(self, effect, star_files, tmp_path, capsys):
        wfile, alpha, _ = star_files
        code = run(["effects", effect, "--alpha-file", alpha, "--weights", wfile,
                    "--grid-count", 33, "--out", tmp_path])
        assert code == 4
        assert capsys.readouterr().err == f"error: {effect} needs --shock-file\n"

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_coordinates_are_data_error(self, star_files, tmp_path, capsys, bad):
        _, alpha, shock = star_files
        coords = tmp_path / "coords.csv"
        coords.write_text(f"unit,lon,lat\n0,0,0\n1,0.5,0\n2,{bad},1\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--coords", coords,
                    "--threshold", 1.0, "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,0.4", "-inf,0.4"])
    def test_non_finite_alpha_file_is_data_error(self, star_files, tmp_path, capsys, row):
        wfile, _, shock = star_files
        alpha = tmp_path / "alpha-bad.csv"
        alpha.write_text(f"s,value\n0,0.4\n{row}\n1,0.4\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--weights", wfile,
                    "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {alpha}:3: non-finite point")
        assert err.count("\n") == 1

    def test_one_column_function_table_is_data_error(self, star_files, tmp_path, capsys):
        wfile, _, shock = star_files
        alpha = tmp_path / "alpha-one.csv"
        alpha.write_text("s\n0\n1\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--weights", wfile,
                    "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        assert capsys.readouterr() == (
            "", f"error: {alpha}:1: expected a header with at least two columns\n")

    def test_non_finite_beta_file_is_data_error(self, star_files, tmp_path, capsys):
        wfile, alpha, _ = star_files
        beta = tmp_path / "beta.csv"
        beta.write_text("s,value\n0,1\n0.5,1\n1,nan\n")
        out = tmp_path / "eff"
        out.mkdir()
        code = run(["effects", "marginal", "--alpha-file", alpha, "--beta-file", beta,
                    "--weights", wfile, "--unit", 1, "--grid-count", 33, "--out", out])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"error: {beta}:4: non-finite point")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
    def test_non_positive_threshold_is_data_error(self, star_files, tmp_path, capsys,
                                                  threshold):
        _, alpha, shock = star_files
        coords = tmp_path / "coords.csv"
        coords.write_text("unit,lon,lat\n0,0,0\n1,0.5,0\n2,1,1\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--coords", coords,
                    "--threshold", threshold, "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: distance threshold must be positive, got {float(threshold)}\n"

    def test_huge_edge_id_is_data_error(self, star_files, tmp_path, capsys):
        _, alpha, shock = star_files
        weights = tmp_path / "weights.csv"
        weights.write_text("i,j,weight\n0,1,0.5\n1,0,0.5\n123456789012,2,1.0\n")
        code = run(["effects", "keyplayer", "--alpha-file", alpha, "--weights", weights,
                    "--shock-file", shock, "--grid-count", 33])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "123456789012" in err[0]


# config sections that name the files of the simulated panel, relative to its directory
_PANEL_FILES = {"observations": "observations.csv", "covariates": "covariates.csv",
                "weights": "weights.csv"}
_FUNCTION_FILES = {"alpha_file": "truth_functions.csv", "shock_file": "truth_functions.csv",
                   "weights": "weights.csv"}


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "config.json"
        out_a = tmp_path / "a"
        out_a.mkdir()
        cfg.write_text(json.dumps({
            "simulate": {"n": 12, "T": 3, "r": 1.0, "seed": 4, "out": str(out_a),
                         "grid-count": 33}
        }))
        code = run(["--config", cfg, "simulate"])
        assert code == 0
        assert (out_a / "observations.csv").exists()
        # explicit flag beats the config value
        out_b = tmp_path / "b"
        out_b.mkdir()
        code = run(["--config", cfg, "simulate", "--out", out_b, "--seed", 8])
        assert code == 0
        assert (out_b / "observations.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ([{"simulate": {"n": 12}}], "config must be a JSON object of subcommand sections"),
        ({"simulate": 3}, "section 'simulate' must be a JSON object"),
        ({"simulate": {"n": 12, "seeed": 4}}, "unknown simulate option 'seeed'"),
        # values of the wrong kind, in sections that are otherwise complete
        ({"simulate": {"n": 12, "T": 3, "grid_count": 99.5}},
         "simulate option 'grid_count': invalid int value: '99.5'"),
        ({"simulate": {"n": 12, "T": 3, "grid_count": None}},
         "simulate option 'grid_count': expected a string or a number, got null"),
        ({"simulate": {"n": 12.7, "T": 3}}, "simulate option 'n': invalid int value: '12.7'"),
        ({"simulate": {"n": 12, "T": True}},
         "simulate option 'T': expected a string or a number, got true"),
        ({"estimate": {**_PANEL_FILES, "moment_points": 10.5}},
         "estimate option 'moment_points': invalid int value: '10.5'"),
        ({"estimate": {**_PANEL_FILES, "binary_weights": 1}},
         "estimate option 'binary_weights': expected true or false, got 1"),
        ({"effects": {**_FUNCTION_FILES, "orders": 2.5}},
         "effects option 'orders': invalid int value: '2.5'"),
    ])
    def test_malformed_config_is_schema_error(self, request, tmp_path, monkeypatch, capsys,
                                              config, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        command = next(iter(config)) if isinstance(config, dict) else "simulate"
        if command != "simulate":  # the config names the files of the simulated panel
            monkeypatch.chdir(request.getfixturevalue("sim_dir"))
        argv = {"simulate": ["simulate", "--seed", 4], "estimate": ["estimate"],
                "effects": ["effects", "impulse"]}[command]
        code = run(["--config", cfg, *argv, "--out", out])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}: {message}"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("text", [b'{"simulate": {"n": "1\xff"}}', b"[1, 2"],
                             ids=["not-utf8", "not-json"])
    def test_unreadable_config_is_schema_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        out.mkdir()
        assert run(["--config", cfg, "simulate", "--seed", 4, "--out", out]) == 4
        printed = capsys.readouterr()
        assert printed.out == ""
        err = printed.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: not a JSON file: ")
        assert not any(out.iterdir())

    def test_config_value_outside_its_choices_is_schema_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"estimate": {"estimator": "gmm3"}}))
        assert run(["--config", cfg, "estimate", "--out", tmp_path]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {cfg}: estimate option 'estimator': invalid choice: 'gmm3'")

    def test_misspelt_estimate_key_is_schema_error(self, sim_dir, tmp_path, capsys):
        # the misspelt key would otherwise run gmm1 in place of gmm2 and exit 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"estimate": {"estimatr": "gmm2"}}))
        est = tmp_path / "est"
        est.mkdir()
        code = run(["--config", cfg, "estimate", "--observations", sim_dir / "observations.csv",
                    "--covariates", sim_dir / "covariates.csv",
                    "--weights", sim_dir / "weights.csv", "--out", est])
        assert code == 4
        assert "unknown estimate option 'estimatr'" in capsys.readouterr().err
        assert not any(est.iterdir())

    def test_other_sections_are_not_checked(self, tmp_path):
        # only the section of the subcommand being run is read
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"estimate": {"bogus": 1}, "montecarlo": 3}))
        code = run(["--config", cfg, "simulate", "--n", 12, "--T", 3, "--seed", 4,
                    "--grid-count", 33, "--out", tmp_path])
        assert code == 0


def _peak_traced(call):
    """``call()`` and the peak bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_PANEL_ARGS = ["--observations", "observations.csv", "--covariates", "covariates.csv",
               "--weights", "weights.csv"]


def _effects(effect, *flags):
    """``fnar effects`` of the simulated panel's truth; a later flag wins."""
    given = "--beta-file" if effect == "marginal" else "--shock-file"
    return ["effects", effect, "--alpha-file", "truth_functions.csv", given,
            "truth_functions.csv", "--weights", "weights.csv", *flags]


class TestSizeRule:
    """Every size argument, and a table's line count, is checked against
    MAX_ARRAY_BYTES before anything is allocated: a refused size exits 4 with
    one error line, writes nothing and allocates little. Each run but the last
    lowers the limit to 1 MiB, so that its refused sizes are small."""

    @pytest.fixture()
    def small(self, tmp_path, monkeypatch):
        """An n=12, T=3 simulated panel, its tables with blank lines appended
        and an empty output directory, all in the working directory."""
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 4, "--out", tmp_path]) == 0
        blank = {"observations.csv": 140_000, "truth_functions.csv": 70_000}
        for name, count in blank.items():
            Path(f"blank-{name}").write_bytes(Path(name).read_bytes() + b"\n" * count)
        Path("out").mkdir()
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 2**20)

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", 12, "--T", 3, "--seed", 4, "--grid-count", 2**17 + 1],
         "grid count 131073 needs more memory than can be allocated"),
        (["estimate", *_PANEL_ARGS, "--operator", "point-eval", "--grid-count", 4000],
         "grid count 4000 needs 36 x 4000 panel values, more memory than can be allocated"),
        (_effects("impulse", "--grid-count", 363),
         "grid count 363 needs a 363 x 363 operator table, more memory than can be allocated"),
        *[(_effects(effect, "--grid-count", 33, "--orders", 4000),
           "truncation order 4000 needs more memory than can be allocated")
          for effect in ("impulse", "marginal", "keyplayer")],
        # counted lines, though all but the first few are blank
        (["estimate", *_PANEL_ARGS, "--observations", "blank-observations.csv"],
         "blank-observations.csv: 143565 lines need more memory than can be allocated"),
        (_effects("keyplayer", "--alpha-file", "blank-truth_functions.csv"),
         "blank-truth_functions.csv: 70100 lines need more memory than can be allocated"),
        # the simulated (n, T, G) panel values, before any draw
        (["simulate", "--n", 400, "--T", 5, "--seed", 4],
         "n=400 and T=5 need 400 x 5 x 99 panel values, more memory than can be allocated"),
        (["montecarlo", "--n", 400, "--T", 5, "--replications", 1, "--seed", 4],
         "n=400 and T=5 need 400 x 5 x 99 panel values, more memory than can be allocated"),
        # the moment design's per-point aggregates, before the first is allocated
        (["estimate", *_PANEL_ARGS, "--moment-points", 1000],
         "1000 moment points need 1000 x 18 x 12 design values, "
         "more memory than can be allocated"),
        (["montecarlo", "--n", 12, "--T", 3, "--moment-points", 1000, "--replications", 1,
          "--seed", 4],
         "1000 moment points need 1000 x 18 x 12 design values, "
         "more memory than can be allocated"),
        # refused before the points themselves, 1.6 MB of them, are made
        (["estimate", *_PANEL_ARGS, "--moment-points", 200_000],
         "200000 moment points need 200000 x 2 x 12 design values, "
         "more memory than can be allocated"),
        (["montecarlo", "--n", 12, "--T", 3, "--moment-points", 200_000, "--replications", 1,
          "--seed", 4],
         "200000 moment points need 200000 x 2 x 12 design values, "
         "more memory than can be allocated"),
    ])
    def test_refused_size_allocates_nothing(self, small, capsys, argv, message):
        out = ("out/impacts.csv" if "keyplayer" in argv
               else "out/mc.txt" if argv[0] == "montecarlo" else "out")
        code, peak = _peak_traced(lambda: run([*argv, "--out", out]))
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(Path("out").iterdir())
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_panel_size_past_the_limit_is_refused_before_any_draw(self, tmp_path, capsys,
                                                                  command):
        # 40,000 x 250 x 99 panel values are 7.38 GiB, which an overcommitting
        # allocator grants and then fills
        out = tmp_path / "mc.txt" if command == "montecarlo" else tmp_path
        code, peak = _peak_traced(lambda: run([command, "--n", 40_000, "--T", 250,
                                               "--seed", 1, "--out", out]))
        assert code == 4
        assert capsys.readouterr().err == (
            "error: n=40000 and T=250 need 40000 x 250 x 99 panel values, "
            "more memory than can be allocated\n")
        assert not any(tmp_path.iterdir())
        assert peak < 2**23

    def test_point_eval_panel_values_past_the_limit_allocate_one_grid(
            self, sim_dir, tmp_path, capsys, monkeypatch):
        # 200 x 5,000,000 panel values are 7.45 GiB, which an overcommitting
        # allocator grants and then fills; only the one grid of 5,000,000
        # points and weights (80 MB) is allocated, with the n=40 table's records
        grids = []
        for module in (cli, io):
            monkeypatch.setattr(module, "build_quadrature",
                                lambda count: grids.append(count) or build_quadrature(count))
        est = tmp_path / "est"
        est.mkdir()
        code, peak = _peak_traced(lambda: run([
            "estimate", "--observations", sim_dir / "observations.csv",
            "--covariates", sim_dir / "covariates.csv", "--weights", sim_dir / "weights.csv",
            "--operator", "point-eval", "--grid-count", 5 * 10**6, "--out", est]))
        assert code == 4
        assert capsys.readouterr().err == (
            "error: grid count 5000000 needs 200 x 5000000 panel values, "
            "more memory than can be allocated\n")
        assert not any(est.iterdir())
        assert grids == [5 * 10**6]
        assert peak < 2 * 8 * 5 * 10**6 + 2**23


class TestProcess:
    """``python -m fnar.cli`` exits with the code that ``main`` returns."""

    @staticmethod
    def fnar(*args):
        """``python -m fnar.cli`` with ``args``, on this checkout's sources."""
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "fnar.cli", *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("scale,code", [(1.0, 0), ("nan", 4)])
    def test_exit_code_reaches_the_shell(self, tmp_path, scale, code):
        proc = self.fnar("simulate", "--n", 10, "--T", 3, "--seed", 1, "--alpha-scale", scale,
                         "--out", tmp_path)
        assert proc.returncode == code, proc.stderr
        if code:
            err = proc.stderr.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and proc.stdout == ""
            assert not any(tmp_path.iterdir())
        else:
            assert proc.stderr == "" and proc.stdout == f"wrote panel (n=10, T=3) to {tmp_path}\n"
            assert sorted(path.name for path in tmp_path.iterdir()) == [
                "covariates.csv", "observations.csv", "truth_functions.csv", "weights.csv"]

    def test_distances_past_the_largest_double_print_no_numpy_warning(self, tmp_path):
        # the 1e308 row's squared differences from the others pass the largest
        # double: inside the infinite band at weight 1/inf, which W drops
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 4, "--out", tmp_path]) == 0
        coords = np.random.default_rng(4).uniform(size=(12, 2))
        coords[6, 1] = 1e308
        (tmp_path / "coords.csv").write_text("unit,lon,lat\n" + "".join(
            f"{i},{lon!r},{lat!r}\n" for i, (lon, lat) in enumerate(coords.tolist())))
        est = tmp_path / "est"
        est.mkdir()
        proc = self.fnar("estimate", "--observations", tmp_path / "observations.csv",
                         "--covariates", tmp_path / "covariates.csv",
                         "--coords", tmp_path / "coords.csv", "--threshold", "inf",
                         "--out", est)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        # only the fit's own warning, of a margin past one
        assert all(line.startswith("warning: stationarity margin")
                   for line in proc.stderr.splitlines()), proc.stderr
