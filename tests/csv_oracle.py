"""Row-by-row CSV readers and writers: the slow-path oracle of ``fnar.io``.

These are the per-row readers and ``csv.writer`` writers that the vectorised
``fnar.io`` layer replaced, kept as they were (the dict-based panel build
included), with one rule added since: a panel row's ``y`` and covariates
must be finite. A vectorised reader must give bit-identical arrays wherever these
accept an input, and a ``SchemaError`` with the same ``.line`` wherever these
reject it; a writer must give the same bytes.
"""

import csv
import itertools
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from fnar.basis import build_quadrature
from fnar.errors import SchemaError
from fnar.estimator import functional_estimate_table
from fnar.io import interpolate_response
from fnar.network import NetworkWeights
from fnar.simulate import FunctionalPanel


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_function_file(path, quad):
    """Read a two-column (s, value) table and interpolate it onto the grid."""
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise SchemaError("expected a header with at least two columns", line=1,
                              path=str(path))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                pairs.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError) as exc:
                raise SchemaError(str(exc), line=lineno, path=str(path)) from exc
    if not pairs:
        raise SchemaError("function table has no rows", path=str(path))
    return interpolate_response(np.array(pairs), quad)


def _read_observations(path):
    """Read `unit,period,s,y` rows into {(unit, period): [(s, y), ...]}."""
    obs = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["unit", "period", "s", "y"]:
            raise SchemaError("expected header 'unit,period,s,y'", line=1, path=str(path))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                i, t, s, y = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            except (ValueError, IndexError) as exc:
                raise SchemaError(str(exc), line=lineno, path=str(path)) from exc
            if not 0.0 <= s <= 1.0:
                raise SchemaError(f"evaluation point {s} outside [0, 1]", line=lineno,
                                  path=str(path))
            if not np.isfinite(y):
                raise SchemaError(f"non-finite y {y}", line=lineno, path=str(path))
            obs.setdefault((i, t), []).append((s, y))
    if not obs:
        raise SchemaError("observation table is empty", path=str(path))
    return obs


def _read_covariates(path):
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["unit", "period"]:
            raise SchemaError("expected header 'unit,period,x1,...'", line=1, path=str(path))
        d_x = len(header) - 2
        if d_x < 1:
            raise SchemaError("covariate table needs at least one x column", line=1,
                              path=str(path))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows[(int(row[0]), int(row[1]))] = [float(v) for v in row[2:2 + d_x]]
            except (ValueError, IndexError) as exc:
                raise SchemaError(str(exc), line=lineno, path=str(path)) from exc
            if not np.all(np.isfinite(rows[(int(row[0]), int(row[1]))])):
                raise SchemaError("non-finite covariate", line=lineno, path=str(path))
    return rows, d_x


def _read_coords(path):
    coords = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3:
            raise SchemaError("expected header 'unit,lon,lat'", line=1, path=str(path))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                coords.append((int(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError) as exc:
                raise SchemaError(str(exc), line=lineno, path=str(path)) from exc
    coords.sort()
    ids = [c[0] for c in coords]
    if ids != list(range(len(ids))):
        raise SchemaError("unit ids must be 0..n-1 without gaps", path=str(path))
    return np.array([(lon, lat) for _, lon, lat in coords])


def _build_panel(args) -> FunctionalPanel:
    obs = _read_observations(args.observations)
    cov, d_x = _read_covariates(args.covariates)
    units = sorted({i for i, _ in obs})
    periods = sorted({t for _, t in obs})
    n, T = len(units), len(periods)
    if units != list(range(n)) or periods != list(range(T)):
        raise SchemaError("unit and period ids must be contiguous from 0",
                          path=str(args.observations))
    quad = build_quadrature(args.grid_count)
    y = np.empty((n, T, quad.count))
    x = np.empty((n, T, d_x))
    for i in range(n):
        for t in range(T):
            if (i, t) not in obs:
                raise SchemaError(f"no observations for unit {i}, period {t}",
                                  path=str(args.observations))
            if (i, t) not in cov:
                raise SchemaError(f"no covariates for unit {i}, period {t}",
                                  path=str(args.covariates))
            y[i, t] = interpolate_response(np.array(obs[(i, t)]), quad)
            x[i, t] = cov[(i, t)]
    return FunctionalPanel(y=y, x=x, quad=quad)


def read_edge_list(path, n: int | None = None) -> NetworkWeights:
    """Load weights from a text edge list with header ``i,j,weight`` (0-based ids)."""
    rows, cols, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["i", "j", "weight"]:
            raise SchemaError("expected header 'i,j,weight'", line=1, path=str(path))
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise SchemaError(f"expected 3 fields, got {len(row)}", line=lineno, path=str(path))
            try:
                i, j, v = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise SchemaError(str(exc), line=lineno, path=str(path)) from exc
            if i < 0 or j < 0:
                raise SchemaError("unit ids must be non-negative", line=lineno, path=str(path))
            if i == j and v != 0.0:
                raise SchemaError("self-loop weights are not allowed", line=lineno, path=str(path))
            rows.append(i)
            cols.append(j)
            vals.append(v)
    if n is None:
        if not rows:
            raise SchemaError("edge list is empty and no unit count was given", path=str(path))
        n = max(max(rows), max(cols)) + 1
    w = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    return NetworkWeights(w=w)


def write_edge_list(weights: NetworkWeights, path) -> None:
    """Write weights as a text edge list with header ``i,j,weight``; a last
    unit in no edge gets the row ``n-1,n-1,0.0``, so the file keeps n."""
    coo = weights.w.tocoo()
    last = weights.n - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "weight"])
        for i, j, v in zip(coo.row, coo.col, coo.data):
            writer.writerow([int(i), int(j), repr(float(v))])
        if last not in coo.row and last not in coo.col:
            writer.writerow([last, last, repr(0.0)])


def write_simulation(panel, truth, out):
    """The tables ``fnar simulate`` writes."""
    s_vals = panel.quad.points
    obs_rows = (
        (i, t, repr(float(s_vals[g])), repr(float(panel.y[i, t, g])))
        for i in range(panel.n) for t in range(panel.T) for g in range(panel.quad.count)
    )
    _write_rows(out / "observations.csv", ["unit", "period", "s", "y"], obs_rows)
    cov_rows = [
        (i, t, *[repr(float(v)) for v in panel.x[i, t]])
        for i in range(panel.n) for t in range(panel.T)
    ]
    _write_rows(out / "covariates.csv",
                ["unit", "period"] + [f"x{j + 1}" for j in range(panel.d_x)], cov_rows)
    write_edge_list(truth.weights, out / "weights.csv")
    truth_rows = [
        (repr(float(s_vals[g])), repr(float(truth.alpha[g])),
         *[repr(float(truth.beta[j, g])) for j in range(truth.d_x)])
        for g in range(panel.quad.count)
    ]
    _write_rows(out / "truth_functions.csv",
                ["s", "alpha"] + [f"beta{j + 1}" for j in range(truth.d_x)], truth_rows)


def write_estimate(fit, d_x, out):
    """The tables ``fnar estimate`` writes."""
    header = ["s", "estimate", "se", "ci_lo", "ci_hi"]
    _write_rows(out / "alpha_hat.csv", header, functional_estimate_table(fit, "alpha"))
    for j in range(d_x):
        _write_rows(out / f"beta{j + 1}_hat.csv", header,
                    functional_estimate_table(fit, "beta", j=j))
    _write_array(out / "fixed_effects.csv", ["unit", "grid_index"], fit.fixed_effects)


def _write_array(path, index_names, values, value_name="value"):
    """One row per entry of ``values``: its indices, then the value in full precision."""
    index = itertools.product(*map(range, values.shape))
    _write_rows(path, [*index_names, value_name],
                ((*ix, repr(v)) for ix, v in zip(index, values.ravel().tolist())))


def _write_propagation(result, out_dir, stem):
    out_dir = Path(out_dir)
    _write_array(out_dir / f"{stem}_orders.csv", ["order", "unit", "grid_index"],
                 result.per_order)
    _write_array(out_dir / f"{stem}_cumulative.csv", ["unit", "grid_index"],
                 result.cumulative)
