"""The record of every fnar command's outputs on small fixed inputs, and the
script that regenerates it.

``record(folder)`` runs, through ``fnar.cli.main`` in this process and under
``folder``: ``simulate`` at n=12, T=3 on a 12-point grid (the fewest a
6-function basis takes), ``estimate`` with each of the 3 operators and the 3
estimators, ``estimate`` with gmm1 and gmm2 on great-circle distance weights
from 12 fixed stations, ``effects impulse``, ``marginal`` and ``keyplayer`` on
one of the estimates, and a 3-replication ``montecarlo``. It returns every output file,
by its path under ``folder``, as a header and rows: a table's fields, or
``fit_report.txt``'s lines split into text and numbers. Integer fields are
ints and other numbers floats, both as Python reads their text; anything else
is a label. ``tests/test_cli_record.py`` compares the record with the
committed ``cli_record.json``: labels and ints exactly, floats within
``tolerance(name)`` relative.

Regenerate ``cli_record.json`` from this checkout, printing the largest
relative change of each file against the committed one (``new`` for a file
it lacked, ``inf`` where a label, an int or a shape changed):

    PYTHONPATH=src python tests/cli_record.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from fnar.cli import main

RECORD = Path(__file__).with_name("cli_record.json")
OPERATORS = ("point-eval", "epanechnikov", "past-window")
ESTIMATORS = ("gmm1", "gmm2", "2sls")
# 12 stations, unit,lon,lat; a 500 km band links each to 2-5 others
STATIONS = """unit,lon,lat
0,116.41,39.9
1,117.2,39.08
2,114.51,38.04
3,112.55,37.87
4,113.62,34.75
5,117.0,36.65
6,118.78,32.06
7,120.15,30.27
8,121.47,31.23
9,114.3,30.59
10,112.94,28.23
11,115.86,28.68
"""
# a number as fnar prints one: repr's texts, and the fit report's %.12g and %g
_NUMBER = re.compile(r"(?<![\w.-])(-?(?:\d+(?:\.\d*)?(?:e[-+]\d+)?|inf|nan))(?![\w.])")


def tolerance(name) -> float:
    """The relative change allowed in a float of the output ``name``: 1e-12,
    or a unit of the twelfth significant digit the fit report prints."""
    return 1e-11 if name.endswith("fit_report.txt") else 1e-12


def _run(*args) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in args])
    if code != 0:
        raise RuntimeError(f"fnar {' '.join(map(str, args))} exited {code}: {err.getvalue()}")


def _commands(folder):
    """Each command the record runs, with the folder or file it writes."""
    sim, grid = folder / "sim", ["--grid-count", 12]
    panel = ["--observations", sim / "observations.csv", "--covariates",
             sim / "covariates.csv", "--weights", sim / "weights.csv"]
    yield sim, ["simulate", "--n", 12, "--T", 3, "--seed", 5, "--out", sim, *grid]
    for operator in OPERATORS:
        for estimator in ESTIMATORS:
            out = folder / f"est-{operator}-{estimator}"
            yield out, ["estimate", *panel, "--operator", operator, "--estimator", estimator,
                        *grid, "--out", out]
    coords = ["--coords", folder / "stations.csv", "--coord-type", "greatcircle",
              "--threshold", 500]
    for estimator in ("gmm1", "gmm2"):
        out = folder / f"est-coords-{estimator}"
        yield out, ["estimate", *panel[:4], *coords, "--estimator", estimator, *grid,
                    "--out", out]
    est, shock = folder / "est-epanechnikov-gmm1", folder / "shock.csv"
    effects = ["--alpha-file", est / "alpha_hat.csv", "--weights", sim / "weights.csv",
               "--orders", 3, *grid]
    yield folder / "impulse", ["effects", "impulse", *effects, "--shock-file", shock,
                               "--unit", 2, "--out", folder / "impulse"]
    yield folder / "marginal", ["effects", "marginal", *effects, "--beta-file",
                                est / "beta1_hat.csv", "--unit", 2, "--out", folder / "marginal"]
    yield folder / "impacts.csv", ["effects", "keyplayer", *effects, "--shock-file", shock,
                                   "--out", folder / "impacts.csv"]
    yield folder / "mc.txt", ["montecarlo", "--n", 12, "--T", 3, "--replications", 3,
                              "--seed", 3, "--workers", 1, "--out", folder / "mc.txt"]


def _value(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parsed(path) -> dict:
    if path.name != "fit_report.txt":  # a table
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return {"header": header, "rows": [[_value(field) for field in row] for row in rows]}
    return {"header": [], "rows": [[_value(part) for part in _NUMBER.split(line) if part]
                                   for line in path.read_text().splitlines()]}


def record(folder) -> dict:
    """Every output of the commands above, run under ``folder``, by its path there."""
    folder = Path(folder)
    (folder / "shock.csv").write_text("s,value\n0,1\n1,0.5\n")
    (folder / "stations.csv").write_text(STATIONS)
    outputs = {}
    for out, args in _commands(folder):
        if not out.suffix:
            out.mkdir()
        _run(*args)
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            outputs[path.relative_to(folder).as_posix()] = _parsed(path)
    return outputs


def _change(want, got) -> float:
    """The relative change from one field to another; inf unless both are
    floats or they are equal."""
    if type(want) is not type(got):
        return math.inf
    if not isinstance(want, float):
        return 0.0 if want == got else math.inf
    if want == got or (math.isnan(want) and math.isnan(got)):
        return 0.0
    return abs(want - got) / max(abs(want), abs(got))


def changes(want, got):
    """(row, column, relative change) of each field of the parsed output
    ``got`` against ``want``; one (-1, -1, inf) if their headers or shapes differ."""
    shapes = [[len(row) for row in table["rows"]] for table in (want, got)]
    if want["header"] != got["header"] or shapes[0] != shapes[1]:
        yield -1, -1, math.inf
        return
    for i, (old, new) in enumerate(zip(want["rows"], got["rows"])):
        for j, (a, b) in enumerate(zip(old, new)):
            yield i, j, _change(a, b)


def _dumps(outputs) -> str:
    """The record as JSON, a row a line, floats as repr writes them."""
    files = []
    for name, table in outputs.items():
        rows = ",\n  ".join(json.dumps(row) for row in table["rows"])
        files.append(f' {json.dumps(name)}: {{"header": {json.dumps(table["header"])}, '
                     f'"rows": [\n  {rows}]}}')
    return "{\n" + ",\n".join(files) + "\n}\n"


if __name__ == "__main__":
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as folder:
        new = record(folder)
    for name, table in new.items():
        change = (max((c for _, _, c in changes(old[name], table)), default=0.0)
                  if name in old else "new")
        print(f"{name}: {change}")
    for name in sorted(old.keys() - new.keys()):
        print(f"{name}: gone", file=sys.stderr)
    RECORD.write_text(_dumps(new))
