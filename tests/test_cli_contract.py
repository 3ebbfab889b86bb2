"""A property-based contract for the exit codes of ``cli.main``.

Each example's argv is built from ``_build_parser()``'s own actions: a
subcommand, then each of its options or none, read by the option's type and
choices, with boundary values (0, -1, nan, +-inf, an empty string, an option
given twice), a ``--config`` file that may be malformed, and input tables
that may have one bad row, a finite 1e308 among them. Every size argument
is capped and ``--workers`` is at most 1, so that no example allocates much
memory or starts a process pool. Whatever the argv, ``main`` run in this
process must

- exit with a documented code: 0, 2 (I/O, or a usage error argparse
  reports), 3, 4 or 5;
- on a nonzero exit, print no traceback and end stderr with an ``error:``
  line;
- on exit 0, write only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fnar import cli, montecarlo

DOCUMENTED_CODES = {cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_MODEL, cli.EXIT_DATA, cli.EXIT_NUMERIC}

# good input of each file option; each has variants with one bad row
GOOD_INPUTS = {"observations": "observations.csv", "covariates": "covariates.csv",
               "weights": "weights.csv", "coords": "coords.csv", "alpha_file": "alpha.csv",
               "beta_file": "eta.csv", "shock_file": "eta.csv"}
# a bad row's last field: a text, a nan, missing, or a finite extreme that
# overflows what is computed from it
BAD_ROWS = {"text": "x", "nan": "nan", "short": None, "huge": "1e308"}
CONFIGS = {
    "config.json": {"simulate": {"r": 0.5}, "estimate": {"moment-points": 8},
                    "montecarlo": {"n": 6, "T": 2, "replications": 1},
                    "effects": {"orders": 2, "operator": "point-eval"}},
    "config-unknown-key.json": {"simulate": {"bogus": 1}},
    "config-bad-type.json": {"estimate": {"moment-points": 10.5}},
    "config-bad-flag.json": {"estimate": {"binary-weights": 1}},
    "config-null.json": {"effects": {"grid-count": None}},
    "config-bad-section.json": {"montecarlo": 3},
    "config-list.json": [1, 2],
}
NOT_JSON = "config-not-json.json"


def _with_bad_row(text, kind):
    """``text`` with the last field of its middle data row made ``kind``."""
    lines = text.splitlines()
    row = 1 + (len(lines) - 1) // 2
    fields = lines[row].split(",")
    if BAD_ROWS[kind] is None:
        fields = fields[:-1]
    else:
        fields[-1] = BAD_ROWS[kind]
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An n=12, T=3 simulated panel on a 12-point grid, with coordinates,
    function tables, config files and one-bad-row variants of each table."""
    root = tmp_path_factory.mktemp("contract")
    data = root / "inputs"
    data.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--n", "12", "--T", "3", "--seed", "4",
                         "--grid-count", "12", "--out", str(data)]) == 0
    coords = np.random.default_rng(4).uniform(size=(12, 2))
    (data / "coords.csv").write_text("unit,lon,lat\n" + "".join(
        f"{i},{lon!r},{lat!r}\n" for i, (lon, lat) in enumerate(coords.tolist())))
    (data / "alpha.csv").write_text("s,value\n0,0.3\n0.5,0.1\n1,0.5\n")
    (data / "eta.csv").write_text("s,value\n0,1\n0.5,0.25\n1,0.5\n")
    (data / "empty.csv").write_text("")
    for name in sorted(set(GOOD_INPUTS.values())):
        text = (data / name).read_text()
        for kind in BAD_ROWS:
            (data / f"{kind}-{name}").write_text(_with_bad_row(text, kind))
    for name, config in CONFIGS.items():
        (data / name).write_text(json.dumps(config))
    (data / NOT_JSON).write_text("{")
    work = root / "work"
    work.mkdir()
    return data, work


# the values an int option may take, valid and at its boundary; --workers
# never asks for a pool, and a size never passes its cap
GOOD_INTS = {"n": (2, 12), "T": (2, 3), "grid_count": (12, 15), "orders": (0, 3),
             "replications": (1, 2), "workers": (1, 1), "seed": (0, 12),
             "moment_points": (6, 12), "inner_knots": (0, 2), "degree": (1, 3),
             "unit": (0, 11)}
BAD_INTS = ["0", "-1", "", "x", "1.5", "nan"]
# an alpha scale of 2.5 puts the simulated design outside the stationary region (exit 3)
GOOD_FLOATS = {"r": ["0.5", "1"], "alpha_scale": ["0.5", "1", "2.5"],
               "threshold": ["0.3", "0.5", "inf"], "window_width": ["0.25", "1"]}
BAD_FLOATS = ["0", "-1", "nan", "inf", "-inf", "", "x", "2.5", "1e308"]
# options read as plain strings: (valid values, boundary values)
STRINGS = {
    "estimators": (["gmm1", "gmm2", "2sls", "gmm1,2sls"], ["gmm1,gmm1", "", ",", "bogus"]),
    "preset": (sorted(montecarlo.PRESETS), ["", "bogus"]),
    "iv_exclude": ([""], ["0", "1", "-1", "0,0", "0,", "x"]),
}
OUT_KINDS = ["directory", "file", "missing", ""]


def _values(action, data, out_kind):
    """Strategies for a valid value of ``action`` and for a boundary one; a
    file is named in ``data``, and --out by its kind, ``out_kind`` if valid."""
    dest = action.dest
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices)), st.sampled_from(["", "bogus"])
    if action.type is int:
        low, high = GOOD_INTS[dest]
        return st.integers(low, high).map(str), st.sampled_from(BAD_INTS)
    if action.type is float:
        return st.sampled_from(GOOD_FLOATS[dest]), st.sampled_from(BAD_FLOATS)
    if dest in STRINGS:
        return tuple(map(st.sampled_from, STRINGS[dest]))
    if dest == "out":
        return st.just(out_kind), st.sampled_from(OUT_KINDS)
    good = GOOD_INPUTS[dest]
    others = [f"{kind}-{good}" for kind in BAD_ROWS]
    others += sorted(path.name for path in data.iterdir()) + ["missing.csv"]
    return (st.just(str(data / good)),
            st.sampled_from(others).map(lambda name: str(data / name)) | st.just(""))


@st.composite
def argvs(draw, data, command):
    """The argv of one ``fnar command`` call; an --out value is one of ``OUT_KINDS``.

    Each option is left out three times in ten (a required one in ten), and
    given twice a third of the time; each value is valid nine times in ten."""
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    argv = []
    config = draw(st.sampled_from([None] * 8 + [*CONFIGS, NOT_JSON]))
    if config is not None:
        argv += ["--config", str(data / config)]
    argv.append(command)
    out_kind = "file" if command == "montecarlo" else "directory"
    for action in commands[command]._actions:
        if action.dest == "help":
            continue
        # --replications left out would run 500 replications
        if action.dest != "replications" and draw(st.integers(0, 9)) >= (
                9 if action.required else 7):
            continue
        if action.nargs == 0:  # a flag
            argv += [action.option_strings[0]] * draw(st.integers(1, 2))
            continue
        valid, boundary = _values(action, data, out_kind)
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            text = draw(valid if draw(st.integers(0, 9)) < 9 else boundary)
            if action.dest == "effect" and text == "keyplayer":
                out_kind = "file"
            argv += [*action.option_strings[:1], text]
    return argv


def _out_path(kind, work):
    return {"directory": work / "out", "file": work / "out.csv",
            "missing": work / "missing" / "out", "": ""}[kind]


_NUMBER_SPLIT = re.compile(r"[\s,;:=()\[\]]+")


def _non_finite_tokens(text):
    tokens = []
    for token in _NUMBER_SPLIT.split(text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            tokens.append(token)
    return tokens


@pytest.mark.parametrize("command", ["simulate", "estimate", "montecarlo", "effects"])
@settings(max_examples=13, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_error_line_and_finite_outputs(inputs, command, data):
    inputs_dir, work_root = inputs
    argv = data.draw(argvs(inputs_dir, command))
    work = Path(tempfile.mkdtemp(dir=work_root))
    (work / "out").mkdir()
    argv = [str(_out_path(text, work)) if k and argv[k - 1] == "--out" else text
            for k, text in enumerate(argv)]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # an empty --out names the working directory
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    note = f"argv={argv}\nexit={code}\nstderr={err}"
    assert code in DOCUMENTED_CODES, note
    assert "Traceback" not in err, note
    if code != cli.EXIT_OK:
        lines = err.strip().splitlines()
        assert lines and "error:" in lines[-1], note
        return
    assert _non_finite_tokens(stdout.getvalue()) == [], note
    for path in work.rglob("*"):
        if path.is_file():
            assert _non_finite_tokens(path.read_text()) == [], f"{path.name}: {note}"
