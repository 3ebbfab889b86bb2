"""The vectorised CSV layer against its row-by-row oracle (``csv_oracle``).

Readers: for every fuzzed table the oracle accepts, the ``fnar.io`` reader
gives bit-identical arrays; where the oracle rejects it with a
``SchemaError``, the reader names the same line. The readers add one rule,
applied to the oracle's input here: whitespace-only rows are skipped.
Writers: the bytes equal ``csv.writer`` given ``repr`` text.
"""

import csv
import itertools
import os
import re
import shutil
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from conftest import fifo_of
from fnar import cli, floattext, io
from fnar.basis import build_quadrature
from fnar.errors import FnarError, InvalidArgumentError, SchemaError
from fnar.floattext import decimal_ids, decimal_values, float_texts
from fnar.io import MAX_INFERRED_UNITS, read_edge_list
from fnar.simulate import FunctionalPanel

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SPECIAL = [-0.0, 1e16, 9.999999999999999e15, 9999999999999998.0, 1e-05, 0.0001,
           5e-324, 1 / 3, -2.5, 1.7976931348623157e308, float("nan"), float("-inf")]


def run(args):
    return cli.main([str(a) for a in args])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def same_panel(new, old):
    same_bytes(new.y, old.y)
    same_bytes(new.x, old.x)
    assert new.quad.count == old.quad.count


# -- writers ----------------------------------------------------------------

class TestWriters:
    def test_special_values_match_csv_writer(self, tmp_path):
        rows = np.array(SPECIAL).reshape(4, 3)
        io.write_table(tmp_path / "new.csv", ["a", "b", "c"], rows)
        csv_oracle._write_rows(tmp_path / "old.csv", ["a", "b", "c"],
                               [[repr(v) for v in row] for row in rows.tolist()])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().split(b"\r\n")[1:4] == [
            b"-0.0,1e+16,1e+16", b"9999999999999998.0,1e-05,0.0001",
            b"5e-324,0.3333333333333333,-2.5"]

    @pytest.mark.parametrize("shape", [(12,), (3, 4), (2, 3, 2), (2500,)])
    def test_indexed_arrays_match_csv_writer(self, tmp_path, shape):
        values = np.random.default_rng(3).normal(size=shape)
        values.ravel()[:len(SPECIAL)] = SPECIAL[:values.size]
        cli._write_array(tmp_path / "new.csv", [f"i{k}" for k in range(len(shape))], values)
        csv_oracle._write_array(tmp_path / "old.csv", [f"i{k}" for k in range(len(shape))],
                                values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @FUZZ
    @given(values=st.lists(st.floats(), min_size=1, max_size=60), split=st.integers(1, 5))
    def test_fuzzed_values_match_csv_writer(self, tmp_path, values, split):
        array = np.array(values)
        if array.size % split == 0:
            array = array.reshape(split, -1)
        cli._write_array(tmp_path / "new.csv", ["i", "j"][:array.ndim], array)
        csv_oracle._write_array(tmp_path / "old.csv", ["i", "j"][:array.ndim], array)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_pipeline_files_match_oracle(self, tmp_path, monkeypatch):
        captured = {}

        def capture(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                captured[name] = original(*args, **kwargs)
                return captured[name]
            monkeypatch.setattr(cli, name, wrapper)

        for name in ("simulate_mc_panel", "fit_gmm", "impulse_response", "marginal_effects",
                     "total_impacts"):
            capture(name)
        new, old = tmp_path / "new", tmp_path / "old"
        for root in (new, old):
            for sub in ("sim", "est", "eff"):
                (root / sub).mkdir(parents=True)
        shock = tmp_path / "eta.csv"
        shock.write_text("s,value\n0,1\n1,0.5\n")
        fit_inputs = ["--weights", new / "sim" / "weights.csv", "--operator", "epanechnikov"]
        assert run(["simulate", "--n", 40, "--T", 5, "--seed", 7, "--out", new / "sim"]) == 0
        assert run(["estimate", "--observations", new / "sim" / "observations.csv",
                    "--covariates", new / "sim" / "covariates.csv", *fit_inputs,
                    "--out", new / "est"]) == 0
        effects = ["effects", "--alpha-file", new / "est" / "alpha_hat.csv", *fit_inputs,
                   "--unit", 3]
        assert run([*effects, "impulse", "--shock-file", shock, "--out", new / "eff"]) == 0
        assert run([*effects, "marginal", "--beta-file", new / "est" / "beta1_hat.csv",
                    "--out", new / "eff"]) == 0
        assert run([*effects, "keyplayer", "--shock-file", shock,
                    "--out", new / "eff" / "impacts.csv"]) == 0

        panel, truth = captured["simulate_mc_panel"]
        csv_oracle.write_simulation(panel, truth, old / "sim")
        csv_oracle.write_estimate(captured["fit_gmm"], panel.d_x, old / "est")
        csv_oracle._write_propagation(captured["impulse_response"], old / "eff", "impulse")
        csv_oracle._write_propagation(captured["marginal_effects"], old / "eff", "marginal")
        csv_oracle._write_array(old / "eff" / "impacts.csv", ["unit"],
                                captured["total_impacts"], "total_impact")
        files = sorted(p.relative_to(old) for p in old.rglob("*.csv"))
        assert len(files) == 12
        for name in files:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


def texts_match_repr(values):
    values = np.asarray(values, dtype=float).ravel()
    got, want = float_texts(values), [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad and len(got) == len(want), bad[:5]


def decimal_read(texts, reader=decimal_values):
    """``reader`` of the texts, one a line in a zero-padded block, or None."""
    data = b"".join(text + b"\n" for text in texts)
    block = np.zeros(len(data) + 32, np.uint8)
    block[:len(data)] = np.frombuffer(data, np.uint8)
    stop = np.cumsum([len(text) + 1 for text in texts]) - 1
    at = stop - [len(text) for text in texts]
    result = reader(block, at) if reader is decimal_ids else reader(block, at, stop)
    if result is not None:
        assert np.array_equal(result[1], stop)
    return None if result is None else result[0]


def texts_read_as_float_reads(texts):
    texts = [text.encode() if isinstance(text, str) else text for text in texts]
    got = decimal_read(texts)
    assert got is not None
    want = np.array([float(text) for text in texts])
    bad = [(t, g, w) for t, g, w in zip(texts, got.tolist(), want.tolist())
           if np.float64(g).tobytes() != np.float64(w).tobytes()]
    assert not bad, bad[:5]


class TestDecimalText:
    """The vectorised decimal kernel reads each text bit for bit as ``float``
    does, or finds it outside ``[-]digits[.digits][e[+-]digits]``."""

    @FUZZ
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=200))
    def test_fuzzed_reprs(self, values):
        texts_read_as_float_reads([repr(v) for v in values])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(29).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        texts_read_as_float_reads(float_texts(values[np.isfinite(values)]))

    @pytest.mark.parametrize("digits", range(1, 26))
    def test_fixed_and_exponent_spellings(self, digits):
        rng = np.random.default_rng(digits)
        values = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-30, 30, 300),
                                 rng.integers(0, 2**64, 300, dtype=np.uint64).view(np.float64)])
        values = values[np.isfinite(values)].tolist()
        texts_read_as_float_reads([f"%.{digits}g" % v for v in values]
                                  + [f"%.{digits}e" % v for v in values])

    def test_edges(self):
        texts_read_as_float_reads([
            "0", "-0", "0.0", "-0.0", "000", "007", "007.50", "0.000", "00000000000000000000001",
            "5e-324", "-5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
            "2.4703282292062328e-324", "2.2250738585072014e-308", "2.2250738585072011e-308",
            "9007199254740993", "9007199254740992.5", "18446744073709551615",
            "9999999999999999999", "10000000000000000000", "123456789012345678901234",
            "2.00000000000000011102230246251565404236316680908203125",
            "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
            "1e309", "-1e309", "1e-400", "0e999999", "1e22", "1e23", "8.98846567431158e307",
            "123456789.5", "12345678901234.5", "1234567890123456789012.5", "0.1", "0.3",
            "1e-05", "1.5e+16", "3e0", "3e+00000000001",
            # a zero significand at exponents up to and far past the doubles' range
            "0e23", "0e300", "0.0e25", "-0e100", "-0.0e308", "-0e-300", "0e-400",
            "00000000000000000000e40", "0.00000000000000000000000e30"]
            + [f"{sign}0{dot}e{e}" for sign in ("", "-") for dot in ("", ".0")
               for e in range(-350, 360, 7)])

    def test_short_significands_at_small_exponents(self, monkeypatch):
        # every w * 10**q with w below 2**53 and |q| <= 22 is one exactly rounded
        # operation on two exact doubles; Eisel-Lemire must read each alone, with
        # no field left to float, in exponent form and in fixed form
        draws = np.random.default_rng(53).integers(0, 2**53, 100).tolist()
        significands = [0, 1, 9, 10, 12345, 2**52 + 1, 2**53 - 2, 2**53 - 1] + draws
        exponent, fixed = [], []
        for w, q, sign in itertools.product(significands, range(-22, 23), ("", "-")):
            exponent.append(f"{sign}{w}e{q:+d}")
            digits = str(w).rjust(1 - q, "0")
            fixed.append(f"{sign}{w * 10**q}.0" if q >= 0 else f"{sign}{digits[:q]}.{digits[q:]}")
        texts_read_as_float_reads(fixed)
        monkeypatch.setattr(floattext, "_FIELD", re.compile(rb"(?!)"))  # float reads nothing
        texts_read_as_float_reads(exponent)

    def test_reads_without_numpy_2_functions(self, monkeypatch):
        # numpy 1.24 is supported, which has no bitwise_count (popcount)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        texts_read_as_float_reads(["7", "1.5", "-0.0", "12345678.87654321", "1e-05", "0e23",
                                   "18446744073709551615", "2.2250738585072014e-308"])

    @pytest.mark.parametrize("text", [
        "", "-", ".5", "5.", "1e", "1e+", "+1", " 1", "1 ", "1.5x", "1..5", "1.5.3", "1e5.5",
        "--1", "nan", "inf", "-inf", "1E5", "1_0", "0x10", '"1"'])
    def test_other_texts_are_refused(self, text):
        assert decimal_read([b"1.5", text.encode(), b"2"]) is None

    def test_ids(self):
        texts = [b"0", b"7", b"007", b"12345678", b"123456789", b"2147483647"[:9]]
        assert decimal_read(texts, decimal_ids).tolist() == [0, 7, 7, 12345678, 123456789,
                                                             214748364]
        for bad in (b"", b"-1", b"+1", b"1234567890", b" 1"):
            assert decimal_read([b"1", bad], decimal_ids) is None


class TestFloatText:
    """The vectorised shortest-digit kernel writes each float as ``repr`` does."""

    @FUZZ
    @given(values=st.lists(st.floats(), min_size=1, max_size=200))
    def test_fuzzed_floats(self, values):
        texts_match_repr(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(23).integers(0, 2**64, 200_000, dtype=np.uint64,
                                                  endpoint=False)
        texts_match_repr(bits.view(np.float64))

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                                 [float(f"1e{e}") for e in range(-323, 309)],
                                 10.0 ** np.arange(-323, 309)])
        for values in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)):
            texts_match_repr(values)
            texts_match_repr(-values)

    def test_subnormals(self):
        texts_match_repr(np.arange(1, 100_001) * 5e-324)

    def test_integers_near_2_53(self):
        texts_match_repr(np.arange(2**53 - 100_000, 2**53 + 100_000, dtype=np.int64)
                         .astype(float))
        texts_match_repr(np.arange(-100_000, 100_000, dtype=float))

    def test_fixed_and_exponent_thresholds(self):
        edges = np.array([1e16, 9999999999999998.0, 1e-05, 0.0001, 0.001])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        texts_match_repr(np.concatenate([values, -values]))
        assert float_texts([1e16, 9999999999999998.0, 1e-05, 0.0001, 0.001]) == [
            "1e+16", "9999999999999998.0", "1e-05", "0.0001", "0.001"]

    def test_zero_nan_and_infinity(self):
        assert float_texts([0.0, -0.0, float("nan"), -float("nan"), float("inf"),
                            -float("inf")]) == ["0.0", "-0.0", "nan", "nan", "inf", "-inf"]
        assert float_texts([]) == []

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64])
    def test_blocks_that_split_a_row_or_a_run(self, tmp_path, monkeypatch, block):
        # a block of fewer values than a row holds still writes whole rows
        monkeypatch.setattr(io, "_BLOCK", block)
        rng = np.random.default_rng(block)
        values = rng.normal(size=(2, 3, 7, 3)) * 10.0 ** rng.integers(-8, 20, (2, 3, 7, 3))
        values.ravel()[:len(SPECIAL)] = SPECIAL
        labels = [f"r{j}" for j in range(7)]
        io.write_table(tmp_path / "new.csv", ["i", "t", "r", "a", "b", "c"], values, labels)
        rows = [[i, t, labels[j], *map(repr, values[i, t, j].tolist())]
                for i, t, j in np.ndindex(2, 3, 7)]
        csv_oracle._write_rows(tmp_path / "old.csv", ["i", "t", "r", "a", "b", "c"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_a_label_for_each_row(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="2 labels for 3 rows"):
            io.write_table(tmp_path / "t.csv", ["label", "a"], np.zeros((3, 1)), ["x", "y"])

    def test_rows_without_values(self, tmp_path):
        io.write_table(tmp_path / "t.csv", ["i", "label"], np.empty((2, 3, 0)), ["a", "b", "c"])
        assert (tmp_path / "t.csv").read_bytes() == b"i,label\r\n" + b"".join(
            b"%d,%s,\r\n" % (i, label) for i in range(2) for label in (b"a", b"b", b"c"))

    @pytest.mark.parametrize("n", [400, 1600])
    def test_panel_write_holds_a_block_not_the_panel(self, tmp_path, n):
        # the observation table has n * 495 rows; the writer's peak is its
        # block's temporaries, the same at both n
        rng = np.random.default_rng(n)
        panel = FunctionalPanel(y=rng.normal(size=(n, 5, 99)), x=rng.normal(size=(n, 5, 2)),
                                quad=build_quadrature(99))
        tracemalloc.start()
        try:
            io.write_panel(panel, tmp_path / "obs.csv", tmp_path / "cov.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak


# -- fuzzed tables ------------------------------------------------------------

GARBAGE = ["", " ", "banana", "1.5", "-1", "2", "nan", "inf", "-0", '"', '""', "1e", "0x1p3",
           "1,5", '"1,5"', "_1", "1\x00", "9", "123456789012", '"1\n2"', '"3"4', "1 2", "1\x0b"]
BLANK = ["", " ", "\t", " \t "]


def spellings(kind, value, exact=False):
    """Ways to write ``value``: numpy reads the first ones, only Python the last.
    With ``exact``, only ways that read back as ``value`` itself."""
    if kind is int:
        text = str(value)
        ways = [text, f" {text} ", f"+{text}", f'"{text}"', f"0{text}"]
        ways.append("".join(chr(0xFF10 + int(c)) for c in text))  # fullwidth digits
        if value >= 10:
            ways.append(f"{text[0]}_{text[1:]}")
        return st.sampled_from(ways)
    text = repr(value)
    ways = [text, f" {text}\t", f'"{text}"'] + ([] if exact else [f"{value:.4e}", f"{value:.3f}"])
    pair = re.search(r"\d\d", text)
    if pair:
        ways.append(text[:pair.start() + 1] + "_" + text[pair.start() + 1:])
    return st.sampled_from(ways)


@st.composite
def tables(draw, header, rows, exact=False):
    """Table text: ``rows`` of (kind, value) pairs with random spellings, some
    garbage, missing and extra fields, blank lines and either line end. With
    ``exact``, every field reads back as its value and no row is broken."""
    lines = [header]
    for row in rows:
        fields = [draw(spellings(kind, value, exact)) for kind, value in row]
        if not exact:
            if draw(st.integers(0, 9)) == 0:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(GARBAGE))
            if draw(st.integers(0, 19)) == 0:
                fields.pop()
            if draw(st.integers(0, 19)) == 0:
                fields.append(draw(st.sampled_from(["", "extra", "1"])))
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANK)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def shuffled(draw, rows):
    return draw(st.permutations(rows)) if rows else rows


s_values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))
y_values = st.floats(-5, 5)


GRID = build_quadrature(9).points.tolist()  # the grid of grid_count=9


@st.composite
def grid_cell(draw):
    """(s, y) pairs of a cell at the 9 grid points: in order, shuffled, one
    point moved by an ulp, one point a copy of its neighbour, or one y -0.0."""
    points = [(s, draw(y_values)) for s in GRID]
    k = draw(st.integers(0, len(GRID) - 2))
    how = draw(st.sampled_from(["in order", "in order", "shuffled", "ulp", "copy", "-0.0"]))
    if how == "shuffled":
        points = draw(st.permutations(points))
    elif how == "ulp":
        points[k] = (float(np.nextafter(GRID[k], draw(st.sampled_from([0.0, 1.0])))), points[k][1])
    elif how == "copy":
        points[k + 1] = points[k]
    elif how == "-0.0":
        points[k] = (GRID[k], -0.0)
    return points


@st.composite
def panels(draw):
    """(observation text, covariate text) of a small, mostly complete panel.

    A cell has 1-3 random points or the grid's 9. In an on-grid panel every
    cell has the 9 and a covariate row, and both tables are spelt exactly.
    Observation rows come shuffled, or cell by cell in (unit, period) order
    with each cell's points in their drawn order."""
    n, T = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    on_grid = draw(st.booleans())
    obs = []
    for i in range(n):
        for t in range(T):
            points = (draw(grid_cell()) if on_grid or draw(st.integers(0, 3)) == 0 else
                      [(draw(s_values), draw(y_values)) for _ in range(draw(st.integers(1, 3)))])
            obs += [[(int, i), (int, t), (float, s), (float, y)] for s, y in points]
    copies = st.sampled_from([1, 2] if on_grid else [1, 1, 2, 0])  # a cell's covariate rows
    cov = [[(int, i), (int, t), (float, draw(y_values)), (float, draw(y_values))]
           for i in range(n) for t in range(T) for _ in range(draw(copies))]
    for rows, column in ((obs, 3), (cov, draw(st.sampled_from([2, 3])))):
        if rows and draw(st.integers(0, 7)) == 0:  # one non-finite y or covariate
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[column] = (float, draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    if draw(st.booleans()):
        obs = shuffled(draw, obs)
    cov = shuffled(draw, cov)
    return (draw(tables("unit,period,s,y", obs, exact=on_grid)),
            draw(tables(draw(st.sampled_from(["unit,period,x1,x2", "unit,period,x1,x2,x3"])),
                        cov, exact=on_grid)))


def blank_rows_emptied(path):
    """A copy of ``path`` with whitespace-only rows emptied, the rows the readers skip."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    copy = path.with_name("oracle_" + path.name)
    with open(copy, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([] if len(row) == 1 and not row[0].strip() else row)
    return copy


def table_name(path):
    return None if path is None else Path(path).name.removeprefix("oracle_")


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared below
        return None, exc


def check_against_oracle(new_call, oracle_call, same, expected_line=None):
    """``expected_line``: a documented rule of the new reader rejects this line."""
    result, error = outcome(new_call)
    expected, oracle_error = outcome(oracle_call)
    if expected_line is not None and (not isinstance(oracle_error, SchemaError)
                                      or oracle_error.line is None
                                      or expected_line < oracle_error.line):
        assert isinstance(error, SchemaError) and error.line == expected_line, error
    elif oracle_error is None:
        if error is not None:
            raise error
        same(result, expected)
    elif isinstance(oracle_error, SchemaError):
        assert isinstance(error, SchemaError), error
        assert error.line == oracle_error.line, (error, oracle_error)
        assert table_name(error.path) == table_name(oracle_error.path), (error, oracle_error)
    elif isinstance(oracle_error, FnarError):
        assert type(error) is type(oracle_error) and str(error) == str(oracle_error)
    else:  # the oracle crashed; the reader must still report a schema error
        assert isinstance(error, SchemaError), error


def write(tmp_path, name, text):
    """``text`` written as UTF-8, where a lone surrogate (``"\\udcff"``) writes
    the byte it escapes (0xff)."""
    path = tmp_path / name
    path.write_bytes(text.encode(errors="surrogateescape"))
    return path


def first_non_finite_row(path):
    """Line of the first row whose ``s`` and ``value`` read as numbers, not both finite."""
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            try:
                pair = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                continue
            if line > 1 and not np.all(np.isfinite(pair)):
                return line
    return None


def first_short_row(path, width):
    """Line of the first non-blank row with fewer than ``width`` fields."""
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if line > 1 and row and not (len(row) == 1 and not row[0].strip()) \
                    and len(row) < width:
                return line
    return None


class TestReaderFuzz:
    @FUZZ
    @given(texts=panels())
    def test_panel(self, tmp_path, texts):
        obs, cov = write(tmp_path, "obs.csv", texts[0]), write(tmp_path, "cov.csv", texts[1])
        oracle_args = SimpleNamespace(observations=blank_rows_emptied(obs),
                                      covariates=blank_rows_emptied(cov), grid_count=9)
        # a covariate row missing values fails at its line; the oracle read it
        short = None
        try:
            if csv_oracle._read_observations(oracle_args.observations):
                short = first_short_row(cov, len(texts[1].splitlines()[0].split(",")))
        except SchemaError:
            pass
        check_against_oracle(lambda: io.read_panel(obs, cov, build_quadrature(9)),
                             lambda: csv_oracle._build_panel(oracle_args), same_panel, short)

    @FUZZ
    @given(data=st.data())
    def test_panel_missing_cells(self, tmp_path, data):
        # fewer rows than cells: the first gap is found from the distinct cell ids
        n, T = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cells = [(i, t) for i in range(n) for t in range(T)]
        obs = [[(int, i), (int, t), (float, 0.5), (float, 1.0)]
               for i, t in data.draw(st.lists(st.sampled_from(cells), min_size=1))]
        cov = [[(int, i), (int, t), (float, 2.0)]
               for i, t in data.draw(st.lists(st.sampled_from(cells)))]
        obs_path = write(tmp_path, "obs.csv", data.draw(tables("unit,period,s,y", obs, True)))
        cov_path = write(tmp_path, "cov.csv", data.draw(tables("unit,period,x1", cov, True)))
        oracle_args = SimpleNamespace(observations=blank_rows_emptied(obs_path),
                                      covariates=blank_rows_emptied(cov_path), grid_count=9)
        check_against_oracle(lambda: io.read_panel(obs_path, cov_path, build_quadrature(9)),
                             lambda: csv_oracle._build_panel(oracle_args), same_panel)

    @FUZZ
    @given(data=st.data())
    def test_function_file(self, tmp_path, data):
        rows = data.draw(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-5, 5)),
                                  max_size=8))
        if rows and data.draw(st.integers(0, 3)) == 0:  # one non-finite s or value
            k = data.draw(st.integers(0, len(rows) - 1))
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            rows[k] = (bad, rows[k][1]) if data.draw(st.booleans()) else (rows[k][0], bad)
        text = data.draw(tables("s,value", [[(float, s), (float, v)] for s, v in rows]))
        path = write(tmp_path, "f.csv", text)
        quad = build_quadrature(9)
        # a non-finite s or value fails at its line; the oracle read it
        check_against_oracle(lambda: io.read_function(path, quad),
                             lambda: csv_oracle._read_function_file(blank_rows_emptied(path),
                                                                    quad),
                             same_bytes, first_non_finite_row(path))

    @FUZZ
    @given(data=st.data())
    def test_coords(self, tmp_path, data):
        n = data.draw(st.integers(0, 5))
        ids = data.draw(st.permutations(range(n)))
        if n and data.draw(st.booleans()):
            ids = ids + [data.draw(st.integers(0, n))]
        rows = [[(int, i), (float, data.draw(y_values)), (float, data.draw(y_values))]
                for i in ids]
        path = write(tmp_path, "c.csv", data.draw(tables("unit,lon,lat", rows)))

        def same(new, old):
            same_bytes(new, old.reshape(-1, 2))

        check_against_oracle(lambda: io.read_coords(path),
                             lambda: csv_oracle._read_coords(blank_rows_emptied(path)), same)

    @FUZZ
    @given(data=st.data())
    def test_edge_list(self, tmp_path, data):
        edges = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                             st.one_of(st.just(0.0), st.floats(-2, 2))),
                                   max_size=10))
        rows = [[(int, i), (int, j), (float, w)] for i, j, w in edges]
        text = data.draw(tables("i,j,weight", rows))
        n = data.draw(st.sampled_from([None, 5]))
        path = write(tmp_path, "w.csv", text)

        def same(new, old):
            assert new.n == old.n
            same_bytes(new.w.toarray(), old.w.toarray())

        check_against_oracle(lambda: read_edge_list(path, n),
                             lambda: csv_oracle.read_edge_list(blank_rows_emptied(path), n),
                             same)


class TestReaderRules:
    """The documented differences from the row-by-row readers."""

    def test_whitespace_only_rows_skipped(self, tmp_path):
        path = write(tmp_path, "f.csv", "s,value\n0,1\n  \n\t\n1,2\n")
        quad = build_quadrature(9)
        np.testing.assert_array_equal(io.read_function(path, quad),
                                      np.interp(quad.points, [0.0, 1.0], [1.0, 2.0]))
        with pytest.raises(SchemaError) as err:
            csv_oracle._read_function_file(path, quad)
        assert err.value.line == 3

    @pytest.mark.parametrize("blank", ["  \r\n", "\t\n", " \r"], ids=["crlf", "lf", "cr"])
    def test_whitespace_only_lines_read_without_the_scan(self, tmp_path, monkeypatch, blank):
        # such a line fails np.loadtxt; the parse runs again without it, where
        # the scan read every row in Python
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 2, "--out", tmp_path]) == 0
        obs, cov, weights = (tmp_path / name
                             for name in ("observations.csv", "covariates.csv", "weights.csv"))
        panel, edges = io.read_panel(obs, cov), read_edge_list(weights)

        def spaced(path, bad_line=None):
            lines = path.read_bytes().decode().splitlines(keepends=True)
            lines = lines[:1] + [blank] + lines[1:5] + [blank] + lines[5:] + [blank]
            if bad_line is not None:  # 1-based, after the blank lines went in
                lines[bad_line - 1] = lines[bad_line - 1].replace(",", ",x,", 1)
            return write(tmp_path, f"spaced-{path.name}", "".join(lines))

        with monkeypatch.context() as patched:
            patched.setattr(io, "_scan", lambda *args: pytest.fail("scanned"))
            same_panel(io.read_panel(spaced(obs), spaced(cov)), panel)
            same_bytes(read_edge_list(spaced(weights)).w.toarray(), edges.w.toarray())
        bad = spaced(obs, bad_line=8)
        with pytest.raises(SchemaError) as err:
            io.read_panel(bad, cov)
        assert err.value.line == 8 and str(err.value).startswith(f"{bad}:8: ")

    def test_python_only_spellings_read_by_the_scan(self, tmp_path):
        path = write(tmp_path, "c.csv", "unit,lon,lat\n1,1_0.5,2\n０,3,4\n")
        np.testing.assert_array_equal(io.read_coords(path), [[3.0, 4.0], [10.5, 2.0]])

    def test_ids_beyond_int64_rejected_at_their_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "unit,lon,lat\n0,1,2\n99999999999999999999,3,4\n")
        with pytest.raises(SchemaError) as err:
            io.read_coords(path)
        assert err.value.line == 3

    def test_edge_id_beyond_unit_count(self, tmp_path):
        path = write(tmp_path, "w.csv", "i,j,weight\n0,1,0.5\n1,5,0.5\n")
        with pytest.raises(SchemaError, match="unit id 5 out of range for 4 units"):
            read_edge_list(path, n=4)

    def test_unit_count_implied_by_ids_is_capped(self, tmp_path):
        top = MAX_INFERRED_UNITS - 1
        path = write(tmp_path, "w.csv", f"i,j,weight\n0,1,0.5\n{top},0,0.5\n")
        assert read_edge_list(path).n == MAX_INFERRED_UNITS
        for big in (123456789012, MAX_INFERRED_UNITS):
            path = write(tmp_path, "w.csv", f"i,j,weight\n0,1,0.5\n1,{big},0.5\n")
            with pytest.raises(SchemaError, match=f"unit id {big} implies more than"):
                read_edge_list(path)
        # a unit count given by the caller is not capped
        assert read_edge_list(path, n=MAX_INFERRED_UNITS + 1).n == MAX_INFERRED_UNITS + 1

    def test_message_names_path_then_line(self, tmp_path):
        path = write(tmp_path, "w.csv", "i,j,weight\n0,1,0.5\n1,x,0.5\n")
        with pytest.raises(SchemaError) as err:
            read_edge_list(path)
        assert str(err.value).startswith(f"{path}:3: ")
        path = write(tmp_path, "w.csv", "i,j,weight\n")
        with pytest.raises(SchemaError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}: edge list is empty and no unit count was given"

    def test_id_gap_names_the_observation_table(self, tmp_path):
        obs = write(tmp_path, "obs.csv", "unit,period,s,y\n0,0,0.5,1\n2,0,0.5,1\n")
        cov = write(tmp_path, "cov.csv", "unit,period,x1\n0,0,1\n2,0,1\n")
        with pytest.raises(SchemaError) as err:
            io.read_panel(obs, cov)
        assert (err.value.path, err.value.line) == (str(obs), None)
        assert str(err.value) == f"{obs}: unit and period ids must be contiguous from 0"

    def test_sparse_ids_fail_without_per_cell_arrays(self, tmp_path):
        # 3,999 rows whose ids reach 2,000 in both columns name 4,000,000 cells
        cells = [(i, 0) for i in range(2000)] + [(0, t) for t in range(1, 2000)]
        obs = write(tmp_path, "obs.csv", "unit,period,s,y\n" + "".join(
            f"{i},{t},0.5,1.0\n" for i, t in cells))
        cov = write(tmp_path, "cov.csv", "unit,period,x1\n" + "".join(
            f"{i},{t},1.0\n" for i, t in cells if (i, t) != (0, 5)))
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as err:
                io.read_panel(obs, cov, build_quadrature(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{cov}: no covariates for unit 0, period 5"
        assert peak < 4 * 2**20, peak
        cov.write_text("unit,period,x1\n" + "".join(f"{i},{t},1.0\n" for i, t in cells))
        with pytest.raises(SchemaError) as err:
            io.read_panel(obs, cov, build_quadrature(9))
        assert str(err.value) == f"{obs}: no observations for unit 1, period 1"

    @pytest.mark.parametrize("column", ["unit", "period"])
    @pytest.mark.parametrize("top,scanned", [(2**31 - 1, False), (2**31, True),
                                             (-2**31, False), (-2**31 - 1, True)])
    def test_ids_at_the_int32_limit(self, tmp_path, monkeypatch, column, top, scanned):
        # the parse holds 32-bit ids; a wider one is read by the scan, and
        # either way the table fails as the int64 reader failed it
        scans, scan = [], io._scan
        monkeypatch.setattr(io, "_scan", lambda path, *rest: scans.append(path)
                            or scan(path, *rest))
        row = f"{top},0" if column == "unit" else f"0,{top}"
        obs = write(tmp_path, "obs.csv", f"unit,period,s,y\n0,0,0.5,1\n{row},0.5,1\n")
        cov = write(tmp_path, "cov.csv", "unit,period,x1\n0,0,1.0\n")
        with pytest.raises(SchemaError) as err:
            io.read_panel(obs, cov, build_quadrature(9))
        assert str(err.value) == f"{obs}: unit and period ids must be contiguous from 0"
        assert err.value.line is None and scans == [obs] * scanned
        obs.write_text(f"unit,period,s,y\n0,0,0.5,1\n{row},0.5,1\n1,0,1.5,1\n")
        with pytest.raises(SchemaError) as err:
            io.read_panel(obs, cov, build_quadrature(9))
        assert str(err.value) == f"{obs}:4: evaluation point 1.5 outside [0, 1]"

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"s,value\n0,\xff\n")
        with pytest.raises(SchemaError):
            io.read_function(path, build_quadrature(9))

    def test_oversized_field(self, tmp_path):
        path = write(tmp_path, "f.csv", "s,value\n0," + "x" * (csv.field_size_limit() + 1))
        with pytest.raises(SchemaError):
            io.read_function(path, build_quadrature(9))

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,-inf", "nan,1", "inf,1", '" NaN ",1'])
    def test_non_finite_function_rows_rejected_at_their_line(self, tmp_path, row):
        path = write(tmp_path, "f.csv", f"s,value\n0,1\n{row}\n1,2\n")
        with pytest.raises(SchemaError) as err:
            io.read_function(path, build_quadrature(9))
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}:3: non-finite point (s=")

    @pytest.mark.parametrize("obs_row,cov_row,bad", [
        ("0,0,0.5,nan", "0,0,1.0", "obs"), ("0,0,0.5,-inf", "0,0,1.0", "obs"),
        ("0,0,0.5,2.0", "0,0,inf", "cov"), ("0,0,0.5,2.0", '0,0," NaN "', "cov")])
    def test_non_finite_panel_rows_rejected_at_their_line(self, tmp_path, obs_row, cov_row,
                                                           bad):
        paths = {"obs": write(tmp_path, "obs.csv", f"unit,period,s,y\n0,0,0,1\n{obs_row}\n"),
                 "cov": write(tmp_path, "cov.csv", f"unit,period,x1\n0,0,1.0\n{cov_row}\n")}
        with pytest.raises(SchemaError) as err:
            io.read_panel(paths["obs"], paths["cov"], build_quadrature(9))
        assert err.value.line == 3
        assert str(err.value).startswith(f"{paths[bad]}:3: non-finite point (")

    def test_scan_names_the_first_bad_row_of_any_kind(self, tmp_path):
        # a row that breaks a rule, a row too wide for int64, a row that does
        # not parse and a row with a byte that is not UTF-8, in each order among
        # good rows: the byte, which once failed the whole read, fails its row
        cov = write(tmp_path, "cov.csv", "unit,period,x1\n0,0,1.0\n")
        bad = {"rule": "0,0,1.5,1", "wide": "99999999999999999999,0,0.5,1", "field": "0,0,0.5,x",
               "byte": "0,0,0.5,\udcff"}

        def error(*kinds):
            body = "".join(f"0,0,0.{k + 1},1\n{bad[kind]}\n" for k, kind in enumerate(kinds))
            with pytest.raises(SchemaError) as err:
                io.read_panel(write(tmp_path, "obs.csv", "unit,period,s,y\n" + body), cov,
                              build_quadrature(9))
            return err.value.line, str(err.value)

        for kinds in itertools.permutations(bad):
            assert error(*kinds) == error(kinds[0])
        assert error("rule") == (3, f"{tmp_path / 'obs.csv'}:3: evaluation point 1.5 outside [0, 1]")
        assert error("byte") == (3, f"{tmp_path / 'obs.csv'}:3: could not convert string to "
                                 "float: '\\udcff'")

    def test_scan_of_a_bad_last_row_holds_records_not_rows(self, tmp_path):
        # each row read before the bad one took 152 bytes as a record of its own
        rows = 40_000
        path = write(tmp_path, "f.csv", "s,value\n" + "0.5,1.25\n" * rows + "0.5,x\n")
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as err:
                io.read_function(path, build_quadrature(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == rows + 2
        assert peak < 100 * rows, peak / rows

    @pytest.mark.parametrize("fault_line", [10, 10_004])
    def test_scan_names_a_bad_row_before_a_csv_fault(self, tmp_path, fault_line):
        # a field over csv's limit fails the csv layer, which names no line
        rows = ["0,0,0.5,1", "0,0,1.5,1"] + ["0,0,0.5,1"] * (fault_line - 4)
        rows.append("0,0," + "9" * (csv.field_size_limit() + 1) + ",1")
        obs = write(tmp_path, "obs.csv", "unit,period,s,y\n" + "\n".join(rows) + "\n")
        cov = write(tmp_path, "cov.csv", "unit,period,x1\n0,0,1.0\n")
        with pytest.raises(SchemaError) as err:
            io.read_panel(obs, cov, build_quadrature(9))
        assert str(err.value) == f"{obs}:3: evaluation point 1.5 outside [0, 1]"

    @pytest.mark.parametrize("later", [None, "0.5,x", "0.5," + "9" * 200_000],
                             ids=["good", "unparsed", "csv-fault"])
    def test_scan_stops_in_the_batch_of_the_first_bad_row(self, tmp_path, monkeypatch, later):
        # row k holds the value k; row 19, in the third batch of 8, is not
        # finite, and row 21, in the same batch, may fail to parse
        monkeypatch.setattr(io, "_SCAN_ROWS", 8)
        rows = [f"0.5,{k}.0" for k in range(100)]
        rows[19] = "0.5,nan"
        rows[21] = later or rows[21]
        path = write(tmp_path, "f.csv", "s,value\n" + "\n".join(rows) + "\n")
        seen = []

        def row_error(rec):
            seen.append(np.nanmax(rec["value"], initial=0.0))
            return io._non_finite(rec)

        dtype = np.dtype([("s", float), ("value", float)])
        with io._opened(path) as (fh, _), pytest.raises(SchemaError) as err:
            io._scan(path, fh, dtype, row_error, False)
        assert err.value.line == 21 and "non-finite point" in str(err.value)
        assert max(seen) <= 23.0

    def test_error_line_counts_records(self, tmp_path):
        path = write(tmp_path, "f.csv", 's,value\n"0\n",1\n\n0,x\n')
        with pytest.raises(SchemaError) as err:
            io.read_function(path, build_quadrature(9))
        assert err.value.line == 4


@pytest.fixture(scope="module")
def written_panel(tmp_path_factory):
    """``written_panel(n)``: the observation and covariate files of a random
    n x 5 panel on the 99-point grid, as ``write_panel`` writes them, and the
    panel; each n is written once."""
    written = {}

    def panel_of(n):
        if n not in written:
            rng = np.random.default_rng(21)
            quad = build_quadrature(99)
            panel = FunctionalPanel(y=rng.normal(size=(n, 5, quad.count)),
                                    x=rng.normal(size=(n, 5, 2)), quad=quad)
            folder = tmp_path_factory.mktemp(f"panel-{n}")
            obs, cov = folder / "obs.csv", folder / "cov.csv"
            io.write_panel(panel, obs, cov)
            written[n] = obs, cov, panel
        return written[n]

    return panel_of


class TestPanelShortcuts:
    """An in-order panel on the grid's points is streamed into its values, in
    under 20 bytes a row; any other table is sorted and interpolated whole.
    Both give what the row-by-row oracle gives, since ``np.interp`` at its own
    points returns their values bit for bit."""

    @pytest.mark.parametrize("n", [224, 1200])
    def test_in_order_panel_read_in_under_20_bytes_a_row(self, written_panel, n):
        # 8-byte values and one block's temporaries: at n=224, one 128 KiB
        # block, 15.9 bytes a row; at n=1200, one 512 KiB block, 14.3; the whole
        # table's 24-byte records took 36.7 at n=224 and 35.6 at n=1600
        obs, cov, panel = written_panel(n)
        tracemalloc.start()
        try:
            read = io.read_panel(obs, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        same_panel(read, panel)
        rows = panel.y.size  # 110,880 and 594,000
        assert peak < 20 * rows, peak / rows

    @pytest.mark.parametrize("count", [2, 9, 99])
    def test_interp_at_its_own_points_returns_values_bitwise(self, count):
        rng = np.random.default_rng(count)
        grids = [build_quadrature(count).points,
                 np.sort(rng.uniform(-1e300, 1e300, count)),
                 np.cumsum(rng.uniform(1e-300, 1e-290, count))]
        for _ in range(200):
            fp = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-300, 300, count)
            fp[rng.integers(0, count, 2)] = rng.choice([-0.0, 0.0, 5e-324, -2.5e-320], 2)
            for grid in grids:
                same_bytes(np.interp(grid, grid, fp), fp)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("table", ["reversed", "shuffled", "one-cell-off-grid"])
    def test_any_order_or_points_match_the_oracle(self, tmp_path, table):
        assert run(["simulate", "--n", 40, "--T", 5, "--seed", 7, "--out", tmp_path]) == 0
        obs, cov = tmp_path / "observations.csv", tmp_path / "covariates.csv"
        header, *body = obs.read_text().splitlines(keepends=True)
        if table == "reversed":
            body = body[::-1]
        elif table == "shuffled":
            body = [body[i] for i in np.random.default_rng(3).permutation(len(body))]
        else:  # the points of unit 3, period 2, each moved towards 0, rows in order
            for k in range(17 * 99, 18 * 99):
                unit, period, s, y = body[k].split(",")
                body[k] = f"{unit},{period},{float(s) * 0.99!r},{y}"
        changed = write(tmp_path, "changed.csv", header + "".join(body))
        oracle = csv_oracle._build_panel(SimpleNamespace(
            observations=changed, covariates=cov, grid_count=99))
        same_panel(io.read_panel(changed, cov), oracle)
        pipe, feed = fifo_of(tmp_path, changed)
        same_panel(io.read_panel(pipe, cov), oracle)
        feed.join()
        # interpolated at the moved points, the one cell alone differs
        differs = np.any(oracle.y != io.read_panel(obs, cov).y, axis=2)
        assert np.argwhere(differs).tolist() == ([[3, 2]] if table == "one-cell-off-grid" else [])


class TestStreamedPanel:
    """An observation table, from a file or a pipe, whose rows run in
    (unit, period) order, each cell on the grid's points, is parsed a block of
    cells at a time into its values. Any other table, met at any block, is
    read again as a whole; either way the panel, or the error, is the
    whole-table read's."""

    @staticmethod
    def tables(tmp_path, n=7, T=3, grid_count=9, seed=5):
        """The observation rows (with their line ends) and covariate file of a
        random panel as ``write_panel`` writes them."""
        rng = np.random.default_rng(seed)
        quad = build_quadrature(grid_count)
        panel = FunctionalPanel(y=rng.normal(size=(n, T, grid_count)),
                                x=rng.normal(size=(n, T, 2)), quad=quad)
        obs, cov = tmp_path / "obs.csv", tmp_path / "cov.csv"
        io.write_panel(panel, obs, cov)
        return obs.read_bytes().decode().splitlines(keepends=True), cov

    @staticmethod
    def reads(monkeypatch, obs, cov, grid_count=9):
        """The panel read as it is, whether the stream gave it, and the panel
        read as a whole table; a read that raises gives its message."""
        def read():
            try:
                return io.read_panel(obs, cov, build_quadrature(grid_count))
            except SchemaError as exc:
                return str(exc)

        streamed, stream = [], io._in_order_values
        monkeypatch.setattr(io, "_in_order_values",
                            lambda *args: streamed.append(stream(*args)) or streamed[-1])
        panel = read()
        monkeypatch.setattr(io, "_in_order_values", lambda *args: None)
        whole = read()
        monkeypatch.setattr(io, "_in_order_values", stream)
        return panel, streamed[0] is not None, whole

    @pytest.mark.parametrize("block", [1, 20, 100, 1 << 14])
    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_blocks_line_ends_and_blank_lines(self, tmp_path, monkeypatch, block, line_end):
        # 189 rows in blocks of 1, 20 and 100 bytes, which hold no whole cell, so
        # the buffer grows to one, and in one block of 16 KiB; blank lines count
        # towards no cell
        monkeypatch.setattr(io, "_PANEL_BLOCK", block)
        lines, cov = self.tables(tmp_path)
        lines = [line.replace("\r\n", line_end) for line in lines]
        for k in (1, 19, 20, 100, len(lines)):
            lines.insert(k, line_end)
        obs = write(tmp_path, "in-order.csv", "".join(lines))
        panel, streamed, whole = self.reads(monkeypatch, obs, cov)
        assert streamed
        same_panel(panel, whole)

    @pytest.mark.parametrize("block", [20, 1 << 14])
    def test_table_without_its_last_line_end_streams(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(io, "_PANEL_BLOCK", block)
        lines, cov = self.tables(tmp_path)
        ended = write(tmp_path, "ended.csv", "".join(lines))
        cut = write(tmp_path, "cut.csv", "".join(lines).rstrip("\r\n"))
        assert not cut.read_bytes().endswith((b"\n", b"\r"))
        panel, streamed, whole = self.reads(monkeypatch, cut, cov)
        assert streamed
        same_panel(panel, whole)
        same_panel(panel, io.read_panel(ended, cov, build_quadrature(9)))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_form_repr_writes_streams(self, tmp_path, monkeypatch, seed):
        # y in fixed and exponent form, with zeros, signs and subnormals
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(7, 3, 9)) * 10.0 ** rng.integers(-320, 300, (7, 3, 9))
        y.ravel()[:7] = [0.0, -0.0, 5e-324, 1e-05, 1e16, -2.5e-310, 9.999999999999999e-05]
        panel = FunctionalPanel(y=y, x=rng.normal(size=(7, 3, 2)), quad=build_quadrature(9))
        obs, cov = tmp_path / "obs.csv", tmp_path / "cov.csv"
        io.write_panel(panel, obs, cov)
        read, streamed, whole = self.reads(monkeypatch, obs, cov)
        assert streamed
        same_panel(read, whole)
        same_bytes(read.y, y)

    def test_two_decimal_values_stream_bitwise(self, tmp_path, monkeypatch):
        # y written as "12.34", "-0.5", "7.0": short significands at small exponents
        rng = np.random.default_rng(12)
        y = rng.integers(-99_999, 100_000, (40, 5, 99)) / 100
        panel = FunctionalPanel(y=y, x=rng.normal(size=(40, 5, 1)), quad=build_quadrature(99))
        obs, cov = tmp_path / "obs.csv", tmp_path / "cov.csv"
        io.write_panel(panel, obs, cov)
        assert re.search(rb",-?[0-9]+\.[0-9]{2}\r\n", obs.read_bytes())
        read, streamed, whole = self.reads(monkeypatch, obs, cov, grid_count=99)
        assert streamed
        same_panel(read, whole)
        same_bytes(read.y, y)

    def test_zeros_in_exponent_form_stream_as_zeros(self, tmp_path, monkeypatch):
        lines, cov = self.tables(tmp_path)
        zeros = ["0e23", "0e300", "0.0e25", "-0e100", "-0.0e308", "0e-5"]
        for k, zero in enumerate(zeros, start=1):
            unit, period, s, _ = lines[k * 7].split(",")
            lines[k * 7] = f"{unit},{period},{s},{zero}\r\n"
        obs = write(tmp_path, "zeros.csv", "".join(lines))
        panel, streamed, whole = self.reads(monkeypatch, obs, cov)
        assert streamed
        same_panel(panel, whole)
        got = panel.y.ravel()[[k * 7 - 1 for k in range(1, len(zeros) + 1)]]
        same_bytes(got, np.array([float(zero) for zero in zeros]))

    def test_observations_stream_without_loadtxt(self, tmp_path, monkeypatch):
        tables, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda fh, *args, **kwargs: tables.append(
            Path(fh.name).name) or loadtxt(fh, *args, **kwargs))
        lines, cov = self.tables(tmp_path, n=40, T=5, grid_count=99)
        obs = write(tmp_path, "in-order.csv", "".join(lines))
        panel = io.read_panel(obs, cov)
        assert tables == ["cov.csv"]
        monkeypatch.setattr(io, "_in_order_values", lambda *args: None)
        same_panel(panel, io.read_panel(obs, cov))
        assert tables == ["cov.csv", "in-order.csv", "cov.csv"]

    @pytest.mark.parametrize("row", [1, 120, 189])
    def test_a_row_out_of_order_or_off_the_grid_in_any_block(self, tmp_path, monkeypatch,
                                                               row):
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        lines, cov = self.tables(tmp_path)
        swapped = lines[:]
        swapped[row], swapped[row - 1 or 2] = swapped[row - 1 or 2], swapped[row]
        off_grid = lines[:]
        unit, period, _, y = off_grid[row].split(",")
        off_grid[row] = f"{unit},{period},0.45,{y}"
        in_order = io.read_panel(write(tmp_path, "in-order.csv", "".join(lines)), cov,
                                 build_quadrature(9))
        for text in (swapped, off_grid):
            panel, streamed, whole = self.reads(
                monkeypatch, write(tmp_path, "moved.csv", "".join(text)), cov)
            assert not streamed
            same_panel(panel, whole)
            # sorted back, or interpolated at the moved point
            assert np.array_equal(panel.y, in_order.y) == (text is swapped)

    @pytest.mark.parametrize("spelling", ["{}0", "{:.20e}", "{:.17g}"])
    def test_other_spellings_of_a_grid_point_read_as_a_whole(self, tmp_path, monkeypatch,
                                                             spelling):
        # the same point, spelled otherwise than write_panel spells it, in the
        # last block: the whole-table read interpolates at the grid's own points
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        lines, cov = self.tables(tmp_path)
        in_order = io.read_panel(write(tmp_path, "in-order.csv", "".join(lines)), cov,
                                 build_quadrature(9))
        unit, period, s, y = lines[184].split(",")
        text = spelling.format(s if spelling == "{}0" else float(s))
        assert text != s and float(text) == float(s)
        lines[184] = f"{unit},{period},{text},{y}"
        panel, streamed, whole = self.reads(
            monkeypatch, write(tmp_path, "respelled.csv", "".join(lines)), cov)
        assert not streamed
        same_panel(panel, whole)
        same_bytes(panel.y, in_order.y)

    @pytest.mark.parametrize("bad", ["nan", "inf", "x", "1.5,extra"])
    def test_a_bad_row_in_a_later_block_fails_at_its_line(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        lines, cov = self.tables(tmp_path)
        unit, period, s, _ = lines[150].split(",")
        lines[150] = f"{unit},{period},{s},{bad}\r\n"
        obs = write(tmp_path, "bad.csv", "".join(lines))
        read, streamed, whole = self.reads(monkeypatch, obs, cov)
        if bad == "1.5,extra":  # a column after y is ignored
            assert streamed
            same_panel(read, whole)
        else:  # the message
            assert not streamed
            assert read == whole and read.startswith(f"{obs}:151: ")

    @pytest.mark.parametrize("change", ["short cell", "short unit", "gap", "unit 1 first",
                                        "periods swapped", "row of another cell",
                                        "whitespace line"])
    def test_tables_out_of_step_fall_back(self, tmp_path, monkeypatch, change):
        # 9 rows a cell, 3 cells a unit; a whitespace-only line fails the parse,
        # so the scan skips it
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        lines, cov = self.tables(tmp_path)
        header, body = lines[0], lines[1:]
        relabelled = body[:]
        unit, _, s, y = relabelled[4].split(",")
        relabelled[4] = f"{unit},1,{s},{y}"
        body = {"short cell": body[:-1], "short unit": body[:-9], "gap": body[:27] + body[36:],
                "unit 1 first": body[27:54] + body[:27] + body[54:],
                "periods swapped": body[:9] + body[18:27] + body[9:18] + body[27:],
                "row of another cell": relabelled,
                "whitespace line": body[:100] + [" \t\r\n"] + body[100:]}[change]
        read, streamed, whole = self.reads(
            monkeypatch, write(tmp_path, "changed.csv", header + "".join(body)), cov)
        assert not streamed
        if isinstance(whole, str):  # the message
            assert read == whole
        else:
            same_panel(read, whole)

    def test_grid_count_above_the_line_count_parses_no_block(self, tmp_path, max_rows_given):
        # no whole cell fits, so no block is read for it
        lines, cov = self.tables(tmp_path)
        obs = write(tmp_path, "in-order.csv", "".join(lines))
        assert io.read_panel(obs, cov, build_quadrature(1000)).y.shape == (7, 3, 1000)
        assert max(max_rows_given) == len(lines) + 1  # the whole table's read

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_streams_as_the_file_does(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        blocks, row_blocks = [], io._row_blocks

        def spy(*args):  # the rows of each block the stream parses
            for block in row_blocks(*args):
                blocks.append(None if block is None else block[1].size)
                yield block

        monkeypatch.setattr(io, "_row_blocks", spy)
        lines, cov = self.tables(tmp_path)
        obs = write(tmp_path, "in-order.csv", "".join(lines))
        from_file = io.read_panel(obs, cov, build_quadrature(9))
        from_file_blocks = blocks[:]
        # blocks of whole cells: 20 bytes hold none, so the buffer grows to hold one
        assert len(from_file_blocks) > 5 and sum(from_file_blocks) == 189
        assert all(rows % 9 == 0 for rows in from_file_blocks)
        blocks.clear()
        pipe, feed = fifo_of(tmp_path, obs)
        from_pipe = io.read_panel(pipe, cov, build_quadrature(9))
        feed.join()
        same_panel(from_pipe, from_file)
        assert blocks == from_file_blocks

    @staticmethod
    def block_sizes(monkeypatch):
        """The block size of each stream that ``_row_blocks`` reads from now on."""
        sizes, row_blocks = [], io._row_blocks

        def spy(*args):
            sizes.append(args[2])
            return row_blocks(*args)

        monkeypatch.setattr(io, "_row_blocks", spy)
        return sizes

    @pytest.mark.parametrize("n,mib,block", [(224, 3, 128), (600, 8, 256), (1200, 17, 512)])
    def test_block_grows_with_the_table(self, written_panel, monkeypatch, n, mib, block):
        # 128 KiB for each whole 4 MiB of the table, from one to four of them
        obs, cov, panel = written_panel(n)
        assert obs.stat().st_size >> 20 == mib
        sizes = self.block_sizes(monkeypatch)
        same_panel(io.read_panel(obs, cov), panel)
        assert sizes == [block << 10]

    @pytest.mark.parametrize("parts,block", [(None, 20), (2, 40), (3, 60), (1000, 80)])
    def test_block_is_one_to_four_panel_blocks(self, tmp_path, monkeypatch, parts, block):
        # with the table cut into ``parts`` units, a block is that many
        # _PANEL_BLOCKs, four at most; a table under one unit takes one
        monkeypatch.setattr(io, "_PANEL_BLOCK", 20)
        lines, cov = self.tables(tmp_path)
        obs = write(tmp_path, "in-order.csv", "".join(lines))
        if parts:
            monkeypatch.setattr(io, "_BLOCK_UNIT", obs.stat().st_size // parts)
        sizes = self.block_sizes(monkeypatch)
        panel, streamed, whole = self.reads(monkeypatch, obs, cov)
        assert streamed and sizes == [block]
        same_panel(panel, whole)

    def test_512_kib_blocks_stream_the_whole_read_bitwise(self, written_panel, monkeypatch):
        obs, cov, panel = written_panel(1200)
        read, streamed, whole = self.reads(monkeypatch, obs, cov, grid_count=99)
        assert streamed
        same_panel(read, whole)
        same_panel(read, panel)


# -- line count -------------------------------------------------------------

LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def line_ended_tables(draw):
    """A two-column table whose lines end in any mix of ``\\n``, ``\\r\\n`` and
    ``\\r``, with blank lines, quoted fields that hold line ends, and maybe no
    final line end."""
    quoted = st.lists(st.sampled_from(["a", "\n", "\r\n", "\r"]), max_size=4).map(
        lambda parts: '"' + "".join(parts) + '"')
    field = st.one_of(st.sampled_from(["0", "1.5", "-2"]), quoted)
    line = st.one_of(st.tuples(field, field).map(",".join), st.just(""))
    text = "s,value" + draw(LINE_ENDS) + "".join(
        draw(st.lists(st.builds(str.__add__, line, LINE_ENDS), max_size=30)))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@pytest.fixture()
def max_rows_given(monkeypatch):
    """The ``max_rows`` of every ``np.loadtxt`` call, in call order."""
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(kwargs.get("max_rows"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


class TestLineCount:
    """A table's records are allocated once, for its counted line ends; the
    count may exceed the rows but never fall below them. A pipe, which can be
    read only once, is counted in the temporary copy that is then parsed."""

    @FUZZ
    @given(text=line_ended_tables(), chunk=st.integers(1, 9))
    def test_count_is_every_line_end(self, tmp_path, monkeypatch, text, chunk):
        # chunks of a few bytes split many \r\n pairs between two reads
        monkeypatch.setattr(io, "_COUNT_CHUNK", chunk)
        path = write(tmp_path, "t.csv", text)
        with open(path, newline="") as fh:
            count = io._line_count(fh)
            assert fh.read() == text  # the count leaves the file at its start
            fh.seek(0)
            next(csv.reader(fh))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # blank lines, an empty body
                rows = np.loadtxt(fh, dtype=str, delimiter=",", quotechar='"',
                                  comments=None, ndmin=2)
        assert count == len(re.split(r"\r\n|\r|\n", text)) - 1
        assert count >= len(rows)

    def test_line_end_split_between_chunks_counted_once(self, tmp_path):
        text = "s,value\n" + " " * (io._COUNT_CHUNK - 9) + "\r\n0,1\n"
        assert text[io._COUNT_CHUNK - 1:io._COUNT_CHUNK + 1] == "\r\n"
        with open(write(tmp_path, "t.csv", text), newline="") as fh:
            assert io._line_count(fh) == 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_panel_through_pipes_equals_the_file_read(self, tmp_path):
        assert run(["simulate", "--n", 40, "--T", 5, "--seed", 7, "--out", tmp_path]) == 0
        obs, cov = tmp_path / "observations.csv", tmp_path / "covariates.csv"
        (obs_pipe, obs_feed), (cov_pipe, cov_feed) = fifo_of(tmp_path, obs), fifo_of(tmp_path, cov)
        from_pipes = io.read_panel(obs_pipe, cov_pipe)
        obs_feed.join()
        cov_feed.join()
        same_panel(from_pipes, io.read_panel(obs, cov))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_malformed_panel_through_a_pipe_fails_at_the_line_the_file_read_names(
            self, tmp_path):
        # the scan reads the bytes the parse read; a re-opened pipe is empty,
        # or, as here, waits for a writer that never comes
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 2, "--out", tmp_path]) == 0
        cov = tmp_path / "covariates.csv"
        lines = (tmp_path / "observations.csv").read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3] + ["nan"])
        bad = write(tmp_path, "bad.csv", "\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as from_file:
            io.read_panel(bad, cov)
        pipe, feed = fifo_of(tmp_path, bad)
        failures = []

        def read():
            try:
                io.read_panel(pipe, cov)
            except SchemaError as exc:
                failures.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(60)
        assert not reader.is_alive(), "the pipe was opened again"
        feed.join()
        assert from_file.value.line == failures[0].line == 3
        assert str(failures[0]) == str(from_file.value).replace(str(bad), str(pipe))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loadtxt_sized_for_a_file_and_a_pipe(self, tmp_path, max_rows_given):
        path = write(tmp_path, "f.csv", "s,value\r\n0,1\r\n1,2\r\n")
        quad = build_quadrature(9)
        values = io.read_function(path, quad)
        pipe, feed = fifo_of(tmp_path, path)
        same_bytes(io.read_function(pipe, quad), values)
        feed.join()
        assert max_rows_given == [4, 4]

    def test_count_past_the_limit_is_refused_before_the_parse(
            self, tmp_path, monkeypatch, max_rows_given):
        # as for a huge run of blank lines: 10**13 values or records exceed
        # MAX_ARRAY_BYTES, in the streamed read and in the whole-table read
        assert run(["simulate", "--n", 12, "--T", 3, "--seed", 2, "--out", tmp_path]) == 0
        obs, cov = tmp_path / "observations.csv", tmp_path / "covariates.csv"
        function = tmp_path / "truth_functions.csv"
        monkeypatch.setattr(io, "_line_count", lambda fh: 10**13)
        for path, read in ((obs, lambda: io.read_panel(obs, cov)),
                           (function, lambda: io.read_function(function, build_quadrature(9)))):
            with pytest.raises(InvalidArgumentError, match=re.escape(
                    f"{path}: 10000000000000 lines need more memory than can be allocated")):
                read()
        assert max_rows_given == []


# -- the command line under fuzzed files -----------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    assert run(["simulate", "--n", 8, "--T", 3, "--seed", 3, "--grid-count", 17,
                "--out", root]) == 0
    (root / "eta.csv").write_text("s,value\n0,1\n1,0.5\n")
    with open(root / "coords.csv", "w", newline="") as fh:
        fh.write("unit,lon,lat\n")
        for i in range(8):
            fh.write(f"{i},{i % 3},{i // 3}\n")
    return root


@st.composite
def mutated(draw, text):
    """``text`` with one row replaced, dropped, added or edited."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split(",")
    token = st.sampled_from([*GARBAGE, "0", "1", "0.5", "-3.25", "7", "1e-3", "00"])
    op = draw(st.sampled_from(["edit", "edit", "drop", "insert", "blank"]))
    if op == "edit":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(token)
        lines[k] = ",".join(fields)
    elif op == "drop":
        del lines[k]
    elif op == "insert":
        lines.insert(k, ",".join(draw(st.lists(token, min_size=1, max_size=5))))
    else:
        lines.insert(k, draw(st.sampled_from(BLANK)))
    return "\n".join(lines) + "\n"


def assert_clean_exit(code, err):
    assert code in (0, 4), err
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCommandLineFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_estimate(self, small_run, tmp_path, capsys, data):
        name = data.draw(st.sampled_from(["observations.csv", "covariates.csv"]))
        for table in ("observations.csv", "covariates.csv"):
            shutil.copy(small_run / table, tmp_path / table)
        (tmp_path / name).write_text(data.draw(mutated((small_run / name).read_text())))
        capsys.readouterr()
        code = run(["estimate", "--observations", tmp_path / "observations.csv",
                    "--covariates", tmp_path / "covariates.csv",
                    "--weights", small_run / "weights.csv", "--grid-count", 17,
                    "--moment-points", 6, "--out", tmp_path])
        assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_keyplayer(self, small_run, tmp_path, capsys, data):
        files = {"alpha": small_run / "truth_functions.csv", "shock": small_run / "eta.csv",
                 "weights": small_run / "weights.csv", "coords": small_run / "coords.csv"}
        name = data.draw(st.sampled_from(sorted(files)))
        text = data.draw(mutated(files[name].read_text()))
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(text)
        network = (["--coords", files["coords"], "--threshold", 1.5] if name == "coords"
                   else ["--weights", files["weights"]])
        capsys.readouterr()
        code = run(["effects", "keyplayer", "--alpha-file", files["alpha"],
                    "--shock-file", files["shock"], *network, "--grid-count", 17])
        assert_clean_exit(code, capsys.readouterr().err)
