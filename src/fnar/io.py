"""Every comma-separated table fnar reads or writes, one reader and one
writer per table, both vectorised. This module alone knows a table's layout
and rules.

A reader checks the header with ``csv``, then parses the body in one
``np.loadtxt`` call, which stores observation ids in 32 bits. A pipe, which
can be read only once, is first copied to a temporary file and then read as a
file is. The line ends are counted first, so that call allocates its records
once, at their final size, rather than growing and copying them, and a table
is refused if they exceed ``MAX_ARRAY_BYTES``, blank lines or not. A
whitespace-only line fails that parse, so a failed parse runs once more
without such lines. Only if that fails too, or a row breaks a rule of the
table, does a row-by-row scan of the same bytes with Python's ``int`` and
``float`` run: it checks its rows a batch at a time as it reads them and
stops at the first bad line, which it names, or reads what only Python
accepts (``1_000``) and a table with a wider id, ids as int64.
Blank and whitespace-only lines are skipped, quoted fields are accepted and
columns after the ones a table needs are ignored. The panel reader streams an
observation table whose rows run in (unit, period) order with each cell's
points the grid's, spelled as ``write_panel`` writes them: it reads its bytes
in blocks of ``_PANEL_BLOCK`` for each whole ``_BLOCK_UNIT`` of the table, at
least one and at most four, whole cells of lines, matches each ``s`` by its
bytes, parses the ids and ``y`` with the vectorised decimal kernel of
``fnar.floattext`` (ids as digits, ``y`` as ``[-]digits[.digits][e[+-]digits]``,
bit for bit as ``float`` reads them) and writes the values into one array
sized by the line count, keeping no row's ids or points. At the first block
with a quote, a lone ``\r``, an ``s`` spelled otherwise, a field that is not
such a text, a row that breaks a rule or leaves that order, it reads the
table again from its start as a whole, which is the only path for any other
table: it sorts the rows stably by (unit, period, s) and interpolates each
cell onto the grid.

A writer writes each value as its shortest round-trip text, byte for byte what
``repr`` writes, with the ``\\r\\n`` line ends of ``csv.writer``. A block of
values at a time goes through a vectorised shortest-digit kernel (Schubfach,
in numpy uint64) and a table of text layouts; the block's rows are assembled
as NUL-padded slots of a byte matrix (leading indices, label, values) and
written without the NULs, so a label must hold no NUL.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import stat
import tempfile
import warnings
from contextlib import ExitStack, contextmanager
from io import TextIOWrapper

import numpy as np
import scipy.sparse as sp

from .basis import QuadratureGrid, build_quadrature
from .errors import InvalidArgumentError, MissingDataError, SchemaError, check_array_size
from .network import NetworkWeights
from .simulate import FunctionalPanel

__all__ = ["write_table", "write_panel", "read_panel", "read_function",
           "interpolate_response", "read_coords", "read_edge_list", "write_edge_list",
           "MAX_INFERRED_UNITS"]

_BLOCK = 8192  # values formatted at once, which bounds a write's temporaries
_COUNT_CHUNK = 1 << 16  # bytes per read of the line count, which bounds its temporaries
_SCAN_ROWS = 1 << 12  # rows the row-by-row scan holds as tuples before it checks them as records
_PANEL_BLOCK = 1 << 17  # bytes of an in-order observation table parsed at once, per unit
# Table bytes per _PANEL_BLOCK of a streamed block, up to four: a block grows
# only where it is at most 1/32 of its table, so its temporaries stay under
# 20 B a row. Its own constant, not a multiple of _PANEL_BLOCK, so that a
# small table read with a smaller _PANEL_BLOCK keeps blocks of exactly that.
_BLOCK_UNIT = 1 << 22
_PAD = 32  # zero bytes after a block's last line: the decimal kernel reads past a field
# Largest unit count an edge list read without n may imply. The count is one
# more than the largest id, and the matrix's row pointer alone takes 8 bytes
# a unit, so a stray large id would otherwise allocate without bound.
MAX_INFERRED_UNITS = 1_000_000


def write_table(path, header, values, labels=None) -> None:
    """Write ``values`` of shape (*lead, rows, k) as a comma-separated table.

    Each row holds its leading indices, then its entry of ``labels`` (one
    preformatted field per row, free of NUL, if given), then its k values as
    ``repr`` writes them, with ``\\r\\n`` line ends. ``float_rows`` formats
    ``_BLOCK`` values at a time into NUL-padded slots of a byte matrix, one
    matrix row per table row and every slot whole 8-byte words; the matrix is
    written without its NULs.
    """
    # imported here, so that a process that writes no table builds none of its tables
    from .floattext import float_rows

    values = np.asarray(values, dtype=float)
    *lead, n_rows, k = values.shape
    if labels is not None and len(labels) != n_rows:
        raise InvalidArgumentError(f"{len(labels)} labels for {n_rows} rows")
    flat = values.reshape(math.prod(values.shape[:-1]), k)
    indices = [_field_table([str(i) for i in range(size)]) for size in lead]
    label_words = None if labels is None else _words(_field_table(labels))
    rows = max(_BLOCK // max(k, 1), 1)
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(flat), rows):
            stop = min(start + rows, len(flat))
            row = np.arange(start, stop)
            pieces = []
            if lead:  # the leading indices of the runs of n_rows rows the block meets
                first, run = start // n_rows, row // n_rows
                index = np.unravel_index(np.arange(first, run[-1] + 1), lead)
                text = np.concatenate([t.take(i, axis=0) for t, i in zip(indices, index)], axis=1)
                pieces.append(_words(text).take(run - first, axis=0))
            if label_words is not None:
                pieces.append(label_words.take(row % n_rows, axis=0))
            pieces.append(float_rows(flat[start:stop]).view(np.uint64))
            block = np.concatenate(pieces, axis=1).view(np.uint8)
            fh.write(block[block != 0])


def write_panel(panel, obs_path, cov_path) -> None:
    """Write ``unit,period,s,y`` observations and ``unit,period,x1,...`` covariates."""
    write_table(obs_path, ["unit", "period", "s", "y"], panel.y[..., None],
                [repr(s) for s in panel.quad.points.tolist()])
    write_table(cov_path, ["unit", "period"] + [f"x{j + 1}" for j in range(panel.d_x)],
                panel.x, [str(t) for t in range(panel.T)])


def read_panel(obs_path, cov_path, quad: QuadratureGrid | None = None):
    """Read the tables of :func:`write_panel` into a ``FunctionalPanel``.

    Each (unit, period)'s points, which may be irregular and come in any row
    order, are interpolated linearly onto ``quad`` (the 99-point grid if None),
    which keeps the values of points exactly the grid's, bit for bit. Ids run
    from 0 without gaps, and each (unit, period) needs observations and a
    covariate row (the last counts). Every ``y`` and covariate must be finite;
    a bad row raises ``SchemaError`` naming its line, and values past
    ``MAX_ARRAY_BYTES`` raise ``InvalidArgumentError``.
    """
    quad = build_quadrature(99) if quad is None else quad
    with _opened(obs_path) as (fh, lines):
        y = _in_order_values(fh, obs_path, lines, quad)
        if y is None:  # the whole table's records, from its first line
            obs = _parse(fh, obs_path, _observation_columns, _observation_error, False, lines)
            if obs.size == 0:
                raise SchemaError("observation table is empty", path=str(obs_path))
    cov = _read(cov_path, _covariate_columns, _non_finite)
    if y is None:
        y, last_row = _gridded_values(obs, cov, quad, obs_path, cov_path)
    else:  # every cell has observations
        last_row = _last_rows(cov, *y.shape[:2], np.ones(y.shape[0] * y.shape[1], bool),
                              obs_path, cov_path)
    names = cov.dtype.names[2:]
    x = np.column_stack([cov[name][last_row] for name in names])
    return FunctionalPanel(y=y, x=x.reshape(*y.shape[:2], len(names)), quad=quad)


def _in_order_values(fh, path, lines, quad) -> np.ndarray | None:
    """The (n, T, G) values of the observation table open as ``fh``, with
    ``lines`` line ends, if its rows run in (unit, period) order, each cell's
    points the grid's, spelled as ``write_panel`` spells them, and every other
    field is a text the decimal kernel reads. Else None, with ``fh`` anywhere:
    also for a malformed table, which the whole-table read names.

    The bytes are read in blocks of ``_PANEL_BLOCK`` times the file's whole
    ``_BLOCK_UNIT``s, at least 1 and at most 4 (128 KiB below 8 MiB, 512 KiB
    from 16 MiB), whole cells of lines, and their values written to one
    array allocated for the line count, so no row's ids or points are kept.
    A cell's ids are read from its first row, whose ``unit,period,`` bytes
    its other rows must repeat, and each ``s`` is matched by its bytes. A
    table with any other spelling of a grid point takes the whole-table read,
    whose interpolation at the grid's own points gives the same values.
    """
    from .floattext import decimal_ids, decimal_values, equal_bytes

    _observation_columns(_header(fh), path)
    G = quad.count
    if G > lines:  # at most ``lines`` rows, as below: not one whole cell
        return None
    # the grid's points as write_panel spells them, each with its ","
    points = [f"{s!r},".encode() for s in quad.points.tolist()]
    spellings = np.zeros((G, -(-max(map(len, points)) // 8) * 8), np.uint8)
    for row, point in zip(spellings, points):
        row[:len(point)] = np.frombuffer(point, np.uint8)
    lengths = np.array([len(point) for point in points])
    # every row but an unended last one, and the header, ends a line
    check_array_size(f"{path}: {lines} lines need more memory than can be allocated", lines)
    y = np.empty(lines)
    rows, T = 0, None  # the periods of a unit, known once unit 1 starts
    units = os.fstat(fh.fileno()).st_size // _BLOCK_UNIT
    for block in _row_blocks(fh.buffer, G, _PANEL_BLOCK * min(4, max(1, units))):
        if block is None:
            return None
        text, at, stop = block
        size = at.size
        if rows + size > lines:
            return None
        # each cell's ids from its first row, "unit,period,", which its other rows repeat
        at = at.reshape(-1, G)
        ids, end = [], at[:, 0]
        for _ in range(2):
            field = decimal_ids(text, end)
            if field is None or np.any(text[field[1]] != 44):
                return None
            ids.append(field[0])
            end = field[1] + 1
        width = end - at[:, 0]
        prefix = text[at[:, :1] + np.arange(-(-int(width.max()) // 8) * 8)]
        prefix[np.arange(prefix.shape[1]) >= width[:, None]] = 0
        if not np.all(equal_bytes(text, at, prefix[:, None])):
            return None
        at += width[:, None]
        # each s spelled, with its ",", as write_panel spells its grid point
        if not np.all(equal_bytes(text, at, spellings)):
            return None
        at += lengths
        field = decimal_values(text, at.ravel(), stop)
        if field is None or not np.all(np.isfinite(field[0])):
            return None
        y[rows:rows + size] = field[0]
        del field, at, stop
        unit, period = ids
        cell = np.arange(rows // G, (rows + size) // G)
        if T is None and unit.any():  # 0 if unit 0 has no row: the check below fails
            T = int(cell[(unit != 0).argmax()])
        unit_at, period_at = np.divmod(cell, T) if T else (0, cell)
        if not (np.all(unit == unit_at) and np.all(period == period_at)):
            return None
        rows += size
    cells = rows // G
    T = T or cells
    if not cells or cells % T:
        return None
    return y[:rows].reshape(cells // T, T, G)


def _row_blocks(raw, rows, size):
    """The lines after the header of the binary file ``raw``, from its start,
    about ``size`` bytes at a time, each block a multiple of ``rows``
    lines that are not blank: the bytes, zero-padded ``_PAD`` bytes past their
    last line, and each line's start and end before its ``\r\n`` or ``\n``.
    None for a block with a quote or a lone ``\r``, or if lines that make no
    whole multiple are left at the end."""
    raw.seek(0)
    buf = np.zeros(size + _PAD + 1, np.uint8)  # and an end for an unended last line
    held, header = 0, True
    while True:
        got = raw.readinto(memoryview(buf)[held:buf.size - _PAD - 1])
        end = held + got
        if not got and end and buf[end - 1] != 10:
            buf[end] = 10
            end += 1
        text = buf[:end]
        ends = np.flatnonzero(text == 10)
        cut = int(ends[-1]) + 1 if ends.size else 0
        starts = np.concatenate(([0], ends[:-1] + 1))[:ends.size]
        stops = ends - (buf[ends - 1] == 13)  # buf[-1], a pad byte, before a first empty line
        if np.any(text[:cut] == 34) or np.count_nonzero(text[:cut] == 13) != np.count_nonzero(
                stops < ends):
            yield None
            return
        if header and ends.size:
            starts, stops, header = starts[1:], stops[1:], False
        filled = stops > starts
        if not filled.all():
            starts, stops = starts[filled], stops[filled]
        whole = starts.size - starts.size % rows
        if not got and whole < starts.size:
            yield None
            return
        if whole:
            buf[end:end + _PAD] = 0
            yield buf, starts[:whole], stops[:whole]
        if not got:
            return
        kept = int(starts[whole]) if whole < starts.size else cut
        held = end - kept
        if kept:
            buf[:held] = buf[kept:end]
        elif held == buf.size - _PAD - 1:  # a whole multiple of rows does not fit
            buf = np.concatenate((buf[:held], np.zeros(held + _PAD + 1, np.uint8)))


def _gridded_values(obs, cov, quad, obs_path, cov_path):
    """The (n, T, G) values of observation records in any order and on any
    points, and each cell's last covariate row."""
    unit, period, s, y_obs = obs["unit"], obs["period"], obs["s"], obs["y"]
    n, T = _id_count(unit, obs_path), _id_count(period, obs_path)
    # int64 cell keys, built in place: np.bincount would copy int32 ones
    cells, key = n * T, np.multiply(unit, T, dtype=np.int64)
    key += period
    if cells > obs.size:  # some cell has no rows; find it without per-cell arrays
        _missing_cell(np.unique(key), np.unique(_covariate_cells(cov, n, T)[0]), T,
                      obs_path, cov_path)
    counts = np.bincount(key, minlength=cells)
    last_row = _last_rows(cov, n, T, counts, obs_path, cov_path)

    # stable: points at the same s keep their file order, as interpolation sees them
    order = np.lexsort((s, period, unit))
    s, y_obs = s[order], y_obs[order]
    del key, order  # before the (cells, G) values
    check_array_size(f"grid count {quad.count} needs {cells} x {quad.count} panel values, "
                     "more memory than can be allocated", cells, quad.count)
    y = np.empty((cells, quad.count))
    ends = np.cumsum(counts).tolist()
    for cell, (start, end) in enumerate(zip([0] + ends, ends)):
        y[cell] = np.interp(quad.points, s[start:end], y_obs[start:end])
    return y.reshape(n, T, -1), last_row


def _covariate_cells(cov, n, T):
    """The cell key, unit * T + period, of each covariate row inside the n x T
    panel, and the index of that row."""
    inside = (cov["unit"] >= 0) & (cov["unit"] < n) & (cov["period"] >= 0) & (cov["period"] < T)
    return cov["unit"][inside] * T + cov["period"][inside], np.flatnonzero(inside)


def _last_rows(cov, n, T, counts, obs_path, cov_path) -> np.ndarray:
    """The last covariate row of each cell, unit-major, given each cell's
    observation count; raise for the first cell without observations or
    without covariates."""
    key, row = _covariate_cells(cov, n, T)
    last_row = np.full(n * T, -1)
    np.maximum.at(last_row, key, row)
    if not counts.all() or last_row.min() < 0:
        _missing_cell(np.flatnonzero(counts), np.flatnonzero(last_row >= 0), T,
                      obs_path, cov_path)
    return last_row


def read_function(path, quad) -> np.ndarray:
    """Values on ``quad``'s grid of the function a two-column ``s,value`` table
    samples, by :func:`interpolate_response`; both columns must be finite."""
    rec = _read(path, _function_columns, _non_finite)
    if rec.size == 0:
        raise SchemaError("function table has no rows", path=str(path))
    return interpolate_response(np.column_stack((rec["s"], rec["value"])), quad)


def interpolate_response(observations, quad) -> np.ndarray:
    """Piecewise-linear interpolant of scattered (s, y) pairs on the grid.

    Outside the observed range the first/last value is extended; a single
    observation yields a constant function.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise MissingDataError("no observations to interpolate")
    if obs.ndim != 2 or obs.shape[1] != 2:
        raise InvalidArgumentError("observations must be (s, y) pairs")
    order = np.argsort(obs[:, 0], kind="stable")
    s_obs, y_obs = obs[order, 0], obs[order, 1]
    return np.interp(quad.points, s_obs, y_obs)


def read_coords(path) -> np.ndarray:
    """(n, 2) array of the (lon, lat) of units 0..n-1 from ``unit,lon,lat`` rows."""
    rec = _read(path, _coord_columns)
    order = np.argsort(rec["unit"], kind="stable")
    if not np.array_equal(rec["unit"][order], np.arange(rec.size)):
        raise SchemaError("unit ids must be 0..n-1 without gaps", path=str(path))
    return np.column_stack((rec["lon"], rec["lat"]))[order]


def read_edge_list(path, n: int | None = None) -> NetworkWeights:
    """Load weights from a text edge list with header ``i,j,weight`` (0-based
    ids), exactly three fields a row.

    Without ``n`` the unit count is one more than the largest id, at most
    ``MAX_INFERRED_UNITS``.
    """
    rec = _read(path, _edge_columns, _edge_error, exact=True)
    rows, cols, vals = rec["i"], rec["j"], rec["weight"]
    top = int(max(rows.max(), cols.max())) if rows.size else -1
    if n is None:
        if top < 0:
            raise SchemaError("edge list is empty and no unit count was given", path=str(path))
        if top >= MAX_INFERRED_UNITS:
            raise SchemaError(
                f"unit id {top} implies more than {MAX_INFERRED_UNITS:,} units "
                "in an edge list read without a unit count", path=str(path))
        n = top + 1
    elif top >= n:
        raise SchemaError(f"unit id {top} out of range for {n} units", path=str(path))
    return NetworkWeights(w=sp.csr_array((vals, (rows, cols)), shape=(n, n)))


def write_edge_list(weights: NetworkWeights, path) -> None:
    """Write weights as a text edge list with header ``i,j,weight``; a last
    unit in no edge gets the row ``n-1,n-1,0.0``, so the file keeps n."""
    coo = weights.w.tocoo()
    rows, cols, vals = coo.row.tolist(), coo.col.tolist(), coo.data.tolist()
    last = weights.n - 1
    if last not in rows and last not in cols:
        rows.append(last)
        cols.append(last)
        vals.append(0.0)
    write_table(path, ["i", "j", "weight"], np.array(vals)[:, None],
                [f"{i},{j}" for i, j in zip(rows, cols)])


def _observation_columns(header, path):
    if [h.strip() for h in header] != ["unit", "period", "s", "y"]:
        raise SchemaError("expected header 'unit,period,s,y'", line=1, path=str(path))
    # 32-bit ids make a parsed row 24 bytes; the scan reads a wider id
    return [("unit", np.int32), ("period", np.int32), ("s", float), ("y", float)]


def _covariate_columns(header, path):
    if [h.strip() for h in header[:2]] != ["unit", "period"]:
        raise SchemaError("expected header 'unit,period,x1,...'", line=1, path=str(path))
    if len(header) < 3:
        raise SchemaError("covariate table needs at least one x column", line=1, path=str(path))
    return [("unit", int), ("period", int)] + [(f"x{j + 1}", float) for j in range(len(header) - 2)]


def _function_columns(header, path):
    if len(header) < 2:
        raise SchemaError("expected a header with at least two columns", line=1, path=str(path))
    return [("s", float), ("value", float)]


def _coord_columns(header, path):
    if len(header) < 3:
        raise SchemaError("expected header 'unit,lon,lat'", line=1, path=str(path))
    return [("unit", int), ("lon", float), ("lat", float)]


def _edge_columns(header, path):
    if [h.strip() for h in header[:3]] != ["i", "j", "weight"]:
        raise SchemaError("expected header 'i,j,weight'", line=1, path=str(path))
    return [("i", int), ("j", int), ("weight", float)]


def _observation_error(rec):
    bad = ~((rec["s"] >= 0.0) & (rec["s"] <= 1.0))
    if bad.any():
        return f"evaluation point {float(rec['s'][bad.argmax()])} outside [0, 1]"
    return _non_finite(rec)


def _non_finite(rec):
    """The first row with a non-finite value, named by the row's float fields."""
    names = [name for name in rec.dtype.names if rec.dtype[name].kind == "f"]
    bad = ~np.logical_and.reduce([np.isfinite(rec[name]) for name in names])
    if bad.any():
        i = bad.argmax()
        return "non-finite point (" + ", ".join(
            f"{name}={float(rec[name][i])}" for name in names) + ")"


def _edge_error(rec):
    if np.any((rec["i"] < 0) | (rec["j"] < 0)):
        return "unit ids must be non-negative"
    if np.any((rec["i"] == rec["j"]) & (rec["weight"] != 0.0)):
        return "self-loop weights are not allowed"


def _missing_cell(obs_cells, cov_cells, T, obs_path, cov_path):
    """Raise for the first (unit, period) cell missing from the sorted, distinct
    cell ids of the observations or of the covariates (observations first)."""
    obs_gap, cov_gap = _first_gap(obs_cells), _first_gap(cov_cells)
    i, t = divmod(min(obs_gap, cov_gap), T)
    if obs_gap <= cov_gap:
        raise SchemaError(f"no observations for unit {i}, period {t}", path=str(obs_path))
    raise SchemaError(f"no covariates for unit {i}, period {t}", path=str(cov_path))


def _first_gap(ids) -> int:
    """The smallest non-negative integer missing from sorted, distinct ``ids``."""
    gaps = ids != np.arange(ids.size)
    return int(gaps.argmax()) if gaps.any() else ids.size


def _id_count(ids, path) -> int:
    """n for ids that cover 0..n-1, each at least once."""
    if ids.min() < 0 or ids.max() >= ids.size or not np.bincount(ids).all():
        raise SchemaError("unit and period ids must be contiguous from 0", path=str(path))
    return int(ids.max()) + 1


@contextmanager
def _opened(path):
    """The table at ``path`` open as a seekable text file at its start, and
    its line ends. A pipe, which can be read only once, is first copied to a
    temporary file, so that its line ends are counted and a scan reads the
    bytes a parse read, as for a regular file. A byte that does not decode is
    kept as a lone surrogate, which no number parses, so the scan names its line."""
    try:
        with open(path, newline="", errors="surrogateescape") as fh, ExitStack() as stack:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                copy = stack.enter_context(tempfile.TemporaryFile())
                shutil.copyfileobj(fh.buffer, copy)
                copy.seek(0)
                fh = stack.enter_context(TextIOWrapper(copy, newline="", errors="surrogateescape"))
            yield fh, _line_count(fh)
    except csv.Error as exc:
        raise SchemaError(str(exc), path=str(path)) from exc


def _read(path, columns, row_error=None, exact=False) -> np.ndarray:
    """The body of a table as a structured array, one field per needed column.

    ``columns(header, path)`` checks the header and returns the needed columns as
    (name, int | float | np.int32) pairs; with ``exact`` a row must have no others.
    ``row_error(records)`` names the first row that breaks a rule of the table.
    The ``np.loadtxt`` parse stores an ``np.int32`` column in 32 bits, so a
    wider id fails it; the scan reads every int column as int64. The body is
    parsed into records allocated once for its counted lines, which raise
    ``InvalidArgumentError`` if they exceed ``MAX_ARRAY_BYTES``, blank or not.
    A parse that fails runs again without whitespace-only lines, before the scan.
    """
    with _opened(path) as (fh, lines):
        return _parse(fh, path, columns, row_error, exact, lines)


def _parse(fh, path, columns, row_error, exact, lines) -> np.ndarray:
    """:func:`_read` of the open, seekable ``fh``, given its line ends."""
    fields = columns(_header(fh), path)
    dtype = np.dtype([(name, {int: np.int64, float: np.float64}.get(kind, kind))
                      for name, kind in fields])
    usecols = None if exact else range(len(fields))
    max_rows = lines + 1  # a row takes at least one line end, bar an unended last line
    check_array_size(f"{path}: {lines} lines need more memory than can be allocated",
                     max_rows, itemsize=dtype.itemsize)
    rec = _loadtxt(fh, dtype, usecols, max_rows)
    if rec is None:  # np.loadtxt skips a blank line, not a whitespace-only one
        _header(fh)
        rec = _loadtxt((line for line in fh if not line.isspace()), dtype, usecols, max_rows)
    if rec is None or (row_error is not None and row_error(rec) is not None):
        rec = _scan(path, fh, dtype, row_error, exact)
    return rec


def _header(fh) -> list:
    """The header row of the seekable ``fh``, read from its start; ``fh`` is
    left at the row after it."""
    fh.seek(0)
    return next(csv.reader(fh), [])


def _line_count(fh) -> int:
    """The line ends (``\\n``, ``\\r\\n`` or a lone ``\\r``, as ``np.loadtxt``
    takes them) of the seekable file open as ``fh``, which is left at its start."""
    count, cr_end = 0, False
    while chunk := fh.buffer.read(_COUNT_CHUNK):
        data = np.frombuffer(chunk, np.uint8)
        cr, lf = data == 13, data == 10
        count += np.count_nonzero(cr) + np.count_nonzero(lf) - np.count_nonzero(cr[:-1] & lf[1:])
        if cr_end and lf[0]:  # a \r\n split between two chunks
            count -= 1
        cr_end = cr[-1]
    fh.seek(0)
    return count


def _loadtxt(fh, dtype, usecols, max_rows) -> np.ndarray | None:
    """``np.loadtxt`` of the rest of ``fh`` (a file or its lines), at most
    ``max_rows`` rows; None if a row does not parse."""
    try:
        with warnings.catch_warnings():
            # an empty body, or a blank line under max_rows
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                              ndmin=1, usecols=usecols, max_rows=max_rows)
    except ValueError:
        return None


def _int64(text) -> int:
    """``int(text)``, raising ``OverflowError`` outside the int64 range."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise OverflowError("Python int too large to convert to C long")
    return value


def _scan(path, fh, dtype, row_error, exact) -> np.ndarray:
    """Row-by-row reading of ``path``, open as the seekable ``fh``, ints as
    int64: raise at the first bad line, or return the records.

    Rows are read as Python tuples, an int too wide for int64 failing as it is
    read, and made into records ``_SCAN_ROWS`` at a time; ``row_error`` checks
    each batch as it is made. A row that does not parse, or a fault of the
    csv layer such as an oversized field, is raised once the rows held
    before it pass, so the first bad line is named and no row after it read.
    """
    kinds = [_int64 if dtype[name].kind == "i" else float for name in dtype.names]
    dtype = np.dtype([(name, np.int64 if kind is _int64 else np.float64)
                      for name, kind in zip(dtype.names, kinds)])
    chunks, rows, lines = [], [], []

    def check():
        """Make the held rows records, or raise at the first that breaks a rule."""
        rec = np.array(rows, dtype)
        if row_error is not None and row_error(rec) is not None:
            # the fewest leading rows that break a rule end in the first such row
            low, high = 0, rec.size
            while high - low > 1:
                middle = (low + high) // 2
                low, high = (low, middle) if row_error(rec[:middle]) is not None else (middle, high)
            raise SchemaError(row_error(rec[:high]), line=lines[high - 1], path=str(path))
        chunks.append(rec)
        del rows[:], lines[:]

    _header(fh)
    try:
        for line, row in enumerate(csv.reader(fh), start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                if len(row) < len(kinds) or (exact and len(row) > len(kinds)):
                    raise ValueError(f"expected {len(kinds)} fields, got {len(row)}")
                rows.append(tuple(kind(v) for kind, v in zip(kinds, row)))
            except (ValueError, OverflowError) as exc:
                check()
                raise SchemaError(str(exc), line=line, path=str(path)) from exc
            lines.append(line)
            if len(rows) == _SCAN_ROWS:
                check()
    except csv.Error:
        check()
        raise
    check()
    return np.concatenate(chunks)


def _field_table(texts) -> np.ndarray:
    """Each text then ",", encoded, as a row of bytes NUL-padded on the left."""
    fields = [f"{text},".encode() for text in texts]
    width = max(map(len, fields), default=0)
    table = np.array([field.rjust(width, b"\0") for field in fields], dtype=bytes)
    return table.view(np.uint8).reshape(len(fields), table.itemsize)


def _words(table) -> np.ndarray:
    """A byte table's rows, NUL-padded on the left to whole uint64 words."""
    words = np.zeros((len(table), -(-table.shape[1] // 8)), np.uint64)
    words.view(np.uint8)[:, words.shape[1] * 8 - table.shape[1]:] = table
    return words
