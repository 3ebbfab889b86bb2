"""Interaction matrices W and the quadratic-moment weight matrices built from them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError

__all__ = [
    "NetworkWeights",
    "build_lattice_weights",
    "build_distance_weights",
    "build_quadratic_weights",
]

_EARTH_RADIUS_KM = 6371.0088


@dataclass
class NetworkWeights:
    """Time-invariant n x n interaction matrix with zero diagonal.

    W is held in canonical form (duplicates summed, columns sorted, no stored
    zeros), so each entry of a quadratic matrix sums at most w_ij and w_ji.

    Attributes
    ----------
    w : scipy.sparse.csr_array
        Weight matrix; ``w[i, j]`` is the influence of unit j on unit i.
    """

    w: sp.csr_array
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        w = sp.csr_array(self.w, copy=True)  # canonicalised in place below
        if w.shape[0] != w.shape[1]:
            raise InvalidArgumentError(f"weight matrix must be square, got {w.shape}")
        w.sum_duplicates()
        if not np.all(np.isfinite(w.data)):
            raise InvalidArgumentError("weight matrix entries must be finite")
        w.eliminate_zeros()
        if np.any(w.diagonal() != 0.0):
            raise InvalidArgumentError("weight matrix diagonal must be zero")
        self.w = w
        self.degrees = np.diff(w.indptr)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def row_sup(self) -> float:
        """Maximum absolute row sum, the matrix infinity norm."""
        w = self.w
        if w.nnz == 0:
            return 0.0
        # the row sums of ``abs(w).sum(axis=1)``, from the same reduceat over w's rows
        starts = w.indptr[:-1][np.diff(w.indptr) > 0]
        return float(np.max(np.add.reduceat(np.abs(w.data), starts)))

    def dense(self) -> np.ndarray:
        return self.w.toarray()


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _row_normalize(w: sp.csr_array) -> sp.csr_array:
    """Divide each row by its absolute sum; all-zero rows are left as is."""
    sums = np.asarray(np.abs(w).sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.csr_array(sp.diags_array(scale) @ w)


def build_lattice_weights(n: int, rng_seed) -> NetworkWeights:
    """Random lattice design: n units on a side x side integer lattice.

    The side is the nearest integer to sqrt(2 n); units occupy distinct
    cells chosen uniformly at random, and two units are linked when their
    Euclidean distance is exactly 1. Row i holds 1/degree(i) at each of its
    neighbours, so rows are normalized: the matrix infinity norm is at most
    one and isolated units keep zero rows.
    """
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 units, got {n}")
    side = _round_half_up(np.sqrt(2.0 * n))
    if n > side * side:
        raise InvalidArgumentError(f"{n} units exceed the {side}x{side} lattice capacity")
    cells = np.random.default_rng(rng_seed).choice(side * side, size=n, replace=False)
    # unit id of every lattice cell, -1 for empty cells and the padding border
    unit_at = np.full((side + 2, side + 2), -1)
    r, c = cells // side + 1, cells % side + 1
    unit_at[r, c] = np.arange(n)
    # each unit's neighbour ids in increasing order, the empty slots (-1) first
    around = np.sort(np.column_stack([unit_at[r - 1, c], unit_at[r + 1, c],
                                      unit_at[r, c - 1], unit_at[r, c + 1]]), axis=1)
    linked = around >= 0
    if not linked.any():  # every unit isolated: scipy's empty matrix, int32 indices
        return NetworkWeights(w=sp.csr_array((n, n)))
    degree = linked.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    data = np.repeat(1.0 / np.maximum(degree, 1), degree)
    return NetworkWeights(w=sp.csr_array((data, around[linked], indptr), shape=(n, n)))


def _great_circle_distances(coords: np.ndarray) -> np.ndarray:
    """Pairwise great-circle distances in km for (lon, lat) rows in degrees."""
    lon = np.radians(coords[:, 0])
    lat = np.radians(coords[:, 1])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    a = np.sin(dlat / 2) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2) ** 2
    return 2.0 * _EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def build_distance_weights(coords: np.ndarray, threshold: float,
                           inverse_distance: bool = True,
                           metric: str = "euclidean") -> NetworkWeights:
    """Distance-band weights: units within ``threshold`` of each other interact.

    Raw weights are 1/distance inside the band (or 1 when
    ``inverse_distance`` is off), then each row is normalized by its sum.
    ``metric`` is "euclidean" for planar coordinates or "greatcircle" for
    (lon, lat) in degrees with distances in km. ``threshold`` must be
    positive; ``inf`` links every pair.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 2:
        raise InvalidArgumentError("coords must be a 2-d array with at least two rows")
    if not np.all(np.isfinite(coords)):
        raise InvalidArgumentError("coordinates must be finite")
    if not threshold > 0.0:  # also NaN
        raise InvalidArgumentError(f"distance threshold must be positive, got {threshold}")
    if metric == "euclidean":
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
    elif metric == "greatcircle":
        dist = _great_circle_distances(coords)
    else:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    n = coords.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(dist[off_diag] == 0.0):
        raise InvalidArgumentError("duplicate coordinates: zero distance between distinct units")
    band = (dist <= threshold) & off_diag
    raw = np.zeros((n, n))
    if inverse_distance:
        raw[band] = 1.0 / dist[band]
    else:
        raw[band] = 1.0
    return NetworkWeights(w=_row_normalize(sp.csr_array(raw)))


# W'W's entries are summed from a listing of their terms w_ki w_kj (there are
# sum_k degree_k^2 of them) up to this many; beyond it scipy's sparse product,
# which sums in the same order without holding the terms, is faster, and a
# dense W would list n^3 terms
_LISTED_TERMS = 4096


def _summed(keys: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the sum of each key's terms, added one by one
    in listing order from 0.0 (``np.bincount`` does not sum pairwise)."""
    union, inverse = np.unique(keys, return_inverse=True)
    return union, np.bincount(inverse, weights=terms, minlength=union.size)


def _gram_listed(w: sp.csr_array, rows: np.ndarray, cols: np.ndarray):
    """Sorted keys i * n + j and sums m_ij of W'W's off-diagonal entries, from
    a listing of the terms w_ki w_kj with k ascending within each entry."""
    by_col = np.argsort(cols, kind="stable")  # k ascending within each column i
    i, k = cols[by_col], rows[by_col]
    count = np.diff(w.indptr)[k]  # terms per (i, k): the degree of row k
    entry = np.repeat(np.arange(k.size), count)
    first = np.cumsum(count) - count
    pos = np.repeat(w.indptr[k] - first, count) + np.arange(entry.size)  # w_kj's slot
    i, j = i[entry], cols[pos]
    off = i != j
    return _summed((i * w.shape[0] + j)[off], (w.data[by_col][entry] * w.data[pos])[off])


def _gram_product(w: sp.csr_array):
    """The same from scipy's sparse product W'W. Its compressed arrays are
    those of a bitwise symmetric matrix, so they read as CSR arrays whichever
    format it returns; the columns of a row come unsorted."""
    m = w.T @ w
    n = w.shape[0]
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    off = rows != m.indices
    keys = (rows * n + m.indices)[off]
    order = np.argsort(keys)
    return keys[order], m.data[off][order]


def _csr_from_sorted(keys: np.ndarray, data: np.ndarray, n: int, dtype) -> sp.csr_array:
    """csr_array of the nonzero ``data`` at sorted keys row * n + col, indexed in ``dtype``."""
    keep = data != 0.0
    keys = keys[keep]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(dtype)
    return sp.csr_array((data[keep], (keys % n).astype(dtype), indptr), shape=(n, n))


@np.errstate(over="ignore", invalid="ignore")  # W'W may overflow, as scipy's product does
def build_quadratic_weights(weights: NetworkWeights) -> list[sp.csr_array]:
    """Quadratic-moment matrices P1 = (W + W')/2 and P2 = W'W less its
    diagonal, each exactly symmetric with a zero diagonal, no stored zeros
    and W's index dtype.

    Both are built from W's CSR arrays, each entry's terms added one by one
    in a fixed order. A P1 entry adds w_ij and w_ji and halves the sum. A P2
    entry m_ij adds w_ki w_kj with k ascending: listed and summed by
    ``np.bincount`` for a W with few terms (``_LISTED_TERMS``), by scipy's
    sparse product W'W otherwise, which sums in that same order. So m_ij and
    m_ji are the same bits, and the entry (m_ij + m_ji) / 2 is
    (m + m) * 0.5, which overflows where that sum does. The order is kept
    because the fits turn a one-ulp change in P2 into a visible change of
    the gmm2 estimate: a pairwise sum (``np.add.reduceat``) rounds otherwise
    once an entry has more than eight terms.
    """
    w = weights.w
    n = w.shape[0]
    degrees = np.diff(w.indptr).astype(np.int64)
    rows = np.repeat(np.arange(n), degrees)
    cols = w.indices.astype(np.int64)
    keys, sums = _summed(np.concatenate([rows * n + cols, cols * n + rows]),
                         np.concatenate([w.data, w.data]))
    p1 = _csr_from_sorted(keys, sums * 0.5, n, w.indices.dtype)
    keys, sums = (_gram_listed(w, rows, cols) if degrees @ degrees <= _LISTED_TERMS
                  else _gram_product(w))
    gram_dtype = w.indices.dtype if w.nnz else np.int32  # scipy's empty product
    return [p1, _csr_from_sorted(keys, (sums + sums) * 0.5, n, gram_dtype)]
