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


def build_distance_weights(coords: np.ndarray, threshold: float,
                           inverse_distance: bool = True,
                           metric: str = "euclidean") -> NetworkWeights:
    """Distance-band weights: units within ``threshold`` of each other interact.

    Raw weights are 1/distance inside the band (or 1 when
    ``inverse_distance`` is off), then each row is normalized by its sum.
    ``metric`` is "euclidean" for planar coordinates or "greatcircle" for
    (lon, lat) in degrees with haversine distances in km. ``threshold`` must
    be positive; ``inf`` links every pair. A k-d tree lists the pairs to check.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 2:
        raise InvalidArgumentError("coords must be a 2-d array with at least two rows")
    if not np.all(np.isfinite(coords)):
        raise InvalidArgumentError("coordinates must be finite")
    if not threshold > 0.0:  # also NaN
        raise InvalidArgumentError(f"distance threshold must be positive, got {threshold}")
    if metric == "euclidean":
        points, radius = coords, threshold
    elif metric == "greatcircle":  # chords between unit vectors
        lon, lat = np.radians(coords[:, 0]), np.radians(coords[:, 1])
        points = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
        radius = (2.0 * np.sin(min(threshold / (2.0 * _EARTH_RADIUS_KM), np.pi / 2))
                  + 1e-12 * max(1.0, np.abs(lon).max(), np.abs(lat).max()))
    else:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    from scipy.spatial import cKDTree  # here, so that a lattice run never loads it
    # A power of two keeps the tree's squared distances finite; the margins cover their rounding,
    # squares that underflow (the floor) and great circles' unit vectors and angles (their ulps).
    scale = 2.0 ** -max(0, int(np.frexp(np.abs(points).max())[1]) - 500)
    pairs = cKDTree(points * scale).query_pairs(max(radius * scale * (1 + 1e-9), 1e-150),
                                                output_type="ndarray").astype(np.int32)
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
    if metric == "euclidean":
        with np.errstate(over="ignore"):  # a difference or square past the doubles is inf
            dist = np.sqrt(np.sum((coords[rows] - coords[cols]) ** 2, axis=-1))
    else:
        a = (np.sin((lat[rows] - lat[cols]) / 2) ** 2
             + np.cos(lat)[rows] * np.cos(lat)[cols] * np.sin((lon[rows] - lon[cols]) / 2) ** 2)
        dist = 2.0 * _EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if np.any(dist == 0.0):
        raise InvalidArgumentError("duplicate coordinates: zero distance between distinct units")
    weight = 1.0 / dist if inverse_distance else np.ones(dist.size)
    band = (dist <= threshold) & (weight != 0.0)  # not 1/inf, which a dense matrix does not hold
    w = sp.csr_array((weight[band], (rows[band], cols[band])), shape=(len(coords),) * 2)
    return NetworkWeights(w=_row_normalize(w))


def build_quadratic_weights(weights: NetworkWeights) -> list[sp.csr_array]:
    """Quadratic-moment matrices P1 = (W + W')/2 and P2 = W'W less its
    diagonal, each exactly symmetric with a zero diagonal, no stored zeros
    and sorted indices, from scipy's own sparse sum and product.

    W's diagonal is zero, so each entry of W + W' is w_ij + w_ji, one
    commutative add. scipy's product adds an entry's terms w_ki w_kj with k
    ascending, so W'W is symmetric bit for bit. The fits turn a one-ulp
    change in P2 into a visible change of the gmm2 estimate, so a pairwise
    sum (``np.add.reduceat``), which rounds otherwise once an entry has more
    than eight terms, is no substitute for the product.
    """
    w = weights.w
    p1 = (w + w.T) * 0.5
    p2 = (w.T @ w).tocsr()  # the product is CSC with unsorted indices
    p2.data[p2.indices == np.repeat(np.arange(weights.n), np.diff(p2.indptr))] = 0.0
    for p in (p1, p2):
        p.eliminate_zeros()  # the diagonal, and an entry that halving took to zero
    return [p1, p2]
