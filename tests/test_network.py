import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import ring_weights
from fnar.basis import build_bspline_basis, build_quadrature
from fnar.errors import InvalidArgumentError, SchemaError
from fnar.estimator import MomentSpec
from fnar.interaction import PointEval
from fnar.io import read_edge_list, write_edge_list
from fnar.network import (
    NetworkWeights,
    _row_normalize,
    build_distance_weights,
    build_lattice_weights,
    build_quadratic_weights,
)


def _find_seed(n, predicate, limit=200):
    for seed in range(limit):
        w = build_lattice_weights(n, seed)
        if predicate(w):
            return w
    raise AssertionError("no seed produced the wanted configuration")


def loop_lattice_weights(n, rng_seed):
    """The all-pairs distance loop the lattice builder used before its O(n)
    cell lookup, kept as the oracle: same cells, then O(n^2) neighbour search."""
    side = int(np.floor(np.sqrt(2.0 * n) + 0.5))
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    cells = rng.choice(side * side, size=n, replace=False)
    coords = np.column_stack([cells // side, cells % side]).astype(float)
    rows, cols = [], []
    for i in range(n):
        diff = coords - coords[i]
        neighbours = np.nonzero(diff[:, 0] ** 2 + diff[:, 1] ** 2 == 1.0)[0]
        rows.extend([i] * neighbours.size)
        cols.extend(neighbours.tolist())
    adj = sp.csr_array(
        (np.ones(len(rows)), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
        shape=(n, n),
    )
    return NetworkWeights(w=_row_normalize(adj))


def coo_lattice_weights(n, rng_seed):
    """The lattice builder before it wrote the normalised csr arrays itself,
    kept as the oracle: the same cell lookup, a COO adjacency of ones, then
    ``_row_normalize``."""
    side = int(np.floor(np.sqrt(2.0 * n) + 0.5))
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    cells = rng.choice(side * side, size=n, replace=False)
    unit_at = np.full((side + 2, side + 2), -1)
    r, c = cells // side + 1, cells % side + 1
    unit_at[r, c] = np.arange(n)
    around = np.column_stack([unit_at[r - 1, c], unit_at[r + 1, c],
                              unit_at[r, c - 1], unit_at[r, c + 1]])
    rows, k = np.nonzero(around >= 0)
    adj = sp.csr_array((np.ones(rows.size), (rows, around[rows, k])), shape=(n, n))
    return NetworkWeights(w=_row_normalize(adj))


def _symmetric_off_diagonal(m):
    """(m + m')/2 less its diagonal and zero entries, from one COO pass."""
    coo = m.tocoo()
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], coo.data[off]
    p = sp.csr_array((np.concatenate([vals, vals]),
                      (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                     shape=m.shape)
    p.data *= 0.5
    p.eliminate_zeros()
    return p


def coo_quadratic_weights(weights):
    """The quadratic-weights builder before it summed W's CSR arrays itself,
    kept as the oracle: scipy's W'W, then one COO-to-CSR pass per matrix."""
    w = weights.w
    return [_symmetric_off_diagonal(w), _symmetric_off_diagonal(w.T @ w)]


def assert_same_csr(got, want):
    """Equal index arrays and dtypes, and data equal bit for bit (int64 views)."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if name == "data":
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), name


def copying_quadratic_weights(weights):
    """The quadratic-weights builder before its one-pass COO form, kept as the
    oracle: sparse (m + m')/2, then a copy with setdiag(0) and eliminate_zeros."""
    def zero_diagonal(m):
        m = sp.csr_array(m, copy=True)
        m.setdiag(0.0)
        m.eliminate_zeros()
        return m

    w = weights.w
    return [zero_diagonal(sp.csr_array((m + m.T) * 0.5))
            for m in (w, sp.csr_array(w.T @ w))]


class TestNetworkWeights:
    @pytest.mark.parametrize("make", [
        lambda: build_lattice_weights(40, 1),
        lambda: ring_weights(5),
        lambda: build_distance_weights(np.random.default_rng(3).uniform(size=(60, 2)), 0.4),
        lambda: _signed_dense_weights(30, 8),
        lambda: NetworkWeights(w=sp.csr_array((4, 4))),
        lambda: NetworkWeights(w=sp.csr_array(np.array([[0.0, 0.0], [-2.0, 0.0]]))),
    ], ids=["lattice", "ring", "distance", "signed-dense", "empty", "one-row"])
    def test_row_sup_matches_scipy_row_sums(self, make):
        weights = make()
        want = float(np.max(np.abs(weights.w).sum(axis=1))) if weights.w.nnz else 0.0
        assert weights.row_sup == want

    def test_callers_matrix_left_as_given(self):
        # a stored zero in row 0 and a duplicated entry in row 1
        given = sp.csr_array((np.array([0.0, 0.25, 0.25]), np.array([1, 0, 0]),
                              np.array([0, 1, 3])), shape=(2, 2))
        weights = NetworkWeights(w=given)
        assert given.indptr.tolist() == [0, 1, 3]
        assert given.indices.tolist() == [1, 0, 0]
        assert given.data.tolist() == [0.0, 0.25, 0.25]
        assert weights.w.indptr.tolist() == [0, 0, 1]
        assert weights.w.data.tolist() == [0.5]


class TestLattice:
    @pytest.mark.parametrize("n", [2, 40, 401, 3200])
    @pytest.mark.parametrize("seed_kind", ["int", "generator"])
    def test_cell_lookup_matches_distance_loop(self, n, seed_kind):
        def seed():
            return 11 if seed_kind == "int" else np.random.default_rng(11)

        fast, slow = build_lattice_weights(n, seed()), loop_lattice_weights(n, seed())
        for name in ("indptr", "indices", "data"):
            got, want = getattr(fast.w, name), getattr(slow.w, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


    @pytest.mark.parametrize("n", [2, 3, 5, 40, 401, 3200])
    def test_direct_csr_matches_coo_and_normalise(self, n):
        # seeds 0..19 at n=2 include lattices with no edge at all
        for seed in range(20):
            fast, slow = build_lattice_weights(n, seed), coo_lattice_weights(n, seed)
            for name in ("indptr", "indices", "data"):
                got, want = getattr(fast.w, name), getattr(slow.w, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_adjacent_pair_is_symmetric_exchange(self):
        w = _find_seed(2, lambda w: w.w.nnz == 2)
        assert_allclose(w.dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_isolated_unit_keeps_zero_row(self):
        w = _find_seed(2, lambda w: w.w.nnz == 0)
        assert_allclose(w.dense(), np.zeros((2, 2)))
        assert w.row_sup == 0.0

    def test_row_sums_bounded_by_one(self):
        w = build_lattice_weights(40, 123)
        sums = np.asarray(np.abs(w.w).sum(axis=1)).ravel()
        assert w.row_sup <= 1.0 + 1e-15
        assert np.all((np.isclose(sums, 1.0)) | (sums == 0.0))

    def test_degree_at_most_four(self):
        for seed in range(5):
            w = build_lattice_weights(40, seed)
            assert np.max(w.degrees) <= 4

    def test_needs_two_units(self):
        with pytest.raises(InvalidArgumentError):
            build_lattice_weights(1, 0)

    def test_determinism(self):
        a = build_lattice_weights(30, 7)
        b = build_lattice_weights(30, 7)
        assert (a.w != b.w).nnz == 0


class TestDistanceWeights:
    def test_collinear_middle_unit(self):
        coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        w = build_distance_weights(coords, threshold=1.0)
        assert_allclose(w.dense()[1], [0.5, 0.0, 0.5])

    def test_zero_threshold(self):
        # distinct units are never 0 apart, so a zero band would link no pair
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="positive"):
            build_distance_weights(coords, threshold=0.0)

    @pytest.mark.parametrize("metric", ["euclidean", "greatcircle"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf])
    def test_nan_or_negative_threshold_rejected(self, metric, bad):
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="threshold must be positive"):
            build_distance_weights(coords, threshold=bad, metric=metric)

    def test_infinite_threshold_links_every_pair(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        w = build_distance_weights(coords, threshold=np.inf, inverse_distance=False)
        assert_allclose(w.dense(), (1.0 - np.eye(3)) / 2.0)

    def test_single_neighbour_normalizes_to_one(self):
        coords = np.array([[0.0, 0.0], [0.4, 0.0]])
        w = build_distance_weights(coords, threshold=1.0)
        assert_allclose(w.dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_duplicate_coordinates_rejected(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            build_distance_weights(coords, threshold=1.0)

    def test_binary_variant(self):
        coords = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.0]])
        w = build_distance_weights(coords, threshold=1.0, inverse_distance=False)
        assert_allclose(w.dense()[0], [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("metric", ["euclidean", "greatcircle"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coordinates_rejected(self, metric, bad):
        coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, bad]])
        with pytest.raises(InvalidArgumentError, match="finite"):
            build_distance_weights(coords, threshold=1.0, metric=metric)

    def test_great_circle_metric(self):
        # one degree of longitude at the equator is about 111 km
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        w = build_distance_weights(coords, threshold=120.0, metric="greatcircle")
        assert w.w.nnz == 2
        w2 = build_distance_weights(coords, threshold=100.0, metric="greatcircle")
        assert w2.w.nnz == 0


def _signed_cancelling_weights():
    # w_01 + w_10 and w_02 + w_20 cancel to 0, as do the tiny w_13 + w_31
    w = np.array([[0.0, 1.5, -2.0, 0.0], [-1.5, 0.0, 0.25, 1e-300],
                  [2.0, 0.5, 0.0, 0.0], [0.0, -1e-300, 3.0, 0.0]])
    return NetworkWeights(w=sp.csr_array(w))


def _directed_ring(n):
    return NetworkWeights(w=sp.csr_array(
        (np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n)))


class TestQuadraticWeights:
    @pytest.mark.parametrize("make", [
        lambda: build_lattice_weights(2, 0),
        lambda: build_lattice_weights(40, 1),
        lambda: build_lattice_weights(3200, 2),
        lambda: build_distance_weights(np.random.default_rng(3).uniform(size=(60, 2)), 0.2),
        lambda: build_distance_weights(np.random.default_rng(4).uniform(size=(60, 2)), 0.25,
                                       inverse_distance=False),
        lambda: ring_weights(2),
        lambda: ring_weights(7),
        lambda: _directed_ring(7),
        _signed_cancelling_weights,
    ], ids=["lattice2", "lattice40", "lattice3200", "distance", "distance-binary",
            "ring2", "ring7", "directed-ring7", "signed-cancelling"])
    def test_matches_copying_builder(self, make):
        weights = make()
        for got, want in zip(build_quadratic_weights(weights), copying_quadratic_weights(weights)):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_symmetric_matrix_unchanged(self):
        w = NetworkWeights(w=sp.csr_array(np.array([[0.0, 0.3], [0.3, 0.0]])))
        p1, _ = build_quadratic_weights(w)
        assert_allclose(p1.toarray(), w.dense())

    def test_symmetrization(self):
        w = NetworkWeights(w=sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])))
        p1, _ = build_quadratic_weights(w)
        assert_allclose(p1.toarray(), [[0.0, 0.5], [0.5, 0.0]])

    def test_two_cycle_second_matrix_vanishes(self):
        w = NetworkWeights(w=sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
        _, p2 = build_quadratic_weights(w)
        # W'W = I for the exchange matrix, so removing the diagonal empties it
        assert p2.nnz == 0

    def test_entry_halved_to_zero_is_not_stored(self):
        # the smallest subnormal halves to 0.0, which P1 must not store
        weights = NetworkWeights(w=sp.csr_array(np.array([[0.0, 5e-324], [0.0, 0.0]])))
        p1, _ = build_quadratic_weights(weights)
        assert p1.nnz == 0
        assert_same_csr(p1, coo_quadratic_weights(weights)[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_on_lattice(self, seed):
        w = build_lattice_weights(25, seed)
        for mat in build_quadratic_weights(w):
            p = mat.toarray()
            assert np.max(np.abs(p - p.T)) == 0.0
            assert np.max(np.abs(np.diag(p))) == 0.0


def copying_symmetry_check(p):
    """Whether ``p - p.T``, formed by scipy, is exactly zero: the oracle of the
    quadratic matrices' symmetry."""
    return (abs(p - p.T)).max() == 0.0


def _csr(n, rows):
    """csr_array with the given (column, value) entries per row, stored as listed:
    duplicates, unsorted columns and explicit zeros stay in place."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    data = np.array([v for r in rows for _, v in r], dtype=float)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _exactly_symmetric_zero_diagonal(mats):
    return all(copying_symmetry_check(p) and np.all(p.diagonal() == 0.0) for p in mats)


# stored layouts of W; NetworkWeights gets a copy, as it sums duplicates in place
_ULP = np.nextafter(0.3, 1.0)
_SYMMETRY_CASES = {
    "symmetric": _csr(3, [[(1, 0.3), (2, -1.0)], [(0, 0.3)], [(0, -1.0)]]),
    "one-sided": _csr(2, [[(1, 1.0)], []]),
    "one-ulp": _csr(2, [[(1, 0.3)], [(0, _ULP)]]),
    "stored-zero-one-sided": _csr(2, [[(1, 0.0)], []]),
    "stored-zero-against-value": _csr(2, [[(1, 0.0)], [(0, 1.0)]]),
    "signed-zeros": _csr(2, [[(1, 0.0)], [(0, -0.0)]]),
    "duplicates-sum-to-mirror": _csr(2, [[(1, 0.25), (1, 0.25)], [(0, 0.5)]]),
    "duplicates-cancel": _csr(2, [[(1, 1.0), (1, -1.0)], []]),
    "duplicates-summed-in-storage-order": _csr(2, [[(1, 0.1), (1, 0.2), (1, 0.3)],
                                                   [(0, 0.3), (0, 0.2), (0, 0.1)]]),
    "duplicates-same-order": _csr(2, [[(1, 0.1), (1, 0.2), (1, 0.3)],
                                      [(0, 0.1), (0, 0.2), (0, 0.3)]]),
    "unsorted-columns": _csr(3, [[(2, 0.5), (1, 0.25)], [(0, 0.25)], [(0, 0.5)]]),
    "empty": sp.csr_array((4, 4)),
    "only-stored-zeros": _csr(2, [[(1, 0.0)], [(0, 0.0)]]),
    "inf-pair": _csr(2, [[(1, np.inf)], [(0, np.inf)]]),
    "nan-pair": _csr(2, [[(1, np.nan)], [(0, np.nan)]]),
    "inf-one-sided": _csr(2, [[(1, np.inf)], []]),
    "duplicates-overflow": _csr(2, [[(1, 1e308), (1, 1e308)], [(0, np.inf)]]),
}


def _edge_list_isolated_last(tmp_path):
    dense = np.zeros((5, 5))
    dense[0, 1] = dense[1, 2] = dense[2, 0] = dense[3, 1] = 1.0
    path = tmp_path / "w.csv"
    write_edge_list(NetworkWeights(w=sp.csr_array(dense)), path)
    return read_edge_list(path)


class TestSymmetryCheck:
    """The quadratic matrices are exactly symmetric with a zero diagonal by
    construction, whatever W's stored layout; ``copying_symmetry_check`` is
    the oracle."""

    @pytest.mark.parametrize("name", list(_SYMMETRY_CASES))
    def test_matches_copying_check(self, name):
        layout = _SYMMETRY_CASES[name]
        if not np.all(np.isfinite(layout.toarray())):  # duplicates summed, as in W
            with pytest.raises(InvalidArgumentError, match="finite"):
                NetworkWeights(w=layout.copy())
            return
        weights = NetworkWeights(w=layout.copy())
        assert weights.w.has_canonical_format
        mats = build_quadratic_weights(weights)
        assert _exactly_symmetric_zero_diagonal(mats)
        dense = weights.w.toarray()
        assert np.array_equal(mats[0].toarray(), (dense + dense.T) * 0.5)

    def test_cases_cover_both_answers(self):
        # W in the table is sometimes symmetric and sometimes not, so P's
        # symmetry is not inherited from W's
        answers = {name: copying_symmetry_check(p) for name, p in _SYMMETRY_CASES.items()}
        assert answers["duplicates-sum-to-mirror"] and answers["stored-zero-one-sided"]
        assert not answers["one-ulp"] and not answers["duplicates-summed-in-storage-order"]

    @pytest.mark.parametrize("make", [
        lambda tmp: build_lattice_weights(40, 1),
        lambda tmp: build_lattice_weights(3200, 2),
        lambda tmp: build_distance_weights(np.random.default_rng(3).uniform(size=(60, 2)), 0.2),
        lambda tmp: build_distance_weights(
            np.random.default_rng(5).uniform([-10.0, 40.0], [10.0, 60.0], size=(60, 2)), 400.0,
            metric="greatcircle"),
        lambda tmp: build_distance_weights(np.random.default_rng(4).uniform(size=(60, 2)), 0.25,
                                           inverse_distance=False),
        lambda tmp: ring_weights(7),
        lambda tmp: _directed_ring(7),
        lambda tmp: _signed_cancelling_weights(),
        _edge_list_isolated_last,
    ], ids=["lattice40", "lattice3200", "distance", "distance-greatcircle", "distance-binary",
            "ring7", "directed-ring7", "signed-cancelling", "edge-list-isolated-last"])
    def test_builders_and_one_ulp_perturbations(self, make, tmp_path):
        weights = make(tmp_path)
        quad = build_quadrature(9)
        spec = MomentSpec(basis=build_bspline_basis(0, 1, quad), operator=PointEval(quad),
                          weights=weights)
        assert _exactly_symmetric_zero_diagonal(spec.quad_mats)
        for p in spec.quad_mats:
            for k in (0, p.nnz // 2, p.nnz - 1)[:p.nnz]:
                bumped = p.copy()
                bumped.data[k] = np.nextafter(bumped.data[k], np.inf)
                assert not copying_symmetry_check(bumped)
        # a spec copy with other weights builds their matrices, not the old ones
        other = NetworkWeights(w=2.0 * weights.w)
        moved = replace(spec, weights=other)
        for got, want in zip(moved.quad_mats, build_quadratic_weights(other), strict=True):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert not np.array_equal(moved.quad_mats[0].data, spec.quad_mats[0].data)

    def test_random_duplicated_matrices(self):
        rng = np.random.default_rng(11)
        answers = set()
        for _ in range(300):
            n = int(rng.integers(1, 7))
            count = int(rng.integers(0, 12))
            rows, cols = rng.integers(0, n, count), rng.integers(0, n, count)
            vals = rng.choice([0.0, -0.0, 0.1, 0.2, 0.3, -0.3, 1.0], count)
            if rng.random() < 0.5:  # mirror every entry, in a shuffled storage order
                rows, cols, vals = (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                                    np.concatenate([vals, vals]))
            off = rows != cols
            entries = [[] for _ in range(n)]
            for i in rng.permutation(np.flatnonzero(off)):
                entries[rows[i]].append((cols[i], vals[i]))
            layout = _csr(n, entries)
            answers.add(bool(copying_symmetry_check(layout)))
            weights = NetworkWeights(w=layout.copy())
            built = build_quadratic_weights(weights)
            assert _exactly_symmetric_zero_diagonal(built)
            for got, want in zip(built, coo_quadratic_weights(weights), strict=True):
                assert_same_csr(got, want)
        assert answers == {True, False}


def _signed_dense_weights(n, seed, scale=1.0):
    """Signed random W with every off-diagonal entry set, so each P2 entry sums
    n - 2 terms (the eight and more that a pairwise sum would round otherwise)."""
    w = scale * np.random.default_rng(seed).normal(size=(n, n))
    np.fill_diagonal(w, 0.0)
    return NetworkWeights(w=sp.csr_array(w))


def _edgeless_edge_list(tmp_path):
    """W read from an edge list with no edge: int64 indices, nothing stored."""
    path = tmp_path / "w.csv"
    path.write_text("i,j,weight\n3,3,0.0\n")
    return read_edge_list(path)


_CSR_BUILDER_CASES = {
    "lattice2": lambda tmp: build_lattice_weights(2, 0),
    "lattice40": lambda tmp: build_lattice_weights(40, 1),
    "lattice1600": lambda tmp: build_lattice_weights(1600, 3),
    "lattice-edgeless": lambda tmp: _find_seed(2, lambda w: w.w.nnz == 0),
    "ring2": lambda tmp: ring_weights(2),
    "ring9": lambda tmp: ring_weights(9),
    "directed-ring7": lambda tmp: _directed_ring(7),
    "signed-cancelling": lambda tmp: _signed_cancelling_weights(),
    "euclidean": lambda tmp: build_distance_weights(
        np.random.default_rng(3).uniform(size=(60, 2)), 0.2),
    "euclidean-binary": lambda tmp: build_distance_weights(
        np.random.default_rng(4).uniform(size=(60, 2)), 0.25, inverse_distance=False),
    "euclidean-inf": lambda tmp: build_distance_weights(
        np.random.default_rng(6).uniform(size=(40, 2)), np.inf),
    "greatcircle": lambda tmp: build_distance_weights(
        np.random.default_rng(5).uniform([-10.0, 40.0], [10.0, 60.0], size=(60, 2)), 400.0,
        metric="greatcircle"),
    "greatcircle-inf": lambda tmp: build_distance_weights(
        np.random.default_rng(7).uniform([-10.0, 40.0], [10.0, 60.0], size=(40, 2)), np.inf,
        metric="greatcircle"),
    "signed-dense": lambda tmp: _signed_dense_weights(30, 8),
    "signed-dense-overflowing": lambda tmp: _signed_dense_weights(12, 9, scale=1e160),
    "edge-list-isolated-last": _edge_list_isolated_last,
    "edge-list-edgeless": _edgeless_edge_list,
    "empty": lambda tmp: NetworkWeights(w=sp.csr_array((4, 4))),
}


class TestCsrQuadraticWeights:
    """``build_quadratic_weights`` takes scipy's sparse sum and product; the
    COO builder, which lists W's entries itself, is the oracle, bit for bit,
    index dtypes included. Each case runs once for P1, the symmetric part of
    W's listed entries, and once for P2, that of scipy's product W'W."""

    @pytest.mark.parametrize("k", [0, 1], ids=["listed", "product"])
    @pytest.mark.parametrize("name", list(_CSR_BUILDER_CASES))
    def test_matches_coo_builder(self, name, k, tmp_path):
        weights = _CSR_BUILDER_CASES[name](tmp_path)
        assert_same_csr(build_quadratic_weights(weights)[k], coo_quadratic_weights(weights)[k])

    def test_signed_case_sums_many_terms_an_entry(self):
        # the case where summation order shows: P2 entries of 28 signed terms
        w = _signed_dense_weights(30, 8).w
        terms = (w != 0).astype(float)
        assert (terms.T @ terms).toarray().max() >= 28

    @pytest.mark.parametrize("make,bound", [
        (lambda: build_distance_weights(np.random.default_rng(6).uniform(size=(200, 2)), np.inf),
         10 * 2**20),
        (lambda: build_lattice_weights(3200, 1), 2 * 2**20),
    ], ids=["dense200", "lattice3200"])
    def test_memory(self, make, bound):
        # 5.9 and 1.3 MiB measured; listing the dense W's 7.9 million terms
        # w_ki w_kj of W'W, as an earlier builder could, took 680 MiB
        weights = make()
        tracemalloc.start()
        try:
            build_quadratic_weights(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_product_entries_above_half_the_largest_double_stay_finite(self):
        # the one departure from the oracle, which adds m_ij and m_ji before
        # halving and so overflows where W'W does not
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = 1.2e154
        weights = NetworkWeights(w=sp.csr_array(w))
        _, p2 = build_quadratic_weights(weights)
        assert p2.data.tolist() == [1.2e154 * 1.2e154] * 2
        assert p2.data[0] > np.finfo(float).max / 2
        assert np.isinf(coo_quadratic_weights(weights)[1].data).all()

    def test_overflow_as_in_the_sparse_product(self):
        weights = _signed_dense_weights(12, 9, scale=1e160)
        with np.errstate(all="raise"):  # W'W overflows without a warning
            _, p2 = build_quadratic_weights(weights)
        assert not np.all(np.isfinite(p2.data))


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        w = build_lattice_weights(12, 3)
        path = tmp_path / "w.csv"
        write_edge_list(w, path)
        back = read_edge_list(path, n=12)
        assert (w.w != back.w).nnz == 0

    def test_round_trip_keeps_isolated_last_unit(self, tmp_path):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 0.5
        w = NetworkWeights(w=sp.csr_array(dense))
        path = tmp_path / "w.csv"
        write_edge_list(w, path)
        assert path.read_text().splitlines()[-1] == "3,3,0.0"
        back = read_edge_list(path)
        assert back.n == 4
        assert (w.w != back.w).nnz == 0

    def test_connected_last_unit_gets_no_extra_row(self, tmp_path):
        w = _find_seed(12, lambda w: w.degrees[-1] > 0)
        path = tmp_path / "w.csv"
        write_edge_list(w, path)
        assert len(path.read_text().splitlines()) == 1 + w.w.nnz

    def test_header_required(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0.5\n")
        with pytest.raises(SchemaError):
            read_edge_list(path)

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("i,j,weight\n0,1,0.5\n1,1,0.3\n")
        with pytest.raises(SchemaError) as err:
            read_edge_list(path)
        assert err.value.line == 3

    def test_weight_matrix_diagonal_enforced(self):
        with pytest.raises(InvalidArgumentError):
            NetworkWeights(w=sp.csr_array(np.array([[0.5, 0.0], [0.0, 0.0]])))
