"""Brute-force moment/Jacobian oracle that materializes the lag operator.

Builds the one-period difference matrix D from its elementwise definition,
stacks outcomes/instruments/regressors as dense period-major matrices, and
evaluates the moment vector and its Jacobian by plain matrix algebra. Kept
deliberately naive; the streaming implementation must match it exactly.

``materialised_design`` keeps the moment design as it was built when it held
its instrument and regressor rows at every point; the factored design must
match it bit for bit. ``stacked_s_z``, ``residual_scores_with_temporaries``
and ``fixed_effects_with_temporaries`` keep the one-shot expressions that the
chunked and in-place forms must match bit for bit.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from fnar.interaction import network_lag


def difference_matrix(n: int, T: int) -> np.ndarray:
    """D with d_ij = -1 if i == j, +1 if j == n + i, else 0."""
    d = np.zeros((n * (T - 1), n * T))
    for i in range(n * (T - 1)):
        d[i, i] = -1.0
        d[i, n + i] = 1.0
    return d


def _bracket(grid, s):
    nodes = grid.points
    g0 = int(np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 2))
    lam = float(np.clip((s - nodes[g0]) / (nodes[g0 + 1] - nodes[g0]), 0.0, 1.0))
    return g0, g0 + 1, lam


def stacked_matrices(panel, spec, s):
    """Period-major stacks Y(s), Z(s), H(s) at one moment point.

    H and Y interpolate grid-node values (the estimator's convention);
    Z uses the basis evaluated exactly at s.
    """
    n, T = panel.n, panel.T
    K = spec.basis.size
    grid = panel.quad
    ybar = network_lag(spec.weights, panel.y)
    ay = spec.operator.apply_grid(ybar)  # (n, T, G)
    phi_nodes = spec.basis.values_on_grid
    g0, g1, lam = _bracket(grid, s)

    y_stack = np.zeros(n * T)
    h_stack = np.zeros((n * T, (1 + panel.d_x) * K))
    from fnar.estimator import build_instruments

    b = build_instruments(panel, spec)
    phi_exact = spec.basis.eval(s)
    z_stack = np.zeros((n * T, b.shape[2] * K))
    for t in range(T):
        for i in range(n):
            row = t * n + i
            y_stack[row] = (1 - lam) * panel.y[i, t, g0] + lam * panel.y[i, t, g1]
            for weight, g in ((1 - lam, g0), (lam, g1)):
                r_vec = np.concatenate([[ay[i, t, g]], panel.x[i, t]])
                h_stack[row] += weight * np.kron(r_vec, phi_nodes[g])
            z_stack[row] = np.kron(b[i, t], phi_exact)
    return y_stack, z_stack, h_stack


def dense_moments(panel, spec, theta):
    """(L, d_g) moment stack computed through the materialized D."""
    n, T = panel.n, panel.T
    d = difference_matrix(n, T)
    big_p = [np.kron(np.eye(T - 1), mat.toarray()) for mat in spec.quad_mats]
    scale = 1.0 / (n * (T - 1))
    out = []
    for s in spec.points:
        y, z, h = stacked_matrices(panel, spec, s)
        e = y - h @ theta
        lin = z.T @ d.T @ d @ e
        quad = [e @ d.T @ p @ d @ e for p in big_p]
        out.append(scale * np.concatenate([lin, quad]))
    return np.array(out)


def dense_jacobian(panel, spec, theta):
    """(L, d_g, d_theta) Jacobian stack through the materialized D."""
    n, T = panel.n, panel.T
    d = difference_matrix(n, T)
    big_p = [np.kron(np.eye(T - 1), mat.toarray()) for mat in spec.quad_mats]
    scale = 1.0 / (n * (T - 1))
    out = []
    for s in spec.points:
        y, z, h = stacked_matrices(panel, spec, s)
        e = y - h @ theta
        lin = z.T @ d.T @ d @ h
        quad = [2.0 * e @ d.T @ p @ d @ h for p in big_p]
        out.append(-scale * np.vstack([lin, quad]))
    return np.array(out)


def dense_quad_block(de, quad_mats):
    """Quadratic-moment variance block before scaling, from dense n x n products.

    ``de`` is the (L, T-1, n) stack of differenced residuals. Every period
    gets the full matrix C_t = sum_l de[l, t]' de[l, t]; the block sums
    P_a * P_b * C_t * C_t' over all (i, j) and the one-period band of (t, t').
    """
    periods = de.shape[1]
    c_mats = [de[:, t, :].T @ de[:, t, :] for t in range(periods)]
    dense_p = [mat.toarray() for mat in quad_mats]
    out = np.zeros((len(quad_mats), len(quad_mats)))
    for t in range(periods):
        for t2 in (t - 1, t, t + 1):
            if 0 <= t2 < periods:
                cc = c_mats[t] * c_mats[t2]
                for a, pa in enumerate(dense_p):
                    for b, pb in enumerate(dense_p):
                        out[a, b] += np.sum(pa * pb * cc)
    return 2.0 * out


def fancy_index_quad_variance(de, quad_mats):
    """The quadratic variance block as it was summed before the keyed union
    pattern: the pattern from the nonzeros of a sum of absolute values, each
    matrix's values from a fancy index. Returns (rows, cols, pv, block)."""
    n, M = de.shape[2], len(quad_mats)
    rows, cols = sum((abs(p) for p in quad_mats), sp.csr_array((n, n))).nonzero()
    if rows.size == 0:  # an empty fancy index would return a sparse array
        return rows, cols, np.zeros((M, 0)), np.zeros((M, M))
    pv = np.array([p[rows, cols] for p in quad_mats])  # (M, nnz)
    c = np.einsum("ltk,ltk->tk", de[:, :, rows], de[:, :, cols])  # (T-1, nnz)
    s = np.einsum("tk,tk->k", c, c) + 2.0 * np.einsum("tk,tk->k", c[:-1], c[1:])
    return rows, cols, pv, 2.0 * (pv * s) @ pv.T


def dense_variance(panel, spec, fit):
    """Unclipped sandwich covariance through the materialized D and dense stacks.

    Residuals, instruments and Jacobian rows come from ``stacked_matrices``
    and the difference matrix; the quadratic block from ``dense_quad_block``.
    """
    n, T = panel.n, panel.T
    L = spec.n_points
    d = difference_matrix(n, T)
    big_p = [np.kron(np.eye(T - 1), mat.toarray()) for mat in spec.quad_mats]
    norm = 1.0 / (n * (T - 1))
    de_all, u, jac = [], 0.0, 0.0
    for s in spec.points:
        y, z, h = stacked_matrices(panel, spec, s)
        de = d @ (y - h @ fit.theta)
        de_all.append(de.reshape(T - 1, n))
        u = u + ((d @ z) * de[:, None]).reshape(T - 1, n, -1)
        rows = [z.T @ d.T @ d @ h] + [2.0 * de @ p @ d @ h for p in big_p]
        jac = jac - norm * np.vstack(rows) / L
    scale = 1.0 / (L * L * n * (T - 1))
    d_z = u.shape[2]
    v_hat = np.zeros((d_z, d_z))
    for t in range(T - 1):
        for t2 in (t - 1, t, t + 1):
            if 0 <= t2 < T - 1:
                v_hat += scale * u[t].T @ u[t2]
    if fit.method != "2sls":
        v_hat = block_diag(v_hat, scale * dense_quad_block(np.array(de_all), spec.quad_mats))
    else:
        jac = jac[:d_z]
    bread_inv = np.linalg.inv(jac.T @ fit.omega @ jac)
    sigma = bread_inv @ jac.T @ fit.omega @ v_hat @ fit.omega @ jac @ bread_inv
    return 0.5 * (sigma + sigma.T)


def materialised_design(panel, spec):
    """Moment aggregates from instrument and regressor rows held at every point.

    The moment design as it was built before it kept only its factors:
    differences at all grid nodes, then the full (L, T-1, n, .) row arrays
    ``dz``, ``dh`` and ``dy``, summed by the same einsums. Returns those three
    arrays, ``s_z`` and the ``per_point`` and ``mean`` aggregates.
    """
    from fnar.basis import interp_nodes
    from fnar.estimator import _Aggregates, build_instruments

    n, T, d_x = panel.n, panel.T, panel.d_x
    K = spec.basis.size
    b_rows = build_instruments(panel, spec)
    d_theta, d_z = (1 + d_x) * K, b_rows.shape[2] * K
    points = spec.points
    L = points.size
    n_obs = n * (T - 1)

    ay_grid = spec.operator.apply_grid(network_lag(spec.weights, panel.y))
    phi = spec.basis.eval_many(points)
    phi_nodes = spec.basis.values_on_grid
    d_ay = np.swapaxes(ay_grid[:, 1:] - ay_grid[:, :-1], 0, 1)
    d_y_nodes = np.swapaxes(panel.y[:, 1:] - panel.y[:, :-1], 0, 1)
    d_x_arr = np.swapaxes(panel.x[:, 1:] - panel.x[:, :-1], 0, 1)

    dz = np.empty((L, T - 1, n, d_z))
    dh = np.empty((L, T - 1, n, d_theta))
    dy = np.empty((L, T - 1, n))
    db = np.swapaxes(b_rows[:, 1:] - b_rows[:, :-1], 0, 1)
    for l, (g0, lam) in enumerate(zip(*interp_nodes(panel.quad, points))):
        g1 = g0 + 1
        dy[l] = (1.0 - lam) * d_y_nodes[..., g0] + lam * d_y_nodes[..., g1]
        h_parts = []
        for weight, g in (((1.0 - lam), g0), (lam, g1)):
            dr = np.concatenate([d_ay[..., g][..., None], d_x_arr], axis=2)
            h_parts.append(weight * np.einsum("tnr,k->tnrk", dr, phi_nodes[g]))
        dh[l] = (h_parts[0] + h_parts[1]).reshape(T - 1, n, d_theta)
        dz[l] = np.einsum("tnb,k->tnbk", db, phi[l]).reshape(T - 1, n, d_z)

    norm = 1.0 / n_obs
    zf = dz.reshape(L, n_obs, d_z)
    hf = dh.reshape(L, n_obs, d_theta)
    yf = dy.reshape(L, n_obs)
    s_z = norm * np.einsum("lnz,lnt->zt", zf, zf) / L

    M = len(spec.quad_mats)
    c = np.zeros((L, M))
    b = np.zeros((L, M, d_theta))
    C = np.zeros((L, M, d_theta, d_theta))
    for m, p in enumerate(spec.quad_mats):
        for l in range(L):
            py = np.stack([p @ dy[l, t] for t in range(T - 1)])
            ph = np.stack([p @ dh[l, t] for t in range(T - 1)])
            c[l, m] = norm * np.sum(dy[l] * py)
            b[l, m] = norm * np.einsum("tnk,tn->k", dh[l], py)
            C[l, m] = norm * np.einsum("tnk,tnj->kj", dh[l], ph)

    per_point = _Aggregates(a=norm * np.einsum("lnz,ln->lz", zf, yf),
                            A=norm * np.einsum("lnz,lnt->lzt", zf, hf), c=c, b=b, C=C)
    mean = _Aggregates(*(part.mean(axis=0) for part in per_point))
    return {"dz": dz, "dh": dh, "dy": dy, "s_z": s_z, "per_point": per_point, "mean": mean}


def materialised_residual_scores(rows, theta):
    """Differenced residuals and instrument scores from the full row arrays."""
    de = rows["dy"] - np.einsum("ltnk,k->ltn", rows["dh"], theta)
    return de, np.einsum("ltnz,ltn->tnz", rows["dz"], de)


def fixed_effects_formula(fit, panel, ay):
    """Per-unit means of y - alpha ay - x beta on the grid, with temporaries."""
    s = panel.quad.points
    alpha_grid = fit.alpha(s)
    beta_grid = np.stack([fit.beta(j, s) for j in range(fit.d_x)])
    resid = panel.y - alpha_grid[None, None, :] * ay - np.einsum(
        "ntj,jg->ntg", panel.x, beta_grid
    )
    return resid.mean(axis=1)


def stacked_s_z(panel, spec):
    """The instrument second moment from the (L, n(T-1), d_z) stack of every
    point's instrument rows, summed by one einsum."""
    from fnar.estimator import _period_differences, build_instruments

    db = _period_differences(build_instruments(panel, spec))
    phi = spec.basis.eval_many(spec.points)
    L, K = phi.shape
    n_obs = db.shape[0] * db.shape[1]
    zf = np.empty((L, n_obs, db.shape[2] * K))
    np.einsum("m,lk->lmk", db.reshape(-1), phi, out=zf.reshape(L, -1, K))
    return 1.0 / n_obs * np.einsum("lnz,lnt->zt", zf, zf) / L


def residual_scores_with_temporaries(design, theta):
    """``_Design.residual_scores`` with a new array for every partial result."""
    coef = theta.reshape(-1, design._phi.shape[1])
    phi_nodes = design.spec.basis.values_on_grid
    fitted = 0.0
    for weight, node, g in ((1.0 - design._lam, design._col, design._g0),
                            (design._lam, design._col + 1, design._g0 + 1)):
        c = phi_nodes[g] @ coef.T
        fitted = fitted + weight * (design._d_ay[..., node] * c[:, 0] + design._d_x @ c[:, 1:].T)
    de = np.subtract(design.dy, np.moveaxis(fitted, -1, 0), order="C")
    u = design._db[..., :, None] * np.einsum("lk,ltn->tnk", design._phi, de)[..., None, :]
    return de, u.reshape(*u.shape[:2], design.d_z)


def fixed_effects_with_temporaries(fit, panel):
    """``estimate_fixed_effects`` with a new array for every partial result."""
    spec, points = fit.spec, panel.quad.points
    y_bar = panel.y.mean(axis=1)
    ay_bar = spec.operator.apply_grid(network_lag(spec.weights, y_bar))
    beta_grid = np.stack([fit.beta(j, points) for j in range(fit.d_x)])
    return y_bar - fit.alpha(points) * ay_bar - panel.x.mean(axis=1) @ beta_grid
