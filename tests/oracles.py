"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (quadratic scans, union-find, the
textbook cubic assignment algorithm) so that agreement with the fast paths
in the package is meaningful.
"""

import numpy as np
from scipy.spatial import cKDTree

from ocd import NoFeasibleEpsilon, build_index, cluster_count_csr, neighbor_csr


def brute_ball(points, query_row, epsilon):
    """Closed-ball neighbors by scanning every pairwise distance."""
    pts = np.asarray(points, dtype=np.float64)
    d = np.linalg.norm(pts - pts[query_row], axis=1)
    return sorted(np.nonzero(d <= epsilon)[0].tolist())


def neighbor_csr_lexsort(points, epsilon):
    """Strict upper triangle U (indptr, cols) by one lexsort over the pairs.

    Every tree pair i < j once, as int32 keys ordered by (row, col): the
    direct construction, with no sparse-matrix conversion to sort rows.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if np.isfinite(epsilon):
        pairs = cKDTree(pts).query_pairs(r=float(epsilon), output_type="ndarray")
        rows, cols = pairs[:, 0], pairs[:, 1]
    else:
        rows, cols = np.triu_indices(n, k=1)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.lexsort((cols, rows))
    return indptr, cols[order].astype(np.int32)


def closed_ball_csr(indptr, cols):
    """Closed-ball CSR of an upper triangle U: the rows of U + U.T + I.

    Row i lists i and every j paired with i in either orientation,
    ascending, so it equals brute_ball(points, i, epsilon).
    """
    n = indptr.shape[0] - 1
    own = np.arange(n)
    upper_rows = np.repeat(own, np.diff(indptr))
    rows = np.concatenate([upper_rows, cols, own])
    ball = np.concatenate([cols, upper_rows, own])
    order = np.lexsort((ball, rows))
    ball_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ball_indptr[1:])
    return ball_indptr, ball[order]


def linear_estimate_loop(pos, grad, indptr, cols, epsilon_hat):
    """Per-cluster ridge regression of grad on pos, one cluster at a time.

    For each row: the cluster means, the population-normalized centred
    outer products, the ridge, the scaled fallback ridge when the system is
    not positive definite or its condition number exceeds 1e12, and
    np.linalg.solve.
    """
    n, dim = pos.shape
    eye = np.eye(dim)
    est = np.empty_like(grad)
    for i in range(n):
        members = cols[indptr[i]:indptr[i + 1]]
        p, g = pos[members], grad[members]
        m_p, m_g = p.mean(axis=0), g.mean(axis=0)
        dp, dg = p - m_p, g - m_g
        s_pp = dp.T @ dp / len(members)
        s_pg = dp.T @ dg / len(members)
        system = s_pp + epsilon_hat * eye
        eig = np.linalg.eigvalsh(system)
        if not (eig[0] > 0 and eig[-1] / eig[0] <= 1e12):
            system = system + (1e-8 * np.trace(s_pp) / dim + 1e-12) * eye
        z = np.linalg.solve(system, pos[i] - m_p)
        est[i] = m_g + s_pg.T @ z
    return est


def constant_estimate_l2_loop(x, y, csr_x, csr_y):
    """L2 cluster-average estimates (k_x, k_y), one row at a time.

    k_x[i] = 2 (X_i - mean of Y_j over the X-cluster of i), read directly
    from the rows of the CSR arrays; k_y likewise with the roles swapped.
    """
    k_x, k_y = np.empty_like(x), np.empty_like(y)
    for own, partner, (indptr, cols), k in ((x, y, csr_x, k_x), (y, x, csr_y, k_y)):
        for i in range(own.shape[0]):
            k[i] = 2.0 * (own[i] - partner[cols[indptr[i]:indptr[i + 1]]].mean(axis=0))
    return k_x, k_y


def brute_clusters(points, epsilon):
    """Connected components of the epsilon graph via union-find.

    Returns (count, labels) with labels numbered by each component's
    smallest member, matching the package convention.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        d = np.linalg.norm(pts - pts[i], axis=1)
        for j in np.nonzero(d <= epsilon)[0]:
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    roots = [find(i) for i in range(n)]
    order = {}
    for r in roots:
        if r not in order:
            order[r] = len(order)
    labels = np.array([order[r] for r in roots], dtype=np.int64)
    return len(order), labels


def epsilon_max_scan(points, beta, grid):
    """The beta-rule by one neighbor graph per grid point.

    Ascending scan that labels the components of the epsilon graph at each
    grid point and stops at the first whose cluster/particle ratio is not
    above beta.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    index = build_index(pts)
    best = None
    for eps in [float(g) for g in grid]:
        indptr, cols = neighbor_csr(index, eps)
        n_clusters, _ = cluster_count_csr(indptr, cols)
        if n_clusters / n > beta:
            best = eps
        else:
            break
    if best is None:
        raise NoFeasibleEpsilon(
            f"no grid epsilon keeps n_clusters/n_particles above beta={beta}"
        )
    return best


def next_count_change(points, epsilon):
    """A radius just past the first count change above epsilon, or None.

    Kruskal's scan over every pair, sorted by distance, finds the nearest
    pair farther than epsilon that joins two clusters of the epsilon graph.
    The radius lies halfway from its distance to the next larger pair
    distance (twice its distance when none is larger), so the graph there
    holds every pair tied with it and none farther.  None when no pair
    farther than epsilon joins two clusters.  Squared lengths are summed in
    column order and compared with epsilon**2, as the KD-tree rounds them.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    squared = sum((pts[ii, c] - pts[jj, c]) ** 2 for c in range(pts.shape[1]))
    dist = np.sqrt(squared)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in np.argsort(dist, kind="stable"):
        ri, rj = find(int(ii[p])), find(int(jj[p]))
        if ri == rj:
            continue
        if squared[p] > epsilon * epsilon:
            farther = dist[dist > dist[p]]
            return (dist[p] + farther.min()) / 2 if farther.size else 2 * dist[p]
        parent[max(ri, rj)] = min(ri, rj)
    return None


def hungarian_min_cost(cost_matrix):
    """O(n^3) Hungarian algorithm (potentials form), row -> column.

    Classic shortest-augmenting-path formulation with dual potentials u, v;
    independent of any library solver.
    """
    a = np.asarray(cost_matrix, dtype=np.float64)
    n = a.shape[0]
    assert a.shape == (n, n)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return assignment


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function on R^n."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = h
        g[a] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def two_particle_closed_form(x0, y0, t):
    """Exact flow of the two-particle quadratic-cost system with a global
    cluster (epsilon = inf).

    With the cluster mean subtracted, u = X1 - X2 and w = Y1 - Y2 obey
    du/dt = 2w, dw/dt = 2u componentwise, so the solution is a cosh/sinh
    rotation; the means of X and Y are constants of motion.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    assert x0.shape[0] == 2 and y0.shape[0] == 2
    mx = x0.mean(axis=0)
    my = y0.mean(axis=0)
    u0 = x0[0] - x0[1]
    w0 = y0[0] - y0[1]
    ch, sh = np.cosh(2.0 * t), np.sinh(2.0 * t)
    u = u0 * ch + w0 * sh
    w = w0 * ch + u0 * sh
    x = np.stack([mx + 0.5 * u, mx - 0.5 * u])
    y = np.stack([my + 0.5 * w, my - 0.5 * w])
    return x, y
