"""Starting assignments for the iterative solver.

Three strategies: projecting a random Gaussian matrix onto the balanced set,
spectral clustering of the pairwise co-occurrence matrix, and controlled
corruption of a known ground truth (for experiments that need an initial
point at a prescribed distance).  All of them emit balanced assignments and
are deterministic per seed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import Assignment, Hypergraph, check_divides, seeded_rng
from .projection import project_balanced

__all__ = [
    "random_init",
    "spectral_init",
    "corrupt",
    "similarity_matrix",
    "EigensolverError",
]

class EigensolverError(RuntimeError):
    """Raised when the Chebyshev-filtered subspace iteration reaches its
    product cap before its tolerance.

    Carries ``iterations``, the number of products with the operator taken
    (the cap), the final residual, and the top-K Ritz basis reached at the
    cap (``best_basis``).
    """

    def __init__(self, iterations, residual, tol, best_basis=None):
        super().__init__(
            f"eigensolver did not converge: residual {residual:.3e} > tol {tol:.1e} "
            f"after {iterations} products"
        )
        self.iterations = iterations
        self.residual = residual
        self.best_basis = best_basis


def random_init(n: int, K: int, seed: int) -> Assignment:
    """Balanced projection of an n x K matrix of independent standard normals."""
    check_divides(n, K)
    rng = seeded_rng(seed)
    return project_balanced(rng.standard_normal((n, K)))


def similarity_matrix(g: Hypergraph) -> np.ndarray:
    """W[i, j] = number of hyperedges containing both i and j; zero diagonal.

    The int64 reference for the co-occurrence matrix.  ``spectral_init``
    does not call it: it builds its shifted float64 operator straight from
    the edge list (``_spectral_operator``).
    """
    W = np.zeros((g.n, g.n), dtype=np.int64)
    for a in range(g.d):
        for b in range(a + 1, g.d):
            np.add.at(W, (g.edges[:, a], g.edges[:, b]), 1)
            np.add.at(W, (g.edges[:, b], g.edges[:, a]), 1)
    return W


def spectral_init(g: Hypergraph, K: int, seed: int, *, strict: bool = True) -> Assignment:
    """Cluster the rows of the top-K eigenvector matrix of the co-occurrence
    matrix with k-means, then balance the labeling by projection.

    With ``strict`` (the default) eigensolver non-convergence raises; with
    ``strict=False`` the basis reached at the iteration cap (1000 products
    with the operator) is used with a warning that names the products and
    the residual.  The latter suits grid sweeps that may cross cells whose
    K-th eigenvalue nearly ties the next, where any basis of the wobbling
    subspace is as informative as another.
    """
    check_divides(g.n, K)
    rng = seeded_rng(seed)
    M, shift = _spectral_operator(g)
    try:
        vecs = _top_eigenvectors(M, K, rng, scale=shift)
    except EigensolverError as err:
        if strict:
            raise
        warnings.warn(
            f"eigensolver hit its iteration cap after {err.iterations} products "
            f"(residual {err.residual:.3e}); using the capped basis"
        )
        vecs = err.best_basis
    labels = _kmeans(vecs, K, rng)
    rough = Assignment(labels, K)
    return project_balanced(rough.one_hot())


def corrupt(ground_truth: Assignment, swaps: int, seed: int) -> Assignment:
    """Exchange the labels of ``swaps`` disjoint cross-cluster node pairs.

    Every touched node ends up in a different cluster and no node is
    touched twice, so the unaligned Frobenius distance to the ground truth
    is exactly 2 * sqrt(swaps) while balance is preserved.  Pairs are drawn
    uniformly among the choices that keep the remaining exchanges feasible.
    """
    if not ground_truth.is_balanced:
        raise ValueError("ground truth must be balanced")
    n, K = ground_truth.n, ground_truth.K
    if swaps < 0 or 2 * swaps > n:
        raise ValueError(f"swaps={swaps} needs 2*swaps <= n={n}")
    if swaps and K == 1:
        raise ValueError("swaps need a second cluster to exchange labels with")
    rng = seeded_rng(seed)
    labels = ground_truth.labels.copy()
    untouched = list(range(n))
    for remaining in range(swaps, 0, -1):
        while True:
            i, j = rng.integers(0, len(untouched), size=2)
            a, b = untouched[int(i)], untouched[int(j)]
            if labels[a] == labels[b]:
                continue
            counts = np.bincount(labels[untouched], minlength=K)
            counts[labels[a]] -= 1
            counts[labels[b]] -= 1
            total = counts.sum()
            # r-1 more pairs need 2(r-1) nodes with no cluster majority
            if total >= 2 * (remaining - 1) and counts.max() <= total - (remaining - 1):
                break
        labels[a], labels[b] = labels[b], labels[a]
        for node in sorted((int(i), int(j)), reverse=True):
            untouched.pop(node)
    return Assignment(labels, K, balanced=True)


def _spectral_operator(g):
    """The co-occurrence matrix shifted by the maximum degree: M = W + shift*I.

    Built as float64 straight from the edge list, with one ``bincount`` over
    the keys i*n + j of every ordered member pair, so the spectral path
    holds a single n x n array.  With B the node-by-edge incidence matrix
    and D the diagonal of node degrees, W + D = B B^T is positive
    semidefinite, so W + max(degree) * I is too: the shift is the maximum
    degree, at least 1.0.  A smaller one would not do for every graph: an
    even cycle (d = 2) has lambda_min(W) = -max degree.  That makes [0, b]
    safe for the eigensolver's Chebyshev filter to damp, and the smaller the
    shift, the larger (lambda_K + shift) / (b + shift) and the faster the
    filter converges.  The entries are small integers, so M equals
    ``similarity_matrix(g) + shift*I`` exactly.
    """
    n, edges = g.n, g.edges
    degree = np.bincount(edges.ravel(), minlength=n)
    shift = max(float(degree.max(initial=0)), 1.0)
    a, b = np.nonzero(~np.eye(g.d, dtype=bool))  # every ordered member pair
    keys = (edges[:, a] * n + edges[:, b]).ravel()
    M = np.bincount(keys, weights=np.ones(keys.size), minlength=n * n)
    M = M.astype(np.float64, copy=False).reshape(n, n)  # int64 when there are no edges
    M[np.diag_indices(n)] = shift
    return M, shift


# The most products with M per outer step: the Chebyshev degree, counting
# the Rayleigh-Ritz product that the filter reuses as its first.
_FILTER_DEGREE = 8
# Block columns past K: the guard's Ritz value bounds the damped interval.
_GUARD = 1


def _top_eigenvectors(M, K, rng, tol=1e-8, max_iter=1000, scale=1.0):
    """Chebyshev-filtered subspace iteration for the top-K eigenvectors of M
    (Zhou & Saad, J. Comput. Phys. 2006).

    M must have a nonnegative spectrum (``spectral_init`` passes
    ``_spectral_operator``'s W + shift*I and the shift as ``scale``).  The
    block holds K + 1 orthonormal columns.  Each outer step is a
    Rayleigh-Ritz step on the block, then a Chebyshev polynomial of M
    applied to the block and a QR factor of the result.  The polynomial is
    at most 1 in magnitude on [0, b], with b the guard column's Ritz value,
    and grows fast above b, so a degree-m step shrinks the error by about
    T_m(2 mu_K / b - 1), where m power steps shrink it by
    (mu_K / mu_{K+1})^m.  The degree is 8, or the lowest one that this rate
    expects to reach ``tol``.  Convergence is declared when the residual
    ||M Q - Q diag(theta)||_F of the top-K Ritz pairs drops below ``tol``
    relative to ``scale``.

    ``max_iter`` caps the products with M.  A degree-m step takes m of them,
    the last for the next Rayleigh-Ritz step, and is shortened to fit the
    cap; ``EigensolverError.iterations`` reports the products taken.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    p = min(K + _GUARD, M.shape[0])
    X, _ = np.linalg.qr(rng.standard_normal((M.shape[0], p)))
    MX = M @ X
    products = 1
    while True:
        theta, V = np.linalg.eigh(X.T @ MX)
        theta, V = theta[::-1], V[:, ::-1]  # descending eigenvalue order
        X, MX = X @ V, MX @ V
        residual = float(np.linalg.norm(MX[:, :K] - X[:, :K] * theta[:K]) / scale)
        if residual <= tol:
            return X[:, :K]
        if products == max_iter:
            raise EigensolverError(products, residual, tol, best_basis=X[:, :K])
        # damp [0, b]: b is the guard's Ritz value, held below theta_K so that a
        # tie at the K-th eigenvalue still leaves T_8(2 theta_K / b - 1) >= cosh 2
        b = max(min(theta[K], (1 - _FILTER_DEGREE**-2) * theta[K - 1]), 0.0) if p > K else 0.0
        degree = min(_FILTER_DEGREE, max_iter - products)
        if b > 0:
            # the lowest degree m whose damping 1 / T_m(2 theta_K / b - 1) is
            # expected to bring the residual down to tol
            rate = math.acosh(2 * theta[K - 1] / b - 1)
            degree = min(degree, math.ceil(math.acosh(residual / tol) / rate))
        X, _ = np.linalg.qr(_chebyshev_filter(M, X, MX, degree, b, float(np.linalg.norm(MX))))
        MX = M @ X
        products += degree


def _chebyshev_filter(M, X, MX, degree, b, top):
    """p(M) X, with p the degree-``degree`` Chebyshev polynomial of [0, b]
    scaled to p(top) = 1, from MX = M @ X and ``degree - 1`` more products.

    The scaled three-term recurrence (Zhou & Saad, J. Comput. Phys. 2006)
    divides by top - b/2 and never by the half-width b/2: it stays finite
    for b = 0, where it becomes the power step (M / top)^degree X.
    ``top = ||M X||_F`` bounds every Ritz value, so top - b/2 >= top/2 > 0
    whenever M X is nonzero, and |p| <= 1 on [0, top].
    """
    c = b / 2  # the centre and the half-width of [0, b]
    u = 1.0 / (top - c)
    s1 = s = c * u  # T_{j-1} / T_j at top, j = 1
    prev, Y = X, (MX - c * X) * u
    for _ in range(degree - 1):
        s_next = s1 / (2.0 - s1 * s)
        prev, Y = Y, (M @ Y - c * Y) * (2.0 * u / (2.0 - s1 * s)) - (s * s_next) * prev
        s = s_next
    return Y


def _kmeans(X, K, rng, restarts=20, iters=100):
    """k-means with k-means++ seeding, best of ``restarts`` by objective.

    Every seeding is drawn first, in the order that running the restarts
    one after another would draw them (Lloyd's steps draw nothing), and
    Lloyd's algorithm then runs for all restarts as one batch.  A step
    labels each point with its nearest center (ties to the lowest cluster)
    and moves each center to the mean of its points, or, when it has none,
    to the point farthest from its nearest center; a restart retires once
    a step leaves its labels unchanged, or after ``iters`` steps.  The
    labels of the first restart with the least objective are returned.
    """
    n, D = X.shape
    centers = np.stack([_kmeanspp(X, K, rng) for _ in range(restarts)])
    labels = np.zeros((restarts, n), dtype=np.int64)
    active = np.arange(restarts)
    for _ in range(iters):
        A = active.size
        if A == 0:
            break
        C = centers[active]
        d2 = np.empty((K, A, n))
        for k in range(K):  # one center at a time: no (A, n, K, D) temporary
            d2[k] = ((X - C[:, k, None, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=0)
        keys = (np.arange(A)[:, None] * K + new_labels).ravel()
        counts = np.bincount(keys, minlength=A * K)
        sums = np.bincount(
            (keys[:, None] * D + np.arange(D)).ravel(),
            weights=np.broadcast_to(X, (A, n, D)).ravel(),
            minlength=A * K * D,
        ).reshape(A * K, D)
        C = C.reshape(A * K, D)
        filled = counts > 0
        C[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # resurrect an empty cluster at its restart's worst-fit point
            worst = d2.min(axis=0).argmax(axis=1)
            C[empty] = X[worst[empty // K]]
        centers[active] = C.reshape(A, K, D)
        moved = (new_labels != labels[active]).any(axis=1)
        labels[active] = new_labels
        active = active[moved]
    objective = [float(((X - c[lab]) ** 2).sum()) for c, lab in zip(centers, labels)]
    return labels[int(np.argmin(objective))]


def _kmeanspp(X, K, rng):
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = X[idx]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))
    return centers
