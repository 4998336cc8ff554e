"""Starting assignments for the iterative solver.

Three strategies: a uniformly random balanced labeling, pivoted-QR rounding
of the top eigenvectors of the pairwise co-occurrence operator, and
controlled corruption of a known ground truth (for experiments that need an
initial point at a prescribed distance).  All of them emit balanced
assignments and are deterministic per seed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import Assignment, Hypergraph, as_whole, check_divides, seeded_rng
from .projection import project_balanced

__all__ = [
    "random_init",
    "spectral_init",
    "corrupt",
    "EigensolverError",
]

class EigensolverError(RuntimeError):
    """Raised when the Chebyshev-filtered subspace iteration reaches its
    product cap before its tolerance.

    Carries ``iterations``, the number of products with the operator taken
    (the cap), the final residual, the top-K Ritz basis reached at the cap
    (``best_basis``), and ``gap``, the relative Ritz gap (theta_K -
    theta_{K+1}) / scale there, 0 without a guard column: near 0 on a cell
    with no signal, larger on one that merely converges slowly.
    """

    def __init__(self, iterations, residual, tol, best_basis=None, gap=0.0):
        super().__init__(
            f"eigensolver did not converge: residual {residual:.3e} > tol {tol:.1e} "
            f"after {iterations} products"
        )
        self.iterations = iterations
        self.residual = residual
        self.best_basis = best_basis
        self.gap = gap


def random_init(n: int, K: int, seed: int) -> Assignment:
    """A uniformly random balanced labeling: a seeded permutation of the
    block labels.  This is the law of the balanced projection of an n x K
    standard normal matrix, which is almost surely unique and commutes with
    every relabeling of the nodes, drawn in O(n) with no transport solve."""
    n, K = as_whole(n, "node count"), as_whole(K, "cluster count")
    check_divides(n, K)
    labels = seeded_rng(seed).permutation(np.repeat(np.arange(K), n // K))
    return Assignment(labels, K, balanced=True)


def similarity_matrix(g: Hypergraph) -> np.ndarray:
    """W[i, j] = number of hyperedges containing both i and j; zero diagonal.

    The int64 test oracle for ``_spectral_operator``, which never calls it.
    Not exported; it stays in the package because the benchmark traces
    this name.
    """
    W = np.zeros((g.n, g.n), dtype=np.int64)
    for a in range(g.d):
        for b in range(a + 1, g.d):
            np.add.at(W, (g.members[a], g.members[b]), 1)
            np.add.at(W, (g.members[b], g.members[a]), 1)
    return W


def spectral_init(g: Hypergraph, K: int, seed: int, *, strict: bool = True) -> Assignment:
    """Round the rows of the top-K eigenvectors of the co-occurrence operator
    (``_spectral_operator``: an n x n matrix only while n^2 <= 64 (E + nK),
    so memory is O(E + nK)) to labels by pivoted QR (``_kmeans``), then
    balance the labeling by projection.  The seed draws only the
    eigensolver's starting block.  The eigensolver stops once its top-K
    residual is at most 1e-8 of the shift or 1e-3 of the estimated eigengap
    (``_GAP_TOL``), which leaves the basis within about 1e-3 radians of the
    eigenspace: rounding gives the labels of the 1e-8 solve on graphs with
    signal in some 40% fewer products.  A looser 1e-2 would count the 0.1%
    near-tie of a no-signal cell as converged.

    With ``strict`` (the default) eigensolver non-convergence raises; with
    ``strict=False`` the basis reached at the iteration cap (1000 products
    with the operator) is used with a warning that names the products, the
    residual and the relative eigengap at the cap (near 0 on a graph with no
    signal).  The latter suits grid sweeps that may cross cells whose K-th
    eigenvalue nearly ties the next, where any basis of the wobbling
    subspace is as informative as another.
    """
    K = as_whole(K, "cluster count")
    check_divides(g.n, K)
    rng = seeded_rng(seed)
    M, shift = _spectral_operator(g, K)
    try:
        vecs = _top_eigenvectors(M, K, rng, scale=shift, gap_tol=_GAP_TOL)
    except EigensolverError as err:
        if strict:
            raise
        warnings.warn(
            f"eigensolver hit its iteration cap after {err.iterations} products "
            f"(residual {err.residual:.3e}) at relative eigengap {err.gap:.1e}; "
            "using the capped basis"
        )
        vecs = err.best_basis
    rough = Assignment(_kmeans(vecs, K), K)
    return project_balanced(rough.one_hot())


def _check_swaps(swaps, n: int, what: str = "swaps") -> int:
    """``swaps`` as an int: a whole, nonnegative count of disjoint node pairs
    among n nodes, so 2*swaps <= n.  ``corrupt`` checks its count here, and
    ``GridConfig`` a ``corrupt:<swaps>`` start's; an error names ``what``."""
    if 2 * (swaps := as_whole(swaps, what, 0)) > n:
        raise ValueError(f"{what} must be at most {n // 2} (2*swaps <= n={n}), got {swaps}")
    return swaps


def corrupt(ground_truth: Assignment, swaps: int, seed: int) -> Assignment:
    """Exchange the labels of ``swaps`` disjoint cross-cluster node pairs.

    Every touched node ends up in a different cluster and no node is
    touched twice, so the unaligned Frobenius distance to the ground truth
    is exactly 2 * sqrt(swaps) while balance is preserved.  Pairs are drawn
    uniformly among the choices that keep the remaining exchanges feasible.
    """
    if not ground_truth.balanced:
        raise ValueError("ground truth must be balanced")
    n, K = ground_truth.n, ground_truth.K
    swaps = _check_swaps(swaps, n)
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


def _spectral_operator(g, K):
    """The co-occurrence matrix shifted by the maximum degree, M = W + shift*I,
    as an operator for ``_top_eigenvectors``, and the shift.

    With B the node-by-edge incidence matrix and D the diagonal of degrees,
    W + D = B B^T is positive semidefinite, so W + max(degree) * I is too:
    the least shift, which speeds the Chebyshev filter most, that is safe
    for every graph (an even cycle, d = 2, has lambda_min(W) = -max degree),
    and at least 1.0.  While n^2 <= 64 (E + nK) M is a dense float64 matrix,
    the fastest product on small graphs: one ``bincount`` over the keys
    i*n + j of every ordered member pair, equal to ``similarity_matrix(g) +
    shift*I``.  Above that it is an ``_EdgeOperator``: O(E + nK) memory.
    """
    n, members = g.n, g.members
    degree = np.bincount(members.ravel(), minlength=n)
    shift = max(float(degree.max(initial=0)), 1.0)
    if n * n > _DENSE_RATIO * (g.num_edges + n * K):
        return _EdgeOperator(members, shift - degree), shift
    a, b = np.nonzero(~np.eye(g.d, dtype=bool))  # every ordered member pair
    keys = (members[a] * n + members[b]).ravel()
    M = np.bincount(keys, weights=np.ones(keys.size), minlength=n * n)
    M = M.astype(np.float64, copy=False).reshape(n, n)  # int64 when there are no edges
    M[np.diag_indices(n)] = shift
    return M, shift


class _EdgeOperator:
    """M @ Q = B (B^T Q) + diag(diagonal) Q from the edge list, never forming
    M.  On Q^T (p x n, contiguous) it sums the gathered columns of every
    member position into S = (B^T Q)^T (p x E), then scatters each row of S
    back with one ``bincount`` per member position.  The two p x E arrays
    are kept from one product to the next: allocated afresh, they cost a
    page fault per 4 KB, about as much as the gathers themselves.

    ``members`` is a writeable copy of the Hypergraph's read-only (d, E)
    ``members``: ``np.take`` copies a read-only index array on every call
    (373 KB per take at 46.6k edges, against 232 B for a writeable one, by
    tracemalloc), which made the spectral start slower."""

    def __init__(self, members, diagonal):
        self.shape = (diagonal.size, diagonal.size)
        self.members, self.diagonal = members.copy(), diagonal
        self._work = np.empty((2, 0, members.shape[1]))

    def __matmul__(self, Q):
        QT = np.ascontiguousarray(Q.T)
        if self._work.shape[1] != len(QT):
            self._work = np.empty((2, len(QT), self.members.shape[1]))
        S, gathered = self._work
        np.take(QT, self.members[0], axis=1, out=S, mode="clip")
        for m in self.members[1:]:
            S += np.take(QT, m, axis=1, out=gathered, mode="clip")
        n = self.shape[0]
        BS = [sum(np.bincount(m, weights=s, minlength=n) for m in self.members) for s in S]
        return np.array(BS, dtype=np.float64).T + self.diagonal[:, None] * Q


# The most products with M per outer step: the Chebyshev degree, counting
# the Rayleigh-Ritz product that the filter reuses as its first.
_FILTER_DEGREE = 8
# Block columns past K: the guard's Ritz value bounds the damped interval.
_GUARD = 1
_DENSE_RATIO = 64  # _spectral_operator is a matrix while n^2 <= 64 (E + nK)
_GAP_TOL = 1e-3  # spectral_init's eigensolver stop, relative to the eigengap


def _top_eigenvectors(M, K, rng, tol=1e-8, max_iter=1000, scale=1.0, gap_tol=None):
    """Chebyshev-filtered subspace iteration for the top-K eigenvectors of M
    (Zhou & Saad, J. Comput. Phys. 2006).

    M is a matrix, or an operator with ``shape`` and ``M @ X``, with a
    nonnegative spectrum (``spectral_init`` passes ``_spectral_operator``'s
    W + shift*I and the shift as ``scale``).  The block holds K + 1
    orthonormal columns.  Each outer step is a Rayleigh-Ritz step on the
    block, then a Chebyshev polynomial of M applied to the block and a QR
    factor of the result.  The polynomial is at most 1 in magnitude on
    [0, b], with b the guard column's Ritz value, and grows fast above b, so
    a degree-m step shrinks the error by about T_m(2 mu_K / b - 1), where m
    power steps shrink it by (mu_K / mu_{K+1})^m.  The degree is 8, or the
    lowest one that this rate expects to reach the target below.
    Convergence is declared when the residual ||M Q - Q diag(theta)||_F of
    the top-K Ritz pairs, relative to ``scale``, drops to the target: ``tol``,
    or with ``gap_tol`` the larger of ``tol`` and ``gap_tol`` times the gap
    estimate (theta_K - theta_{K+1} - ||R||_F) / scale, R the residual of
    the whole block, guard included.  By the Davis-Kahan sin-theta theorem
    (SIAM J. Numer. Anal. 7, 1970) the sine of the angle to the top-K
    eigenspace is then at most about ``gap_tol``, all that rounding the basis
    needs.  The guard's Ritz value lies at or below mu_{K+1}, so the raw
    Ritz gap overstates the true one until the guard converges; subtracting
    ||R||_F keeps the estimate low.  With no guard column (the block is all
    of R^n) or an estimate <= 0 the target is ``tol``.

    ``max_iter`` caps the products with M.  A degree-m step takes m of them,
    the last for the next Rayleigh-Ritz step, and is shortened to fit the
    cap; ``EigensolverError.iterations`` reports the products taken.
    """
    max_iter = as_whole(max_iter, "max_iter", 1)
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
        target = tol
        if gap_tol is not None and p > K:
            block = float(np.linalg.norm(MX - X * theta))
            target = max(tol, gap_tol * (theta[K - 1] - theta[K] - block) / scale)
        if residual <= target:
            return X[:, :K]
        if products == max_iter:
            gap = float(theta[K - 1] - theta[K]) / scale if p > K else 0.0
            raise EigensolverError(products, residual, tol, best_basis=X[:, :K], gap=gap)
        # damp [0, b]: b is the guard's Ritz value, held below theta_K so that a
        # tie at the K-th eigenvalue still leaves T_8(2 theta_K / b - 1) >= cosh 2
        b = max(min(theta[K], (1 - _FILTER_DEGREE**-2) * theta[K - 1]), 0.0) if p > K else 0.0
        degree = min(_FILTER_DEGREE, max_iter - products)
        if b > 0:
            # the lowest degree m whose damping 1 / T_m(2 theta_K / b - 1) is
            # expected to bring the residual down to target
            rate = math.acosh(2 * theta[K - 1] / b - 1)
            degree = min(degree, math.ceil(math.acosh(residual / target) / rate))
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


def _kmeans(X, K):
    """Labels for the n rows of an n x K eigenvector basis by column-pivoted
    QR rounding (Damle, Minden & Ying, Inf. Inference 8(1), 2019).

    It picks K rows greedily, each time the row of largest residual norm,
    projecting each pick out of every row; rotates the basis by the
    orthogonal polar factor of the picked rows; and labels each row by its
    entry of largest magnitude, ties to the lowest cluster.  X must have
    rank K, as an orthonormal basis has, so that every pick has a nonzero
    residual.  It draws no random numbers.  It is named ``_kmeans`` because
    the benchmark's tracer wraps ``initializers._kmeans`` as its
    ``initializers.kmeans`` layer.
    """
    R = X.copy()
    picks = []
    for _ in range(K):
        norms = np.einsum("ij,ij->i", R, R)
        i = int(norms.argmax())
        picks.append(i)
        q = R[i] / math.sqrt(norms[i])
        R -= np.outer(R @ q, q)
    U, _, Vt = np.linalg.svd(X[picks].T)
    return np.abs(X @ (U @ Vt)).argmax(axis=1)
