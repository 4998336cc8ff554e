"""The spectral start's operator and its Chebyshev-filtered subspace
iteration.

The operator has two products, a dense matrix and the edge operator, and
both must equal ``similarity_matrix(g) + shift*I``: ``products`` forces the
size rule each way.

The block power loop that the solver replaced stays here as a reference
(``power_iteration``): the solver must span the same top-K eigenspace as
``eigh`` and take at most half the loop's products with the operator.
``max_iter`` counts those products, and ``CountingOperator`` counts them
in the budget tests.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hyperclust import initializers
from hyperclust.core import Hypergraph, seeded_rng
from hyperclust.initializers import (
    EigensolverError,
    _chebyshev_filter,
    _EdgeOperator,
    _spectral_operator,
    _top_eigenvectors,
    similarity_matrix,
    spectral_init,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def planted(n, d, K, n_in, n_out, seed):
    """n_in edges inside random clusters plus n_out uniform ones."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(K), n // K))
    members = [np.flatnonzero(labels == k) for k in range(K)]
    rows = [np.sort(rng.choice(members[rng.integers(K)], d, replace=False)) for _ in range(n_in)]
    rows += [np.sort(rng.choice(n, d, replace=False)) for _ in range(n_out)]
    return Hypergraph(n, d, np.unique(np.array(rows, dtype=np.int64).reshape(-1, d), axis=0))


def near_tie():
    """Four 3-uniform cliques on 24 nodes, the c-th missing c edges.

    The top four eigenvalues of M lie within 0.1% of one another (759 down
    to 758.26, over a shift of 253), so at K = 2 the filter cannot separate
    the second from the third and fourth, and the solver stops at its cap
    of 1000 products with a residual far above tol.  A uniform no-signal
    graph would not do: its trailing eigenvalues are spread enough for the
    filter to converge."""
    s = 24
    rows = [e for c in range(4) for e in list(itertools.combinations(range(c * s, (c + 1) * s), 3))[c:]]
    return Hypergraph(4 * s, 3, np.array(rows, dtype=np.int64))


def power_iteration(M, K, rng, tol=1e-8, max_iter=1000, scale=1.0):
    """The block power loop the solver replaced: one product per step, the
    same residual test relative to ``scale``, ``max_iter`` counting steps."""
    Q, _ = np.linalg.qr(rng.standard_normal((M.shape[0], K)))
    MQ = M @ Q
    for _ in range(max_iter):
        Q, _ = np.linalg.qr(MQ)
        MQ = M @ Q
        B = Q.T @ MQ
        residual = float(np.linalg.norm(MQ - Q @ B) / scale)
        if residual <= tol:
            _, V = np.linalg.eigh(B)
            return Q @ V[:, ::-1]
    raise EigensolverError(max_iter, residual, tol)


def eigenbasis(g, K, **kw):
    M, shift = _spectral_operator(g, K)
    return _top_eigenvectors(M, K, seeded_rng(7), scale=shift, **kw)


# Bases as the Chebyshev-filtered solver produces them on W + max(degree) * I.
BASIS_DIGESTS = {
    "d2": (lambda: planted(40, 2, 2, 120, 40, [91, 2]), 2, "fbc5bcdc759c85d2"),
    "d3": (lambda: planted(60, 3, 3, 150, 60, [91, 3]), 3, "e7e51a2eff624002"),
    "d4": (lambda: planted(48, 4, 4, 120, 60, [91, 4]), 4, "2efae0572605ca58"),
    "empty": (lambda: Hypergraph(12, 3, np.empty((0, 3), dtype=np.int64)), 3, "58d2c65891a43c1f"),
}


@pytest.mark.parametrize("case", sorted(BASIS_DIGESTS))
def test_bases_are_pinned(case):
    make, K, expected = BASIS_DIGESTS[case]
    assert digest(eigenbasis(make(), K).tobytes()) == expected


def test_capped_diagnostics_are_pinned():
    with pytest.raises(EigensolverError) as err:
        eigenbasis(near_tie(), 2)
    assert err.value.iterations == 1000
    assert err.value.residual.hex() == "0x1.501eddf626ba3p-14"
    assert digest(err.value.best_basis.tobytes()) == "42b37be6b9021380"


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_rejected(max_iter):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="max_iter"):
        _top_eigenvectors(np.eye(4), 2, rng, max_iter=max_iter)
    assert rng.bit_generator.state == before


class CountingOperator:
    """Wraps a matrix and counts the products taken with it."""

    def __init__(self, M):
        self.M, self.shape, self.products = M, M.shape, 0

    def __matmul__(self, Q):
        self.products += 1
        return self.M @ Q


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_tol_not_positive_rejected(tol):
    with pytest.raises(ValueError, match="tol"):
        _top_eigenvectors(np.eye(4), 2, np.random.default_rng(0), tol=tol)


@pytest.mark.parametrize("b", [0.0, 0.5, 3.0, 7.0])
@pytest.mark.parametrize("degree", [1, 2, 5, 8])
def test_filter_applies_the_scaled_chebyshev_polynomial(b, degree):
    # on a diagonal M, p(M) X scales row i by p(lambda_i), with p(x) =
    # T_m((x - b/2) / (b/2)) / T_m((top - b/2) / (b/2)), or (x / top)^m at b = 0
    lam = np.array([0.0, 0.3, 1.0, 2.5, 3.0, 5.0, 7.0, 9.0])
    M, X = np.diag(lam), np.random.default_rng(3).standard_normal((8, 3))
    MX = M @ X
    top = float(np.linalg.norm(MX))
    if b == 0:
        p = (lam / top) ** degree
    else:
        T = np.polynomial.Chebyshev.basis(degree)
        p = T((lam - b / 2) / (b / 2)) / T((top - b / 2) / (b / 2))
    op = CountingOperator(M)
    Y = _chebyshev_filter(op, X, MX, degree, b, top)
    assert op.products == degree - 1
    assert np.allclose(Y, p[:, None] * X, rtol=1e-12, atol=1e-14)


def count_products(g, K, max_iter, tol=1e-8):
    """Products taken and the error raised, None when the solver converged."""
    M, shift = _spectral_operator(g, K)
    op = CountingOperator(M)
    try:
        _top_eigenvectors(op, K, seeded_rng(7), tol=tol, max_iter=max_iter, scale=shift)
    except EigensolverError as err:
        return op.products, err
    return op.products, None


@pytest.mark.parametrize("max_iter", [1, 4, 50])
def test_capped_run_takes_max_iter_products(max_iter):
    products, err = count_products(near_tie(), 2, max_iter)
    assert products == err.iterations == max_iter


def edge_graphs():
    """Graphs where the block of K + 1 columns does not fit (n = K = 2, 3),
    graphs with isolated nodes, and empty graphs, each with its K."""
    empty = lambda n, d: Hypergraph(n, d, np.empty((0, d), dtype=np.int64))
    return [
        (Hypergraph.from_edge_list(2, 2, [(0, 1)]), 2),
        (Hypergraph.from_edge_list(3, 2, [(0, 1), (1, 2)]), 3),
        (Hypergraph.from_edge_list(3, 3, [(0, 1, 2)]), 3),
        (empty(2, 2), 2),
        (empty(3, 3), 3),
        (Hypergraph.from_edge_list(8, 2, [(0, 1)]), 2),
        (Hypergraph.from_edge_list(12, 3, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7)]), 3),
        (Hypergraph.from_edge_list(12, 4, [(0, 1, 2, 3), (2, 3, 4, 5)]), 4),
        (empty(12, 3), 4),
    ]


@pytest.mark.parametrize("max_iter", [1, 4, 50])
@pytest.mark.parametrize("tol", [1e-8, 1e-300])  # the latter runs every graph to the cap
def test_edge_cases_stay_within_max_iter(max_iter, tol):
    for g, K in edge_graphs():
        products, err = count_products(g, K, max_iter, tol)
        assert products <= max_iter
        if err is not None:
            assert products == err.iterations == max_iter
            assert np.isfinite(err.residual) and np.all(np.isfinite(err.best_basis))


def test_spectral_init_balances_edge_cases():
    for g, K in edge_graphs():
        for seed in range(3):
            h = spectral_init(g, K, seed)
            assert h.n == g.n and h.K == K and h.is_balanced


def random_graphs():
    """Three empty graphs and 60 random ones, some with isolated nodes."""
    rng = np.random.default_rng(12)
    graphs = [Hypergraph(9, d, np.empty((0, d), dtype=np.int64)) for d in (2, 3, 4)]
    for _ in range(60):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 40))
        used = int(rng.integers(d, n + 1))  # nodes >= used stay isolated
        rows = np.sort([rng.choice(used, d, replace=False) for _ in range(int(rng.integers(0, 80)))], axis=1)
        graphs.append(Hypergraph(n, d, np.unique(rows.reshape(-1, d), axis=0)))
    return graphs


def with_ratio(ratio, build, *args):
    """``build(*args)`` with the size rule's ratio set to ``ratio``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(initializers, "_DENSE_RATIO", ratio)
        return build(*args)


def products(g, K):
    """The dense matrix and the edge operator that ``_spectral_operator``
    builds for g, with its size rule forced each way, and the shift."""
    dense, shift = with_ratio(math.inf, _spectral_operator, g, K)
    edge, edge_shift = with_ratio(0, _spectral_operator, g, K)
    assert isinstance(dense, np.ndarray) and isinstance(edge, _EdgeOperator)
    assert edge_shift == shift
    return dense, edge, shift


def test_operator_is_exact():
    for g in random_graphs():
        W = similarity_matrix(g)
        dense, edge, shift = products(g, 2)
        assert shift == max(float(W.sum(axis=1).max(initial=0)) / (g.d - 1), 1.0)  # max degree
        assert dense.dtype == np.float64
        assert np.array_equal(dense, W.astype(np.float64) + shift * np.eye(g.n))
        for M in (dense, edge):
            MI = M @ np.eye(g.n)  # sums of small integers: exact in either product
            assert MI.dtype == np.float64
            assert np.array_equal(MI, W.astype(np.float64) + shift * np.eye(g.n))


def test_operator_is_positive_semidefinite():
    for g in random_graphs():
        for M in products(g, 2)[:2]:
            assert np.linalg.eigvalsh(M @ np.eye(g.n))[0] >= -1e-9


def test_edge_operator_matches_the_oracle_on_random_blocks():
    rng = np.random.default_rng(31)
    cases = [(g, 2) for g in random_graphs()] + edge_graphs()
    for g, K in cases:
        _, edge, shift = products(g, K)
        oracle = similarity_matrix(g).astype(np.float64) + shift * np.eye(g.n)
        for width in (1, K + 1, g.n):
            Q = rng.standard_normal((g.n, width))
            got, expected = edge @ Q, oracle @ Q
            assert got.shape == expected.shape
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_edge_operator_keeps_its_work_arrays():
    # a fresh p x E array per product page-faults its way in on every call
    rng = np.random.default_rng(35)
    n, d, K = 300, 4, 4
    rows = np.unique(np.sort(rng.integers(n, size=(12000, d)), axis=1), axis=0)
    rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
    M, _ = with_ratio(0, _spectral_operator, Hypergraph(n, d, rows), K)
    Q = rng.standard_normal((n, K + 1))
    first = M @ Q
    tracemalloc.start()
    try:
        again = M @ Q
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < Q.shape[1] * len(rows) * 8 / 2  # half of one p x E array


def test_size_rule_boundary():
    # n^2 = 64 (E + nK) at n = 256, K = 2 and E = 512
    n, K = 256, 2
    rng = np.random.default_rng(33)
    rows = np.unique(np.sort(rng.integers(n, size=(700, 3)), axis=1), axis=0)
    rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)][:512]
    assert len(rows) == 512 and n * n == 64 * (len(rows) + n * K)
    M, _ = _spectral_operator(Hypergraph(n, 3, rows), K)
    assert isinstance(M, np.ndarray)
    M, _ = _spectral_operator(Hypergraph(n, 3, rows[:-1]), K)
    assert isinstance(M, _EdgeOperator)


def test_shift_is_tight_on_an_even_cycle():
    # lambda_min(W) of an even cycle is -2, the negative of its maximum degree
    n = 12
    g = Hypergraph.from_edge_list(n, 2, [(i, (i + 1) % n) for i in range(n)])
    M, shift = _spectral_operator(g, 2)
    assert shift == 2.0
    assert np.linalg.eigvalsh(similarity_matrix(g).astype(np.float64))[0] == pytest.approx(-shift)
    assert abs(np.linalg.eigvalsh(M)[0]) <= 1e-9


def sin_largest_angle(V, U):
    """Sine of the largest principal angle between two orthonormal bases."""
    return np.linalg.norm(V - U @ (U.T @ V), 2)


def gapped_graphs():
    """The pinned graphs with an eigengap, and 30 random planted ones."""
    graphs = [(BASIS_DIGESTS[case][0](), BASIS_DIGESTS[case][1]) for case in ("d2", "d3", "d4")]
    for s in range(30):
        rng = np.random.default_rng([92, s])
        d, K = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        n = K * int(rng.integers(8, 20))
        graphs.append((planted(n, d, K, 6 * n, n, [92, s]), K))
    return graphs


def test_converged_basis_spans_the_top_eigenspace():
    cases = [(g, K) for g in random_graphs() for K in (1, 2, 3) if K < g.n] + gapped_graphs()
    gapped = 0
    for g, K in cases:
        w, U = np.linalg.eigh(similarity_matrix(g).astype(np.float64))
        M, shift = _spectral_operator(g, K)
        V = _top_eigenvectors(M, K, seeded_rng(7), scale=shift)  # ties converge too
        if w[-K] - w[-K - 1] > 1e-9 * shift:  # mu_K > mu_{K+1} beyond rounding
            # Davis-Kahan bounds the sine by tol * shift over the gap, and the
            # smallest gap here is about shift / 100
            assert sin_largest_angle(V, U[:, -K:]) <= 1e-6
            gapped += 1
    assert gapped >= 150


def test_max_degree_shift_takes_fewer_steps():
    make, K, _ = BASIS_DIGESTS["d4"]
    g = make()
    W = similarity_matrix(g).astype(np.float64)
    old_shift = float((g.d - 1) * np.bincount(g.edges.ravel(), minlength=g.n).max())
    old = CountingOperator(W + old_shift * np.eye(g.n))
    power_iteration(old, K, seeded_rng(7), scale=old_shift)
    M, shift = _spectral_operator(g, K)
    new = CountingOperator(M)
    power_iteration(new, K, seeded_rng(7), scale=shift)
    assert new.products <= 0.6 * old.products


# The pinned d4 graph, and one near the benchmark's spectral instance scaled
# down to n = 480: alpha = 1000 and beta = 20 give about 1840 edges inside
# the clusters and 2400 across them there.
BUDGET_GRAPHS = {
    "d4": (BASIS_DIGESTS["d4"][0], 4),
    "n480": (lambda: planted(480, 4, 4, 1840, 2400, [91, 6]), 4),
}


@pytest.mark.parametrize("case", sorted(BUDGET_GRAPHS))
def test_takes_at_most_half_the_power_loops_products(case):
    make, K = BUDGET_GRAPHS[case]
    M, shift = _spectral_operator(make(), K)
    power = CountingOperator(M)
    U = power_iteration(power, K, seeded_rng(7), scale=shift)
    filtered = CountingOperator(M)
    V = _top_eigenvectors(filtered, K, seeded_rng(7), scale=shift)
    assert filtered.products <= 0.5 * power.products
    assert sin_largest_angle(V, U) <= 1e-6


def test_spectral_init_gives_the_same_labels_with_either_product():
    for g, K in gapped_graphs():
        dense = with_ratio(math.inf, spectral_init, g, K, 5)
        edge = with_ratio(0, spectral_init, g, K, 5)
        assert dense.labels.tolist() == edge.labels.tolist()


def test_spectral_init_skips_the_int64_matrix(monkeypatch):
    g = planted(60, 3, 3, 150, 60, [91, 3])
    expected = spectral_init(g, 3, 5)

    def refuse(_):
        raise AssertionError("similarity_matrix called on the init path")

    monkeypatch.setattr(initializers, "similarity_matrix", refuse)
    assert spectral_init(g, 3, 5).labels.tolist() == expected.labels.tolist()


def test_spectral_init_peaks_below_one_and_a_half_dense_matrices():
    n = 600
    g = planted(n, 3, 3, 3000, 600, [91, 5])
    tracemalloc.start()
    try:
        spectral_init(g, 3, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_dense_product_holds_one_dense_matrix():
    # the graph above, with the size rule forced to the dense product
    n = 600
    g = planted(n, 3, 3, 3000, 600, [91, 5])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(initializers, "_DENSE_RATIO", math.inf)
        assert isinstance(_spectral_operator(g, 3)[0], np.ndarray)
        tracemalloc.start()
        try:
            spectral_init(g, 3, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert n * n * 8 <= peak < 1.5 * n * n * 8


def sized_like_the_spectral_benchmark():
    """n = 3840, d = 4, K = 4 with about 20400 edges inside the clusters and
    26200 across them, as alpha = 1000 and beta = 20 give."""
    n, d, K = 3840, 4, 4
    rng = np.random.default_rng([91, 8])
    clusters = rng.permutation(n).reshape(K, n // K)
    inside = clusters[rng.integers(K, size=(20400, 1)), rng.integers(n // K, size=(20400, d))]
    rows = np.sort(np.concatenate([inside, rng.integers(n, size=(26200, d))]), axis=1)
    return Hypergraph(n, d, np.unique(rows[(np.diff(rows, axis=1) > 0).all(axis=1)], axis=0)), K


def test_spectral_init_holds_no_dense_matrix_at_the_benchmark_size():
    g, K = sized_like_the_spectral_benchmark()
    assert 45000 < g.num_edges < 47000
    tracemalloc.start()
    try:
        h = spectral_init(g, K, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.is_balanced
    assert peak < g.n * g.n * 8 / 4


def test_capped_path_contract():
    g = near_tie()
    with pytest.warns(UserWarning, match="iteration cap"):
        h = spectral_init(g, 2, 0, strict=False)
    assert h.is_balanced
    with pytest.raises(EigensolverError) as err:
        spectral_init(g, 2, 0, strict=True)
    assert err.value.iterations == 1000  # the default cap


def test_capped_warning_reports_steps_and_residual():
    with pytest.warns(UserWarning) as caught:
        spectral_init(near_tie(), 2, 0, strict=False)
    message = str(caught[0].message)
    assert "iteration cap after 1000 products" in message
    with pytest.raises(EigensolverError) as err:
        spectral_init(near_tie(), 2, 0, strict=True)
    assert f"(residual {err.value.residual:.3e})" in message
