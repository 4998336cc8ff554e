"""The spectral start's operator and block power iteration."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from hyperclust import initializers
from hyperclust.core import Hypergraph, seeded_rng
from hyperclust.initializers import (
    EigensolverError,
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


def no_signal():
    """Uniform edges only: the K-th eigengap is so small that the solver
    stops at its cap of 1000 steps."""
    return planted(60, 3, 3, 0, 60, [91, 1])


def eigenbasis(g, K, **kw):
    M, shift = _spectral_operator(g)
    return _top_eigenvectors(M, K, seeded_rng(7), scale=shift, **kw)


# Bases as the solver produces them on W + max(degree) * I.  The d2 and empty
# bases predate that shift: there it equals the old (d-1) * max degree and 1.0.
BASIS_DIGESTS = {
    "d2": (lambda: planted(40, 2, 2, 120, 40, [91, 2]), 2, "86aafe713baf8d83"),
    "d3": (lambda: planted(60, 3, 3, 150, 60, [91, 3]), 3, "6bc05c8f0793cf82"),
    "d4": (lambda: planted(48, 4, 4, 120, 60, [91, 4]), 4, "05d5d95debd1aca1"),
    "empty": (lambda: Hypergraph(12, 3, np.empty((0, 3), dtype=np.int64)), 3, "c7672e345c1b9eb8"),
}


@pytest.mark.parametrize("case", sorted(BASIS_DIGESTS))
def test_bases_are_pinned(case):
    make, K, expected = BASIS_DIGESTS[case]
    assert digest(eigenbasis(make(), K).tobytes()) == expected


def test_capped_diagnostics_are_pinned():
    with pytest.raises(EigensolverError) as err:
        eigenbasis(no_signal(), 3)
    assert err.value.iterations == 1000
    assert err.value.residual.hex() == "0x1.8a7f4149a2c31p-23"
    assert digest(err.value.best_basis.tobytes()) == "a739f9c9a3a87377"


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


def count_products(g, max_iter):
    M, shift = _spectral_operator(g)
    op = CountingOperator(M)
    try:
        _top_eigenvectors(op, 3, seeded_rng(7), max_iter=max_iter, scale=shift)
    except EigensolverError:
        return op.products, False
    return op.products, True


@pytest.mark.parametrize("max_iter", [1, 4, 50])
def test_capped_run_takes_one_product_per_step(max_iter):
    assert count_products(no_signal(), max_iter) == (max_iter + 1, False)


def test_converged_run_takes_one_product_per_step():
    g = planted(60, 3, 3, 150, 60, [91, 3])
    products, converged = count_products(g, 1000)
    assert converged
    steps = products - 1  # the fewest steps that converge
    assert count_products(g, steps) == (products, True)
    assert count_products(g, steps - 1) == (steps, False)


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


def test_operator_is_exact():
    for g in random_graphs():
        W = similarity_matrix(g)
        M, shift = _spectral_operator(g)
        assert shift == max(float(W.sum(axis=1).max(initial=0)) / (g.d - 1), 1.0)  # max degree
        assert M.dtype == np.float64
        assert np.array_equal(M, W.astype(np.float64) + shift * np.eye(g.n))


def test_operator_is_positive_semidefinite():
    for g in random_graphs():
        M, _ = _spectral_operator(g)
        assert np.linalg.eigvalsh(M)[0] >= -1e-9


def test_shift_is_tight_on_an_even_cycle():
    # lambda_min(W) of an even cycle is -2, the negative of its maximum degree
    n = 12
    g = Hypergraph.from_edge_list(n, 2, [(i, (i + 1) % n) for i in range(n)])
    M, shift = _spectral_operator(g)
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
    for g, K in gapped_graphs():
        w, U = np.linalg.eigh(similarity_matrix(g).astype(np.float64))
        M, shift = _spectral_operator(g)
        # residual tol * shift over a gap of at least shift / 10 bounds the
        # sine by 1e-7 (Davis-Kahan)
        assert w[-K] - w[-K - 1] >= 0.1 * shift
        V = _top_eigenvectors(M, K, seeded_rng(7), scale=shift)
        assert sin_largest_angle(V, U[:, -K:]) <= 1e-6


def test_max_degree_shift_takes_fewer_steps():
    make, K, _ = BASIS_DIGESTS["d4"]
    g = make()
    W = similarity_matrix(g).astype(np.float64)
    old_shift = float((g.d - 1) * np.bincount(g.edges.ravel(), minlength=g.n).max())
    old = CountingOperator(W + old_shift * np.eye(g.n))
    _top_eigenvectors(old, K, seeded_rng(7), scale=old_shift)
    M, shift = _spectral_operator(g)
    new = CountingOperator(M)
    _top_eigenvectors(new, K, seeded_rng(7), scale=shift)
    assert new.products <= 0.6 * old.products


def test_spectral_init_skips_the_int64_matrix(monkeypatch):
    g = planted(60, 3, 3, 150, 60, [91, 3])
    expected = spectral_init(g, 3, 5)

    def refuse(_):
        raise AssertionError("similarity_matrix called on the init path")

    monkeypatch.setattr(initializers, "similarity_matrix", refuse)
    assert spectral_init(g, 3, 5).labels.tolist() == expected.labels.tolist()


def test_spectral_init_holds_one_dense_matrix():
    n = 600
    g = planted(n, 3, 3, 3000, 600, [91, 5])
    tracemalloc.start()
    try:
        spectral_init(g, 3, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_capped_path_contract():
    g = no_signal()
    with pytest.warns(UserWarning, match="iteration cap"):
        h = spectral_init(g, 3, 0, strict=False)
    assert h.is_balanced
    with pytest.raises(EigensolverError) as err:
        spectral_init(g, 3, 0, strict=True)
    assert err.value.iterations == 1000  # the default cap


def test_capped_warning_reports_steps_and_residual():
    with pytest.warns(UserWarning) as caught:
        spectral_init(no_signal(), 3, 0, strict=False)
    message = str(caught[0].message)
    assert "iteration cap after 1000 steps" in message
    with pytest.raises(EigensolverError) as err:
        spectral_init(no_signal(), 3, 0, strict=True)
    assert f"(residual {err.value.residual:.3e})" in message
