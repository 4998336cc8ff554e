import itertools
import math

import numpy as np
import pytest

from hyperclust.core import Assignment, Hypergraph
from hyperclust.experiments import block_truth, shuffled_truth
from hyperclust.initializers import (
    EigensolverError,
    _kmeans,
    _kmeanspp,
    _top_eigenvectors,
    corrupt,
    random_init,
    similarity_matrix,
    spectral_init,
)
from hyperclust.metrics import align_and_distance, misclassification_rate
from hyperclust.sampler import LogRegimeParams, sample, to_probabilities


def unaligned_distance(h, truth):
    return np.linalg.norm(h.one_hot() - truth.one_hot())


# --- random_init ---


def test_random_init_balanced_and_deterministic():
    a = random_init(12, 3, 42)
    b = random_init(12, 3, 42)
    c = random_init(12, 3, 43)
    assert a.is_balanced
    assert a.labels.tolist() == b.labels.tolist()
    assert a.labels.tolist() != c.labels.tolist()
    with pytest.raises(ValueError):
        random_init(10, 3, 0)


def test_random_init_label_symmetry():
    # node 0 should land in each cluster equally often across seeds
    n, K, trials = 8, 2, 1000
    hits = sum(random_init(n, K, s).labels[0] == 0 for s in range(trials))
    sigma = math.sqrt(trials * 0.25)
    assert abs(hits - trials / 2) <= 4 * sigma


# --- similarity matrix / spectral ---


def test_similarity_single_edge():
    g = Hypergraph.from_edge_list(4, 3, [(0, 1, 2)])
    W = similarity_matrix(g)
    expected = np.zeros((4, 4), dtype=np.int64)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        expected[i, j] = expected[j, i] = 1
    assert np.array_equal(W, expected)


def test_similarity_matrix_properties():
    rng = np.random.default_rng(3)
    edges = [c for c in itertools.combinations(range(8), 3) if rng.random() < 0.3]
    g = Hypergraph.from_edge_list(8, 3, edges)
    W = similarity_matrix(g)
    assert np.array_equal(W, W.T)
    assert (np.diag(W) == 0).all()
    assert (W >= 0).all()
    # pair counts match direct enumeration
    for i, j in [(0, 1), (2, 5), (3, 7)]:
        direct = sum(1 for e in edges if i in e and j in e)
        assert W[i, j] == direct


def test_spectral_recovers_disjoint_clique_blocks():
    # all within-cluster triples present, no cross edges: W is block diagonal
    n, K = 12, 2
    truth = block_truth(n, K)
    edges = [c for k in range(K) for c in itertools.combinations(range(6 * k, 6 * k + 6), 3)]
    g = Hypergraph.from_edge_list(n, 3, edges)
    h = spectral_init(g, K, 0)
    assert h.is_balanced
    assert misclassification_rate(h, truth) == 0.0


def test_spectral_partial_recovery_on_sampled_instances():
    # above-threshold instances: the initializer lands near the truth
    n, K = 120, 2
    params = to_probabilities(LogRegimeParams(n, 3, K, 40.0, 2.0))
    truth = block_truth(n, K)
    good = 0
    for s in range(20):
        g = sample(params, truth, s)
        h = spectral_init(g, K, s)
        if misclassification_rate(h, truth) <= 0.1:
            good += 1
    assert good >= 18


def test_spectral_handles_empty_graph():
    g = Hypergraph(6, 3, np.empty((0, 3), dtype=np.int64))
    h = spectral_init(g, 2, 1)
    assert h.is_balanced


def test_eigensolver_nonconvergence_diagnostics():
    rng = np.random.default_rng(0)
    W = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)
    with pytest.raises(EigensolverError) as err:
        _top_eigenvectors(W, 2, rng, tol=1e-30, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 0


def kmeans_one_restart_at_a_time(X, K, rng, stats, restarts=20, iters=100):
    """The per-restart Lloyd loop that ``_kmeans`` batches, as a reference.

    ``stats`` counts the empty clusters resurrected and the restarts whose
    objective ties the best one with other labels."""
    n = X.shape[0]
    best_labels, best_obj = None, np.inf
    for _ in range(restarts):
        centers = _kmeanspp(X, K, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(iters):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for k in range(K):
                mask = new_labels == k
                if mask.any():
                    centers[k] = X[mask].mean(axis=0)
                else:
                    stats["resurrected"] += 1
                    centers[k] = X[int(d2.min(axis=1).argmax())]
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        obj = float(((X - centers[labels]) ** 2).sum())
        if obj == best_obj and not np.array_equal(labels, best_labels):
            stats["tied"] += 1
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return best_labels


def kmeans_inputs():
    """Random inputs with D = K columns, as spectral_init passes, or 2 to 8.

    No input has one column and K > 1: numpy sums a single column pairwise,
    so the reference's mean of many equal values can differ in the last bit
    from ``_kmeans``'s running sum, and a tie can then break the other way.
    """
    rng = np.random.default_rng(31)
    for case in range(200):
        K = int(rng.integers(1, 6))
        n = int(rng.integers(K, 80))
        D = K if case % 2 else int(rng.integers(2, 9))
        kind = case % 4
        if kind == 0:  # spectral-like: noisy cluster indicators
            X = np.eye(K, D)[rng.integers(0, K, n)] + 0.3 * rng.standard_normal((n, D))
        elif kind == 1:  # few distinct points, many duplicates and exact ties
            X = rng.integers(0, 2, (n, D)).astype(np.float64)
        elif kind == 2:  # fewer distinct points than clusters: empty clusters
            points = rng.standard_normal((max(1, K - 1), D))
            X = points[rng.integers(0, len(points), n)]
        else:
            X = rng.standard_normal((n, D))
        yield X, K, int(rng.integers(1, 21)), int(rng.integers(1, 100)), int(rng.integers(1 << 30))


def test_batched_kmeans_matches_the_per_restart_loop():
    stats = {"resurrected": 0, "tied": 0}
    for X, K, restarts, iters, seed in kmeans_inputs():
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = kmeans_one_restart_at_a_time(X, K, ref_rng, stats, restarts, iters)
        assert _kmeans(X, K, rng, restarts, iters).tolist() == expected.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert stats["resurrected"] > 0 and stats["tied"] > 0


# --- corrupt ---


def test_corrupt_zero_swaps_is_identity():
    truth = block_truth(8, 2)
    h = corrupt(truth, 0, 0)
    assert h.labels.tolist() == truth.labels.tolist()
    assert unaligned_distance(h, truth) == 0.0


def test_corrupt_single_swap_distance_two():
    truth = block_truth(8, 2)
    h = corrupt(truth, 1, 5)
    assert h.is_balanced
    assert unaligned_distance(h, truth) == pytest.approx(2.0)


def test_corrupt_distance_identity():
    rng = np.random.default_rng(9)
    for _ in range(40):
        K = int(rng.choice([2, 3, 4]))
        m = int(rng.integers(2, 6))
        n = K * m
        swaps = int(rng.integers(0, n // 2 + 1))
        truth = block_truth(n, K)
        h = corrupt(truth, swaps, int(rng.integers(1 << 30)))
        assert h.is_balanced
        assert unaligned_distance(h, truth) == pytest.approx(2.0 * math.sqrt(swaps))


def test_corrupt_meets_partial_recovery_budget():
    # swaps = floor(theta^2 n / 4) keeps the distance within theta * sqrt(n)
    n, K, theta = 60, 3, 0.45
    swaps = int(theta**2 * n / 4)
    truth = block_truth(n, K)
    h = corrupt(truth, swaps, 3)
    assert unaligned_distance(h, truth) <= theta * math.sqrt(n)
    _, aligned = align_and_distance(h, truth)
    assert aligned <= unaligned_distance(h, truth) + 1e-12


def test_corrupt_validation():
    truth = block_truth(6, 2)
    with pytest.raises(ValueError):
        corrupt(truth, 4, 0)  # 2 * swaps > n
    with pytest.raises(ValueError):
        corrupt(Assignment(np.array([0, 0, 0, 1]), 2), 1, 0)  # unbalanced


def test_corrupt_max_swaps_k2():
    truth = block_truth(8, 2)
    h = corrupt(truth, 4, 11)
    assert h.is_balanced
    assert unaligned_distance(h, truth) == pytest.approx(4.0)


def test_corrupt_rejects_swaps_with_one_cluster():
    # K=1 has no cross-cluster pair to exchange; this must fail, not spin
    truth = Assignment(np.zeros(6, dtype=np.int64), 1, balanced=True)
    with pytest.raises(ValueError):
        corrupt(truth, 1, 0)
    assert corrupt(truth, 0, 0).labels.tolist() == [0] * 6


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_init(6, 0, 1),
        lambda: spectral_init(Hypergraph.from_edge_list(6, 3, [(0, 1, 2)]), 0, 1),
        lambda: block_truth(6, 0),
        lambda: shuffled_truth(6, 0, 1),
    ],
    ids=["random_init", "spectral_init", "block_truth", "shuffled_truth"],
)
def test_zero_clusters_rejected(call):
    with pytest.raises(ValueError):
        call()
