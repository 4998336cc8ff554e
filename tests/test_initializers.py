import itertools
import math

import numpy as np
import pytest

from hyperclust import initializers
from hyperclust.core import Assignment, Hypergraph
from hyperclust.experiments import block_truth
from hyperclust.initializers import (
    EigensolverError,
    _kmeans,
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
    assert a.balanced
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


@pytest.mark.parametrize("n, K", [(6, 2), (6, 3)])
def test_random_init_is_uniform_over_balanced_labelings(n, K):
    # chi-squared over every balanced labeling, 100 expected draws each; the
    # bound is the 0.999 quantile by the Wilson-Hilferty approximation
    cells = math.factorial(n) // math.factorial(n // K) ** K
    draws = np.array([random_init(n, K, s).labels for s in range(100 * cells)])
    _, counts = np.unique(draws, axis=0, return_counts=True)
    chi2 = float((counts.astype(float) ** 2).sum()) / 100 - draws.shape[0]
    df = cells - 1
    bound = df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < bound


def test_random_init_solves_no_projection(monkeypatch):
    def refuse(_):
        raise AssertionError("project_balanced called by random_init")

    monkeypatch.setattr(initializers, "project_balanced", refuse)
    assert random_init(12, 3, 42).balanced


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
    assert h.balanced
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
    assert h.balanced


def test_eigensolver_nonconvergence_diagnostics():
    rng = np.random.default_rng(0)
    W = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)
    with pytest.raises(EigensolverError) as err:
        _top_eigenvectors(W, 2, rng, tol=1e-30, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 0


# --- pivoted-QR rounding ---


def same_partition(labels, truth):
    """Equal up to a relabeling of the clusters."""
    pairs = set(zip(labels.tolist(), truth.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(truth.tolist()))


def test_rounding_recovers_rotated_noisy_indicators():
    rng = np.random.default_rng(41)
    for _ in range(60):
        K = int(rng.integers(1, 6))
        n = K * int(rng.integers(1, 30))
        truth = rng.permutation(np.arange(n) % K)
        X = np.eye(K)[truth] / math.sqrt(n / K)  # orthonormal cluster indicators
        X += 0.1 / math.sqrt(n) * rng.standard_normal((n, K))
        rotation, _ = np.linalg.qr(rng.standard_normal((K, K)))
        assert same_partition(_kmeans(X @ rotation, K), truth)


def test_rounding_sends_duplicates_and_ties_to_the_lowest_cluster():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [-0.5, 0.5], [0.0, 0.0]])
    assert _kmeans(X, 2).tolist() == [0, 1, 0, 0, 1, 0, 0]


def test_rounding_of_a_square_basis_is_a_permutation():
    rng = np.random.default_rng(43)
    for K in range(1, 8):
        Q, _ = np.linalg.qr(rng.standard_normal((K, K)))
        assert sorted(_kmeans(Q, K).tolist()) == list(range(K))
    column = rng.standard_normal((10, 1))
    assert _kmeans(column / np.linalg.norm(column), 1).tolist() == [0] * 10


def test_spectral_init_rounds_once_and_draws_nothing_after_the_eigensolver(monkeypatch):
    rounded, states = [], []
    kmeans, eigensolver = initializers._kmeans, initializers._top_eigenvectors

    def counting_kmeans(*args):
        rounded.append(args)
        return kmeans(*args)

    def recording_eigensolver(M, K, rng, **kwargs):
        vecs = eigensolver(M, K, rng, **kwargs)
        states.append((rng, rng.bit_generator.state))
        return vecs

    monkeypatch.setattr(initializers, "_kmeans", counting_kmeans)
    monkeypatch.setattr(initializers, "_top_eigenvectors", recording_eigensolver)
    params = to_probabilities(LogRegimeParams(60, 3, 3, 40.0, 2.0))
    g = sample(params, block_truth(60, 3), 4)
    for seed in range(3):
        spectral_init(g, 3, seed)
        assert len(rounded) == seed + 1
        rng, state = states[-1]
        assert rng.bit_generator.state == state


# --- corrupt ---


def test_corrupt_zero_swaps_is_identity():
    truth = block_truth(8, 2)
    h = corrupt(truth, 0, 0)
    assert h.labels.tolist() == truth.labels.tolist()
    assert unaligned_distance(h, truth) == 0.0


def test_corrupt_single_swap_distance_two():
    truth = block_truth(8, 2)
    h = corrupt(truth, 1, 5)
    assert h.balanced
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
        assert h.balanced
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
    with pytest.raises(ValueError, match="swaps must be nonnegative, got -1"):
        corrupt(truth, -1, 0)
    with pytest.raises(ValueError):
        corrupt(Assignment(np.array([0, 0, 0, 1]), 2), 1, 0)  # unbalanced


def test_corrupt_rejects_fractional_swaps():
    truth = block_truth(6, 2)
    with pytest.raises(ValueError, match="swaps must be a whole number"):
        corrupt(truth, 2.5, 0)
    assert corrupt(truth, 2.0, 0).labels.tolist() == corrupt(truth, 2, 0).labels.tolist()


def test_corrupt_max_swaps_k2():
    truth = block_truth(8, 2)
    h = corrupt(truth, 4, 11)
    assert h.balanced
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
    ],
    ids=["random_init", "spectral_init", "block_truth"],
)
def test_zero_clusters_rejected(call):
    with pytest.raises(ValueError):
        call()
