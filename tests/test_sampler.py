import math

import numpy as np
import pytest

from hyperclust.core import Assignment
from hyperclust.experiments import block_truth
from hyperclust.sampler import (
    LogRegimeParams,
    ModelParams,
    pool_sizes,
    sample,
    to_probabilities,
    uniformize,
)

from oracles import edge_set


# --- parameter types ---


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(7, 3, 2, 0.1, 0.1)  # K does not divide n
    with pytest.raises(ValueError):
        ModelParams(6, 3, 2, 1.5, 0.1)
    with pytest.raises(ValueError):
        ModelParams(6, 3, 2, 0.1, -0.2)
    p = ModelParams(6, 3, 2, 0.0, 0.0)  # degenerate limits allowed
    assert p.m == 3


def test_to_probabilities_formula():
    # convergence-study setting: alpha=33, beta=8 at n=480, d=3
    lp = LogRegimeParams(480, 3, 2, 33.0, 8.0)
    mp = to_probabilities(lp)
    assert mp.p == pytest.approx(33.0 * math.log(480) / 480**2)
    assert mp.q == pytest.approx(8.0 * math.log(480) / 480**2)


def test_to_probabilities_alpha_equals_beta():
    mp = to_probabilities(LogRegimeParams(100, 3, 2, 5.0, 5.0))
    assert mp.p == mp.q


def test_to_probabilities_regime_error():
    with pytest.raises(ValueError):
        to_probabilities(LogRegimeParams(10, 2, 2, 100.0, 1.0))


def test_recovery_threshold_boundary_value():
    # K=3, d=3: the boundary (sqrt(a) - sqrt(b))^2 = K^(d-1) (d-1)! = 18
    T = 3 ** (3 - 1) * math.factorial(3 - 1)
    assert T == 18
    alpha, beta = 50.0, (math.sqrt(50.0) - math.sqrt(18.0)) ** 2
    assert (math.sqrt(alpha) - math.sqrt(beta)) ** 2 == pytest.approx(18.0)


# --- pool sizes ---


def test_pool_sizes_small_examples():
    assert pool_sizes(6, 3, 2) == (2, 18)
    assert pool_sizes(4, 2, 2) == (2, 4)


def test_pool_sizes_big_integers_and_identity():
    same, cross = pool_sizes(210, 3, 3)
    assert same == 3 * math.comb(70, 3)
    assert same + cross == math.comb(210, 3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        K = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(2, 9))
        d = int(rng.integers(2, m + 1))
        same, cross = pool_sizes(K * m, d, K)
        assert same >= 0 and cross >= 0
        assert same + cross == math.comb(K * m, d)


def test_pool_sizes_degenerate():
    with pytest.raises(ValueError):
        pool_sizes(6, 4, 2)  # d exceeds community size
    with pytest.raises(ValueError):
        pool_sizes(7, 2, 2)


# --- sampling ---


def test_sample_deterministic_limits():
    truth = block_truth(6, 2)
    full = sample(ModelParams(6, 3, 2, 1.0, 0.0), truth, 0)
    assert edge_set(full) == {(0, 1, 2), (3, 4, 5)}
    empty = sample(ModelParams(6, 3, 2, 0.0, 0.0), truth, 0)
    assert empty.num_edges == 0
    everything = sample(ModelParams(6, 2, 2, 1.0, 1.0), truth, 0)
    assert everything.num_edges == math.comb(6, 2)


def test_sample_determinism_per_seed():
    params = ModelParams(30, 3, 2, 0.05, 0.01)
    truth = block_truth(30, 2)
    a = sample(params, truth, 123)
    b = sample(params, truth, 123)
    c = sample(params, truth, 124)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_sample_respects_ground_truth_pools():
    # p=1, q=0 with a scrambled balanced truth: exactly the monochromatic sets
    labels = np.array([0, 1, 0, 1, 1, 0])
    truth = Assignment(labels, 2, balanced=True)
    g = sample(ModelParams(6, 3, 2, 1.0, 0.0), truth, 5)
    assert edge_set(g) == {(0, 2, 5), (1, 3, 4)}


def test_sample_validates_truth():
    params = ModelParams(6, 3, 2, 0.5, 0.1)
    with pytest.raises(ValueError):
        sample(params, Assignment(np.array([0, 0, 0, 0, 1, 1]), 2), 0)
    with pytest.raises(ValueError):
        sample(params, block_truth(8, 2), 0)


def test_sample_concentration():
    # mean edge count over seeds within 4 standard errors of the Binomial mean
    n, d, K, p = 60, 3, 2, 0.01
    params = ModelParams(n, d, K, p, p)
    truth = block_truth(n, K)
    trials = 200
    counts = [sample(params, truth, s).num_edges for s in range(trials)]
    same, cross = pool_sizes(n, d, K)
    mean = (same + cross) * p
    var = (same + cross) * p * (1 - p)
    assert abs(np.mean(counts) - mean) <= 4 * math.sqrt(var / trials)
    # sparsity guard: counts essentially never stray past 3x their mean
    assert np.mean(np.array(counts) <= 3 * mean) >= 0.99


# --- uniformize ---


def test_uniformize_pads_with_shared_dummies():
    g, dummies = uniformize([(0, 1)], 3, 400)
    assert dummies == (400,)
    assert g.n == 401 and g.d == 3
    assert edge_set(g) == {(0, 1, 400)}


def test_uniformize_identity_case():
    g, dummies = uniformize([(0, 1, 2), (1, 2, 3)], 3, 5)
    assert dummies == ()
    assert g.n == 5
    assert edge_set(g) == {(0, 1, 2), (1, 2, 3)}


def test_uniformize_mixed_sizes():
    g, dummies = uniformize([(0, 1), (2, 3, 4)], 3, 5)
    assert dummies == (5,)
    assert g.n == 6
    assert edge_set(g) == {(0, 1, 5), (2, 3, 4)}


def test_uniformize_two_slot_padding():
    g, dummies = uniformize([(0, 1), (2, 3, 4), (0, 2, 3, 4)], 4, 5)
    # 2-edges take both dummies, 3-edges only the last slot's dummy
    assert dummies == (5, 6)
    assert g.n == 7
    assert edge_set(g) == {(0, 1, 5, 6), (2, 3, 4, 6), (0, 2, 3, 4)}


def test_uniformize_rejects_fractional_node_ids():
    with pytest.raises(ValueError, match="whole numbers"):
        uniformize([(0.5, 1.7)], 3, 4)
    g, dummies = uniformize([(1.0, 0.0), np.array([3, 1, 2], dtype=np.int32)], 3, 4)
    assert dummies == (4,)
    assert edge_set(g) == {(0, 1, 4), (1, 2, 3)}


def test_uniformize_validation():
    with pytest.raises(ValueError):
        uniformize([(0,)], 3, 5)
    with pytest.raises(ValueError):
        uniformize([(0, 1, 2, 3)], 3, 5)
    with pytest.raises(ValueError):
        uniformize([(0, 7)], 3, 5)
