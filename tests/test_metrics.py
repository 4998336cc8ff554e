import itertools
import math

import numpy as np
import pytest

from hyperclust.core import Assignment
from hyperclust.metrics import (
    _best_overlap,
    align_and_distance,
    confusion_matrix,
    exact_recovery,
    misclassification_rate,
)


def rand_assignment(rng, n, K):
    return Assignment(rng.integers(0, K, size=n), K)


def test_identical_assignments():
    a = Assignment(np.array([0, 1, 0, 1]), 2)
    perm, dist = align_and_distance(a, a)
    assert dist == 0.0
    assert perm == (0, 1)
    assert misclassification_rate(a, a) == 0.0
    assert exact_recovery(a, a)


def test_global_label_swap_is_distance_zero():
    a = Assignment(np.array([0, 1, 0, 1]), 2)
    b = Assignment(np.array([1, 0, 1, 0]), 2)
    perm, dist = align_and_distance(a, b)
    assert dist == 0.0
    assert perm == (1, 0)
    assert exact_recovery(a, b)


def test_single_mislabel_distance_sqrt2():
    truth = Assignment(np.array([0, 0, 1, 1, 2, 2]), 3)
    h = Assignment(np.array([0, 0, 1, 1, 2, 1]), 3)
    _, dist = align_and_distance(h, truth)
    assert dist == pytest.approx(math.sqrt(2.0))
    assert misclassification_rate(h, truth) == pytest.approx(1 / 6)
    assert not exact_recovery(h, truth)


def test_confusion_matrix_counts():
    h = Assignment(np.array([0, 0, 1, 1]), 2)
    t = Assignment(np.array([0, 1, 1, 1]), 2)
    M = confusion_matrix(h, t)
    assert M.tolist() == [[1, 1], [0, 2]]


def test_shape_mismatch_rejected():
    a = Assignment(np.array([0, 1]), 2)
    b = Assignment(np.array([0, 1, 0]), 2)
    c = Assignment(np.array([0, 1]), 3)
    with pytest.raises(ValueError):
        align_and_distance(a, b)
    with pytest.raises(ValueError):
        align_and_distance(a, c)


def test_relabeling_invariance_and_metric_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        K = int(rng.choice([2, 3, 4]))
        n = K * int(rng.integers(1, 5))
        h, t = rand_assignment(rng, n, K), rand_assignment(rng, n, K)
        _, dist = align_and_distance(h, t)
        ph = h.relabel(rng.permutation(K))
        pt = t.relabel(rng.permutation(K))
        _, dist2 = align_and_distance(ph, pt)
        assert dist == pytest.approx(dist2)
        # values live in {0} union [sqrt(2), sqrt(2n)]
        assert dist == 0.0 or math.sqrt(2.0) - 1e-12 <= dist <= math.sqrt(2.0 * n) + 1e-12
        # distance zero exactly when the partitions coincide
        same_partition = exact_recovery(h, t)
        assert (dist == 0.0) == same_partition
        assert (misclassification_rate(h, t) == 0.0) == same_partition


def test_k2_misclassification_bounded_by_half():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = 2 * int(rng.integers(1, 30))
        h, t = rand_assignment(rng, n, 2), rand_assignment(rng, n, 2)
        assert misclassification_rate(h, t) <= 0.5


def test_random_balanced_k2_rate_near_half():
    rng = np.random.default_rng(13)
    n = 400
    rates = []
    for _ in range(60):
        perm = rng.permutation(n)
        labels = np.zeros(n, dtype=np.int64)
        labels[perm[: n // 2]] = 1
        h = Assignment(labels, 2, balanced=True)
        t = Assignment(np.repeat(np.arange(2), n // 2), 2, balanced=True)
        rates.append(misclassification_rate(h, t))
    # expectation just under 1/2; alignment keeps every value at or below it
    assert 0.4 <= np.mean(rates) <= 0.5


def test_large_k_uses_exact_assignment():
    rng = np.random.default_rng(14)
    K, n = 10, 40
    t = rand_assignment(rng, n, K)
    perm = rng.permutation(K)
    h = t.relabel(perm)
    p, dist = align_and_distance(h, t)
    assert dist == 0.0
    assert exact_recovery(h, t)
    # recovered renaming undoes the applied permutation
    assert [p[perm[k]] for k in range(K)] == list(range(K))


def test_alignment_is_the_first_best_permutation():
    # the lexicographically first permutation of maximal overlap, as an
    # exhaustive search in itertools order would find it
    rng = np.random.default_rng(15)
    for _ in range(600):
        K = int(rng.integers(2, 7))
        M = rng.integers(0, int(rng.choice([2, 5, 50])), size=(K, K))
        best_perm, best = None, -1
        for perm in itertools.permutations(range(K)):
            overlap = int(M[np.arange(K), perm].sum())
            if overlap > best:
                best_perm, best = perm, overlap
        assert _best_overlap(M) == (best_perm, best)
