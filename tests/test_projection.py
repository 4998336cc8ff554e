import hashlib
import json

import numpy as np
import pytest

from hyperclust.core import Assignment
from hyperclust.projection import (
    _balanced_labelings,
    brute_force_projection,
    project_balanced,
)


def selected_sum(C, labels):
    return C[np.arange(C.shape[0]), labels].sum()


# --- frozen examples ---


def test_projecting_a_balanced_one_hot_returns_it():
    labels = np.array([1, 0, 2, 1, 0, 2])
    h = Assignment(labels, 3, balanced=True)
    out = project_balanced(h.one_hot().astype(float))
    assert out.labels.tolist() == labels.tolist()


def test_small_example_matches_brute_force_optimum():
    C = np.array([[2.0, 0.0], [1.5, 0.0], [0.0, 1.0], [0.2, 0.9]])
    out = project_balanced(C)
    assert out.labels.tolist() == [0, 0, 1, 1]
    assert selected_sum(C, out.labels) == pytest.approx(5.4)
    # exhaustive check over all 6 balanced assignments
    best = max(selected_sum(C, lab) for lab in _balanced_labelings(4, 2))
    assert best == pytest.approx(5.4)
    assert brute_force_projection(C).labels.tolist() == [0, 0, 1, 1]


def test_zero_matrix_tie_break_is_block_labeling():
    for n, K in [(4, 2), (6, 2), (6, 3), (8, 4)]:
        m = n // K
        expected = np.repeat(np.arange(K), m).tolist()
        assert project_balanced(np.zeros((n, K))).labels.tolist() == expected
        assert brute_force_projection(np.zeros((n, K))).labels.tolist() == expected


def test_integer_ties_break_lexicographically():
    # two optimal assignments exist; the smaller label sequence wins
    C = np.array([[1, 1], [0, 0], [0, 0], [1, 1]], dtype=np.int64)
    out = project_balanced(C)
    assert out.labels.tolist() == brute_force_projection(C).labels.tolist()
    assert selected_sum(C, out.labels) == 2


# --- validation ---


def test_rejects_indivisible_and_nonfinite():
    with pytest.raises(ValueError):
        project_balanced(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        project_balanced(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        project_balanced(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        brute_force_projection(np.zeros((16, 2)))
    with pytest.raises(ValueError):
        project_balanced(np.array([[2**60, 0], [0, 0]]))
    with pytest.raises(ValueError):
        project_balanced(np.array([[0, 0], [np.iinfo(np.int64).min, 0]]))


def test_integer_entries_near_the_limit_stay_exact():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n, K = _oracle_shapes(rng)
        C = rng.integers(-(2**60) + 1, 2**60, size=(n, K))
        # the oracle sums python ints, which cannot overflow
        slow = brute_force_projection(C.astype(object))
        assert project_balanced(C).labels.tolist() == slow.labels.tolist()


def test_unsigned_entries_are_range_checked_before_the_cast():
    # as int64, 2**64 - 1 would wrap to -1 and send row 0 off its maximum
    for big in (2**64 - 1, 2**63, 2**60):
        C = np.array([[big, 0], [5, 0], [0, 0], [0, 0]], dtype=np.uint64)
        with pytest.raises(ValueError):
            project_balanced(C)
    C = np.array([[2**60 - 1, 0], [5, 0], [0, 0], [0, 0]], dtype=np.uint64)
    assert project_balanced(C).labels.tolist() == [0, 0, 1, 1]
    rng = np.random.default_rng(57)
    for _ in range(100):
        n, K = _oracle_shapes(rng)
        C = rng.integers(0, 4, size=(n, K)).astype(np.uint8)
        slow = brute_force_projection(C.astype(np.int64))
        assert project_balanced(C).labels.tolist() == slow.labels.tolist()


def test_single_cluster_is_trivial():
    out = project_balanced(np.zeros((3, 1)))
    assert out.labels.tolist() == [0, 0, 0]
    out = project_balanced(np.array([[5], [-3], [0], [2**59]]))
    assert out.labels.tolist() == [0, 0, 0, 0]


# --- randomized optimality against the oracle ---


@pytest.mark.parametrize("K", [2, 4])
def test_gaussian_matrices_match_oracle(K):
    rng = np.random.default_rng(40 + K)
    for _ in range(300):
        n = int(rng.choice([4, 8]))
        C = rng.standard_normal((n, K))
        fast = project_balanced(C)
        slow = brute_force_projection(C)
        assert fast.is_balanced
        fv, sv = selected_sum(C, fast.labels), selected_sum(C, slow.labels)
        assert abs(fv - sv) <= 1e-12
        # Gaussian entries: optimum is unique with probability one
        assert fast.labels.tolist() == slow.labels.tolist()


def test_integer_matrices_match_oracle_exactly():
    rng = np.random.default_rng(50)
    for _ in range(300):
        K = int(rng.choice([2, 3, 4]))
        n = K * int(rng.integers(1, 3))
        C = rng.integers(-5, 6, size=(n, K))
        fast = project_balanced(C)
        slow = brute_force_projection(C)
        assert selected_sum(C, fast.labels) == selected_sum(C, slow.labels)
        # identical tie-break rule on both paths
        assert fast.labels.tolist() == slow.labels.tolist()


def test_larger_instances_stay_feasible_and_dominant():
    rng = np.random.default_rng(60)
    for n, K in [(60, 2), (60, 3), (64, 4), (120, 8)]:
        C = rng.standard_normal((n, K)) * 10
        out = project_balanced(C)
        assert out.is_balanced
        # no single exchange of two rows can improve (necessary condition)
        lab = out.labels
        gain = C[np.arange(n)[:, None], np.arange(K)[None, :]] - C[np.arange(n), lab][:, None]
        for k in range(K):
            for l in range(K):
                if k == l:
                    continue
                movers_kl = gain[lab == k, l].max(initial=-np.inf)
                movers_lk = gain[lab == l, k].max(initial=-np.inf)
                assert movers_kl + movers_lk <= 1e-9


# --- structural properties ---


def test_column_permutation_equivariance():
    rng = np.random.default_rng(70)
    for _ in range(50):
        K = int(rng.choice([2, 3, 4]))
        n = K * int(rng.integers(1, 3))
        C = rng.standard_normal((n, K))
        perm = rng.permutation(K)
        base = project_balanced(C)
        permuted = project_balanced(C[:, perm])
        # column k of the permuted input held C[:, perm[k]]; matching labels
        # relate through the inverse permutation
        inv = np.argsort(perm)
        assert permuted.labels.tolist() == inv[base.labels].tolist()


def test_row_shift_invariance():
    rng = np.random.default_rng(80)
    for _ in range(50):
        n, K = 8, 4
        C = rng.standard_normal((n, K))
        shifted = C + rng.standard_normal(n)[:, None] * 3
        assert (
            project_balanced(C).labels.tolist()
            == project_balanced(shifted).labels.tolist()
        )


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
def test_extreme_scales_stay_exact(scale):
    # tie tolerance is relative to the matrix scale; tiny-magnitude
    # matrices must not have their genuine gaps mistaken for ties
    rng = np.random.default_rng(int(abs(np.log10(scale))))
    for _ in range(100):
        K = int(rng.choice([2, 4]))
        n = int(rng.choice([4, 8]))
        C = rng.standard_normal((n, K)) * scale
        fast = project_balanced(C)
        slow = brute_force_projection(C)
        assert selected_sum(C, fast.labels) == selected_sum(C, slow.labels)


def test_all_tied_rows_mix_with_forced_rows():
    # half the rows pinned by huge scores, half fully tied
    C = np.zeros((8, 2))
    C[0, 1] = C[1, 1] = 5.0
    C[2, 0] = C[3, 0] = 5.0
    out = project_balanced(C)
    assert out.labels.tolist() == brute_force_projection(C).labels.tolist()
    assert selected_sum(C, out.labels) == pytest.approx(20.0)


# --- exact fast routes: balanced argmax, K=2 closed form, excess routing ---


def _argmax_counts(C):
    return np.bincount(np.argmax(C, axis=1), minlength=C.shape[1])


def _oracle_shapes(rng):
    K = int(rng.choice([2, 3, 4]))
    n = K * int(rng.integers(1, {2: 7, 3: 4, 4: 3}[K]))
    return n, K


def test_balanced_argmax_with_tied_rows_matches_oracle():
    # each row's first maximum sits at a balanced label; later columns may
    # tie it, so other optimal assignments exist
    rng = np.random.default_rng(90)
    tied_rows = 0
    for _ in range(400):
        n, K = _oracle_shapes(rng)
        lab = rng.permutation(np.repeat(np.arange(K), n // K))
        C = rng.integers(0, 3, size=(n, K))
        for i, k in enumerate(lab):
            top = C[i].max() + 1
            C[i, :k] = np.minimum(C[i, :k], top - 1)
            C[i, k] = top
            C[i, k + 1 :][rng.random(K - k - 1) < 0.5] = top
        assert np.all(_argmax_counts(C) == n // K)
        tied_rows += int(((C == C.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
        assert project_balanced(C).labels.tolist() == brute_force_projection(C).labels.tolist()
    assert tied_rows > 100


def test_k2_boundary_ties_match_oracle():
    rng = np.random.default_rng(91)
    checked = 0
    while checked < 300:
        n = 2 * int(rng.integers(2, 7))
        C = rng.integers(-1, 2, size=(n, 2))
        delta = np.sort(C[:, 1] - C[:, 0])
        if delta[n // 2 - 1] != delta[n // 2] or np.all(_argmax_counts(C) == n // 2):
            continue  # want a tie straddling the m-th place and no argmax shortcut
        checked += 1
        assert project_balanced(C).labels.tolist() == brute_force_projection(C).labels.tolist()


def test_unbalanced_argmax_with_ties_matches_oracle():
    rng = np.random.default_rng(92)
    checked = 0
    while checked < 300:
        n, K = _oracle_shapes(rng)
        if K == 2:
            continue
        C = rng.integers(0, 3, size=(n, K))
        tied = (C == C.max(axis=1, keepdims=True)).sum(axis=1) > 1
        if np.all(_argmax_counts(C) == n // K) or not tied.any():
            continue
        checked += 1
        assert project_balanced(C).labels.tolist() == brute_force_projection(C).labels.tolist()


def test_float_entries_within_tolerance_count_as_ties():
    # integer matrices perturbed far below the relative tie tolerance: the
    # float route must return the integer matrix's lex-min optimum
    rng = np.random.default_rng(93)
    for _ in range(300):
        n, K = _oracle_shapes(rng)
        base = rng.integers(0, 3, size=(n, K))
        C = base + rng.uniform(-1e-15, 1e-15, size=(n, K))
        assert project_balanced(C).labels.tolist() == brute_force_projection(base).labels.tolist()


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


# Labels of the solver before the fast routes existed; every route must
# return the same lex-min optimum bit for bit.
TIE_HEAVY_DIGESTS = {2: "87228fb1b1a76496", 3: "b18e48ad453987c4", 4: "58936f14eff6643d"}


@pytest.mark.parametrize("K", [2, 3, 4])
def test_tie_heavy_integer_projections_are_pinned(K):
    rng = np.random.default_rng(900 + K)
    mats = [rng.integers(0, 4, size=(600, K)) for _ in range(6)]
    for _ in range(3):
        # a balanced one-hot lifted over small integer noise: many tied maxima
        lab = rng.permutation(np.repeat(np.arange(K), 600 // K))
        mats.append(2 * np.eye(K, dtype=np.int64)[lab] + rng.integers(0, 3, size=(600, K)))
    labels = [project_balanced(C).labels.tolist() for C in mats]
    assert _digest(labels) == TIE_HEAVY_DIGESTS[K]
