import hashlib
import heapq
import json

import numpy as np
import pytest

from hyperclust import projection
from hyperclust.core import Assignment
from hyperclust.projection import (
    _FLOAT_TIE_TOL,
    _arc_counts,
    _lex_min_over_ties,
    _transport,
    project_balanced,
)

from oracles import _balanced_labelings, brute_force_projection, greedy_lex_min_over_ties


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


def test_lex_min_over_ties_returns_int64_labels_on_both_branches():
    # one tight arc per node: nothing to break, the argmax start comes back
    out, _, _ = _transport(-np.eye(2, dtype=np.int64), 1, 0)
    assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert out.tolist() == [0, 1]
    # every arc tight: routing moves node 0 to cluster 1, and the tie-break
    # reads off the lex-min optimum
    out, _, _ = _transport(np.zeros((2, 2), dtype=np.int64), 1, 0)
    assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert out.tolist() == [0, 1]


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


# --- the primal-dual transport against the successive-shortest-path oracle ---


def ssp_transport(cost, start, m):
    """The successive-shortest-path solver that ``_transport`` replaced,
    kept as its oracle.

    ``cost`` is (n, K) and ``start[i]`` a least-cost cluster of node i.
    Each cluster keeps its first m start nodes by id; every overflow node
    is then inserted alone along a shortest augmenting path (Dijkstra over
    the K clusters with lazy heaps of relocatable nodes), updating the
    cluster potentials ``v`` in exact Python arithmetic.
    """
    n, K = cost.shape
    v = [0] * K
    if np.bincount(start, minlength=K).max() <= m:
        return start.tolist(), v
    assign = start.copy()
    # heaps[k][l]: (cost[j][l] - cost[j][k], j) over nodes j assigned to k
    heaps = [[[] for _ in range(K)] for _ in range(K)]
    for k in range(K):
        rows = np.flatnonzero(start == k)
        assign[rows[m:]] = -1
        rows = rows[:m]
        for l in range(K):
            if l != k:
                gap = cost[rows, l] - cost[rows, k]
                idx = np.lexsort((rows, gap))
                heaps[k][l] = list(zip(gap[idx].tolist(), rows[idx].tolist()))
    overflow = np.flatnonzero(assign < 0).tolist()
    counts = np.minimum(np.bincount(start, minlength=K), m).tolist()
    assign = assign.tolist()
    rows_of = cost.tolist()

    def push_row(j, k):
        base = rows_of[j][k]
        for l in range(K):
            if l != k:
                heapq.heappush(heaps[k][l], (rows_of[j][l] - base, j))

    for i in overflow:
        ci = rows_of[i]
        dist = [ci[k] - v[k] for k in range(K)]
        pred = [(-1, -1)] * K
        done = [False] * K
        pq = [(dist[k], k) for k in range(K)]
        heapq.heapify(pq)
        target = -1
        while pq:
            dk, k = heapq.heappop(pq)
            if done[k] or dk > dist[k]:
                continue
            done[k] = True
            if counts[k] < m:
                target = k
                break
            for l in range(K):
                if l == k or done[l]:
                    continue
                h = heaps[k][l]
                while h and assign[h[0][1]] != k:
                    heapq.heappop(h)
                if h and dk + h[0][0] + v[k] - v[l] < dist[l]:
                    dist[l] = dk + h[0][0] + v[k] - v[l]
                    pred[l] = (k, h[0][1])
                    heapq.heappush(pq, (dist[l], l))
        D = dist[target]
        for k in range(K):
            v[k] += min(dist[k], D) if done[k] else D
        k = target
        moves = []
        while pred[k][0] != -1:
            src, wit = pred[k]
            moves.append((src, k, wit))
            k = src
        for src, dst, wit in moves:
            assign[wit] = dst
            counts[src] -= 1
            counts[dst] += 1
            push_row(wit, dst)
        assign[i] = k
        counts[k] += 1
        push_row(i, k)
    return assign, v


def _solver_inputs(C):
    """Cost matrix (n, K) and tie tolerance exactly as ``project_balanced``
    forms them."""
    if np.issubdtype(C.dtype, np.integer):
        return -C.astype(np.int64), 0
    return -C.astype(np.float64), _FLOAT_TIE_TOL * float(np.abs(C).max())


def oracle_projection(C):
    """Labels of ``project_balanced`` with ``ssp_transport`` in place of
    ``_transport``: the tight mask is rebuilt from the oracle's duals."""
    cost, tol = _solver_inputs(C)
    n, K = cost.shape
    assign, v = ssp_transport(cost, np.argmax(C, axis=1), n // K)
    assign = np.array(assign)
    v = np.array(v, dtype=cost.dtype)
    u = cost[np.arange(n), assign] - v[assign]
    tight = (cost - u[:, None] - v[None, :] <= tol).T
    return greedy_lex_min_over_ties(tight, assign).tolist()


def check_against_oracle(C):
    """The new solver's duals are feasible and tight on its assignment, it
    reaches the oracle's optimal cost, and the labels agree."""
    cost, tol = _solver_inputs(C)
    n, K = cost.shape
    assign, v, tight = _transport(np.ascontiguousarray(cost.T), n // K, tol)
    assert np.bincount(assign, minlength=K).tolist() == [n // K] * K
    red = cost - v[None, :]
    u = red.min(axis=1)
    # u is the row minimum, so every reduced cost is >= 0: dual feasible;
    # every node sits on an arc within tol of it: complementary slackness
    assert np.all(red[np.arange(n), assign] - u <= tol)
    assert np.array_equal(tight, (red <= u[:, None] + tol).T)
    slow, _ = ssp_transport(cost, np.argmax(C, axis=1), n // K)
    got, want = cost[np.arange(n), assign].sum(), cost[np.arange(n), slow].sum()
    if tol:
        assert abs(got - want) <= n * tol
    else:
        assert int(got) == int(want)
    labels = project_balanced(C).labels.tolist()
    assert labels == oracle_projection(C)
    return labels


def _random_matrix(rng, n, K):
    kind = int(rng.integers(6))
    if kind == 0:  # small integers: ties everywhere
        return rng.integers(0, 3, size=(n, K))
    if kind == 1:
        return rng.integers(-1000, 1000, size=(n, K))
    if kind == 2:
        return rng.standard_normal((n, K))
    if kind == 3:  # columns on very different scales: long dual ascents
        return np.round(rng.exponential(1, (n, K)) * rng.exponential(5, K), 1)
    if kind == 4:  # a balanced one-hot over integer noise, as in ptpm
        lab = rng.permutation(np.repeat(np.arange(K), n // K))
        return 3 * np.eye(K, dtype=np.int64)[lab] + rng.integers(0, 4, size=(n, K))
    # a skewed argmax: most nodes prefer the first clusters
    return rng.integers(0, 5, size=(n, K)) + np.arange(K)[::-1] * rng.integers(0, 3)


def test_transport_matches_successive_shortest_paths():
    rng = np.random.default_rng(2024)
    overflowing = 0
    for _ in range(240):
        K = int(rng.integers(2, 7))
        n = K * int(rng.integers(1, 600 // K + 1))
        C = _random_matrix(rng, n, K)
        overflowing += int(np.bincount(np.argmax(C, axis=1), minlength=K).max() > n // K)
        check_against_oracle(C)
    assert overflowing > 150


# --- the tie-break over option types against the node-by-node greedy ---


def _tie_heavy_matrices(rng, n, K):
    """An integer matrix with many tied maxima, and a float copy perturbed
    far inside the tie tolerance, which has the same lex-min optimum."""
    if rng.random() < 0.5:  # a balanced one-hot over integer noise, as in ptpm
        lab = rng.permutation(np.repeat(np.arange(K), n // K))
        C = 2 * np.eye(K, dtype=np.int64)[lab] + rng.integers(0, 3, size=(n, K))
    else:
        C = rng.integers(0, int(rng.integers(2, 4)), size=(n, K))
    return C, C + rng.uniform(-1e-15, 1e-15, size=(n, K))


def lex_min_from_scratch(tight, assign):
    """``_lex_min_over_ties`` on the state that a routing pass would hand
    it, built from a (K, n) tight mask and a balanced assignment on it."""
    tied = np.flatnonzero(tight.sum(axis=0) > 1)
    labels = np.array(assign, dtype=np.int64)
    arcs, home = tight[:, tied], labels[tied]
    labels[tied] = _lex_min_over_ties(arcs, home, _arc_counts(arcs, home))
    return labels


def test_lex_min_over_ties_matches_the_greedy_oracle():
    rng = np.random.default_rng(2500)
    tied = routed_with_ties = 0
    for _ in range(100):
        K = int(rng.integers(2, 9))
        n = K * int(rng.integers(1, 500 // K + 1))
        for C in _tie_heavy_matrices(rng, n, K):
            cost, tol = _solver_inputs(C)
            labels, _, tight = _transport(np.ascontiguousarray(cost.T), n // K, tol)
            # the tie-break ran on the routing's own state: the labels are
            # the greedy's fixed point, the lex-min optimum on their arcs
            ties = int((tight.sum(axis=0) > 1).sum())
            tied += ties
            # an overfull start, each node at its lowest tight cluster, is routed
            start = np.argmax(cost <= cost.min(axis=1, keepdims=True) + tol, axis=1)
            routed_with_ties += int(np.bincount(start, minlength=K).max() > n // K and ties > 0)
            assert labels.tolist() == greedy_lex_min_over_ties(tight, labels).tolist()
        # and an arbitrary mask around a balanced assignment: any mix of types
        lab = rng.permutation(np.repeat(np.arange(K), n // K))
        mask = rng.random((K, n)) < rng.uniform(0.1, 0.9)
        mask[lab, np.arange(n)] = True
        tied += int((mask.sum(axis=0) > 1).sum())
        want = greedy_lex_min_over_ties(mask, lab).tolist()
        assert lex_min_from_scratch(mask, lab).tolist() == want
    assert tied > 20000
    assert routed_with_ties > 180


def test_five_clusters_match_brute_force():
    rng = np.random.default_rng(2600)
    for _ in range(40):
        base, C = _tie_heavy_matrices(rng, 10, 5)
        want = brute_force_projection(base).labels.tolist()
        assert project_balanced(base).labels.tolist() == want
        assert project_balanced(C).labels.tolist() == want


# --- degenerate inputs ---


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_one_node_per_cluster(K):
    rng = np.random.default_rng(1100 + K)
    for _ in range(40):
        for C in (rng.integers(-2, 3, size=(K, K)), rng.standard_normal((K, K))):
            labels = check_against_oracle(C)
            assert labels == brute_force_projection(C).labels.tolist()
            assert sorted(labels) == list(range(K))


def test_identical_rows():
    # every balanced assignment has the same sum, so the block labeling wins
    rng = np.random.default_rng(1200)
    for n, K in [(4, 2), (9, 3), (8, 4), (6, 6), (600, 4), (600, 5)]:
        # dyadic floats, so that the brute force's float sums are exact
        for row in (rng.integers(-3, 4, size=K), rng.integers(-64, 64, size=K) / 8):
            C = np.tile(row, (n, 1))
            labels = check_against_oracle(C)
            assert labels == np.repeat(np.arange(K), n // K).tolist()
            if n <= 12:
                assert labels == brute_force_projection(C).labels.tolist()


def test_every_argmax_in_one_column():
    # n - n/K nodes overflow the first cluster
    rng = np.random.default_rng(1300)
    for n, K in [(6, 2), (12, 3), (8, 4), (6, 6), (600, 3), (600, 6)]:
        for C in (rng.integers(0, 4, size=(n, K)), rng.standard_normal((n, K))):
            C[:, 0] = np.abs(C).max() + 1 + rng.integers(0, 2, size=n)
            labels = check_against_oracle(C)
            if n <= 12:
                assert labels == brute_force_projection(C).labels.tolist()


def test_integer_entries_at_the_limit():
    L = 2**60 - 1
    rng = np.random.default_rng(1400)
    for _ in range(60):
        n, K = _small_shape(rng)
        big = int(rng.integers(2, 600 // K + 1)) * K
        for m in (n, big):
            C = rng.choice([-L, L, 0, 1, -1], size=(m, K))
            if rng.random() < 0.5:
                C[:, 0] = L  # every argmax in one column, at the limit
            labels = check_against_oracle(C)
            if m <= 12:
                # the oracle sums python ints, which cannot overflow
                assert labels == brute_force_projection(C.astype(object)).labels.tolist()


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_float_extreme_scales(scale):
    rng = np.random.default_rng(1500)
    for _ in range(60):
        K = int(rng.choice([2, 3, 4]))
        n = int(rng.choice([K, 2 * K, 240]))
        C = rng.standard_normal((n, K)) * scale
        if rng.random() < 0.5:
            C[:, 0] = np.abs(C).max()  # one column, ties at the scale
        labels = check_against_oracle(C)
        if n <= 12:
            assert labels == brute_force_projection(C).labels.tolist()


def _small_shape(rng):
    """A shape the brute force enumerates quickly, K up to 6."""
    return (6, 6) if rng.random() < 0.2 else _oracle_shapes(rng)


def _near_tie_inputs(rng):
    n, K = _small_shape(rng)
    base = rng.integers(0, 3, size=(n, K))
    base[0, 0] = 2  # the largest entry, which sets the tolerance
    return base, _FLOAT_TIE_TOL * 2.0, K


def test_float_near_ties_just_inside_the_tolerance():
    # perturbations whose effect on any exchange cycle of at most K nodes
    # stays below the tolerance: the integer matrix's optimum, ties included
    rng = np.random.default_rng(1600)
    for _ in range(300):
        base, tol, K = _near_tie_inputs(rng)
        eps = tol / (4 * K)
        C = base + rng.uniform(-eps, eps, size=base.shape)
        want = brute_force_projection(base).labels.tolist()
        assert project_balanced(C).labels.tolist() == want
        assert oracle_projection(C) == want


def test_float_near_ties_just_outside_the_tolerance():
    # gaps of 2K times the tolerance, a power of two so that every sum is
    # exact: no exchange cycle of at most K nodes can look tight, and the
    # float matrix's own optimum is returned
    rng = np.random.default_rng(1700)
    for _ in range(300):
        base, tol, K = _near_tie_inputs(rng)
        delta = 2.0 ** np.ceil(np.log2(2 * K * tol))
        C = base + delta * rng.integers(0, 2, size=base.shape)
        tol = _FLOAT_TIE_TOL * float(np.abs(C).max())
        assert delta > 2 * K * tol / 1.01
        want = brute_force_projection(C).labels.tolist()
        assert project_balanced(C).labels.tolist() == want
        assert oracle_projection(C) == want


def test_a_stalled_dual_step_raises(monkeypatch):
    # a line search that never moves the duals must end in an error
    C = np.zeros((12, 3), dtype=np.int64)
    C[:, 0] = 5
    C[:4, 1] = 1
    monkeypatch.setattr(projection.np, "partition", lambda a, kth: np.zeros_like(a))
    with pytest.raises(RuntimeError, match="dual steps"):
        project_balanced(C)


def _count_dual_steps(monkeypatch):
    """List that gains an entry per routing pass of ``_transport``, one
    more than its dual steps: the total excess before and after it."""
    passes = []
    route = projection._route

    def counting(assign, excess, *args):
        before = int(np.maximum(excess, 0).sum())
        reached = route(assign, excess, *args)
        passes.append((before, int(np.maximum(excess, 0).sum())))
        return reached

    monkeypatch.setattr(projection, "_route", counting)
    return passes


def test_exact_line_search_moves_the_overflow_in_few_dual_steps(monkeypatch):
    # Gaussian scores leave one tight arc per node, so a min-slack step
    # frees about one node per dual step (some 200 here, and the proven
    # bound allows over 300); the capped exact line search needs a few
    passes = _count_dual_steps(monkeypatch)
    rng = np.random.default_rng(1800)
    for _ in range(10):
        C = rng.standard_normal((1200, 4)) + np.array([0.5, 0.2, 0.0, 0.0])
        assert _argmax_counts(C).max() - 300 > 50
        passes.clear()
        labels = project_balanced(C).labels.tolist()
        assert len(passes) - 1 <= 40
        assert labels == oracle_projection(C)


# found by random search: without the cap on the step, a node crosses
# between two full clusters and back, and the dual creeps up by 2 per step
ZIGZAG = [
    [96, 40, 38, 75, 2], [120, 92, 89, 0, 36], [42, 100, 74, 125, 38],
    [132, 64, 76, 50, 20], [6, 76, 50, 50, 16], [132, 44, 9, 115, 38],
    [126, 16, 84, 40, 24], [138, 100, 82, 65, 34], [48, 76, 82, 0, 40],
    [30, 76, 74, 65, 50],
]


def test_dual_steps_stay_within_the_proven_bound(monkeypatch):
    passes = _count_dual_steps(monkeypatch)
    rng = np.random.default_rng(1900)
    mats = [np.array(ZIGZAG)]
    for _ in range(1500):
        K = int(rng.integers(3, 7))
        n = K * int(rng.integers(1, 6))
        C = rng.integers(0, int(rng.integers(2, 30)), (n, K)) * rng.integers(1, 10, K)
        C[:, rng.integers(K)] += rng.integers(0, 5, n)
        mats.append(C)
    for C in mats:
        n, K = C.shape
        excess = np.maximum(_argmax_counts(C) - n // K, 0).sum()
        passes.clear()
        labels = project_balanced(C).labels.tolist()
        assert len(passes) - 1 <= (K - 1) * excess
        # a dual step never raises the excess: no cluster overfills
        assert all(nxt[0] <= prev[1] for prev, nxt in zip(passes, passes[1:]))
        if C is mats[0]:
            assert labels == brute_force_projection(C).labels.tolist()
