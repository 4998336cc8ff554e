import math
import pickle
import tracemalloc

import numpy as np
import pytest

from hyperclust.core import (
    Assignment,
    Hypergraph,
    multilinear_score,
    objective,
    read_assignment,
    read_hypergraph,
    seeded_rng,
    write_assignment,
    write_hypergraph,
)
from hyperclust.initializers import _EdgeOperator, _spectral_operator, random_init

from oracles import _balanced_labelings, dense_multilinear_oracle, edge_set


def random_instance(rng, n, d, K, edge_prob=0.3):
    import itertools

    edges = [c for c in itertools.combinations(range(n), d) if rng.random() < edge_prob]
    g = Hypergraph.from_edge_list(n, d, edges)
    h = Assignment(rng.integers(0, K, size=n), K)
    return g, h


# --- Hypergraph / Assignment construction ---


def test_hypergraph_canonical_form():
    g = Hypergraph.from_edge_list(5, 3, [(4, 2, 0), (1, 2, 3)])
    assert g.edges.tolist() == [[0, 2, 4], [1, 2, 3]]
    assert g.num_edges == 2


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(4, 3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(4, 3, [(0, 1, 4)])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(4, 3, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(4, 3, np.array([[0, 2, 1]]))  # not increasing


@pytest.mark.parametrize("build", [Hypergraph, Hypergraph.from_edge_list], ids=["init", "from_edge_list"])
def test_hypergraph_rejects_fractional_node_ids(build):
    for edges in ([[0.5, 1.7]], [[0.0, np.nan]], [[1.0, np.inf]], [[0.0, 1e30]]):
        with pytest.raises(ValueError, match="whole numbers"):
            build(5, 2, edges)
    assert build(5, 2, [[0.0, 1.0]]).edges.tolist() == [[0, 1]]
    assert build(5, 2, []).num_edges == 0


ROWS = [[1, 2, 3], [0, 2, 4], [0, 1, 4], [0, 1, 3]]


@pytest.mark.parametrize(
    "edges",
    [ROWS, np.array(ROWS, dtype=np.float64), np.array(ROWS, dtype=np.int32)],
    ids=["unsorted", "whole-floats", "int32"],
)
def test_hypergraph_stores_edges_member_position_major(edges):
    n, d, K = 200, 3, 2
    g = Hypergraph(n, d, edges)
    assert g.members.shape == (d, 4) and g.members.dtype == np.int64
    assert g.members.flags.c_contiguous and not g.members.flags.writeable
    assert g.edges.shape == (4, d) and not g.edges.flags.writeable
    assert np.shares_memory(g.edges, g.members)
    assert g.edges.tolist() == sorted(ROWS)
    # n^2 > 64 (E + nK): the spectral start takes products from the edge list,
    # which needs its own writeable index array
    M, _ = _spectral_operator(g, K)
    assert isinstance(M, _EdgeOperator) and np.array_equal(M.members, g.members)
    assert M.members.flags.writeable and not np.shares_memory(M.members, g.members)


def test_pickle_round_trip_keeps_one_read_only_edge_array():
    g = Hypergraph(6, 3, [[3, 4, 5], [0, 1, 2], [0, 2, 4]])
    h = pickle.loads(pickle.dumps(g))
    assert (h.n, h.d) == (g.n, g.d) and np.array_equal(h.members, g.members)
    assert h.members.flags.c_contiguous and np.shares_memory(h.edges, h.members)
    assert not h.members.flags.writeable and not h.edges.flags.writeable


def test_assignment_rejects_fractional_labels():
    for labels in ([0.7, 1.2], [0.0, np.nan]):
        with pytest.raises(ValueError, match="whole numbers"):
            Assignment(labels, 2)
    assert Assignment([1.0, 0.0], 2, balanced=True).labels.tolist() == [1, 0]
    with pytest.raises(ValueError, match="whole numbers"):
        Assignment([0, 1], 2).relabel([0.5, 1.2])


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment(np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        Assignment(np.array([0, 0, 1]), 2, balanced=True)
    a = Assignment(np.array([0, 1, 1, 0]), 2, balanced=True)
    assert a.balanced and a.n == 4
    assert a.one_hot().tolist() == [[1, 0], [0, 1], [0, 1], [1, 0]]


@pytest.mark.parametrize(
    "labels,K,balanced",
    [([0, 1, 1, 0], 2, True), ([0, 1, 1, 0, 2, 2], 3, True), ([0, 0, 1, 0], 2, False),
     ([0, 1, 1], 2, False), ([0, 1], 3, False), ([0, 0, 0], 1, True)],
    ids=["balanced", "balanced-K3", "unbalanced", "K-does-not-divide-n", "K-above-n", "K1"],
)
def test_balanced_is_worked_out_from_the_labels(labels, K, balanced):
    a = Assignment(labels, K)
    assert a.balanced is balanced
    assert a.relabel(np.arange(K)[::-1]).balanced is balanced
    if balanced:
        assert Assignment(labels, K, balanced=True).balanced
    elif len(labels) % K:
        with pytest.raises(ValueError, match=f"K={K} must divide n={len(labels)}, both positive"):
            Assignment(labels, K, balanced=True)
    else:
        with pytest.raises(ValueError, match="balanced flag set but cluster sizes differ"):
            Assignment(labels, K, balanced=True)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_construction_gathers_each_member_row_without_copying_a_column(layout):
    # the sort order is the one E-length temporary: np.take of a strided
    # column would copy it first
    rng = np.random.default_rng(24)
    n, d = 2000, 3
    rows = np.sort(rng.integers(0, n, size=(60_000, d)), axis=1)
    edges = np.unique(rows[np.all(np.diff(rows, axis=1) > 0, axis=1)], axis=0)
    edges = np.asarray(edges[rng.permutation(len(edges))], order=layout)
    E = len(edges)
    tracemalloc.start()
    try:
        g = Hypergraph(n, d, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.edges, np.unique(edges, axis=0))
    assert peak <= g.members.nbytes + 12 * E


@pytest.mark.parametrize("bad", [5.7, np.float64(2.5), np.nan, np.inf, -np.inf])
def test_sizes_and_seeds_must_be_whole_numbers(bad):
    with pytest.raises(ValueError, match="node count must be a whole number"):
        Hypergraph(bad, 2, [[0, 1]])
    with pytest.raises(ValueError, match="hyperedge order must be a whole number"):
        Hypergraph(6, bad, [[0, 1]])
    with pytest.raises(ValueError, match="cluster count must be a whole number"):
        Assignment([0, 1, 1, 0], bad)
    with pytest.raises(ValueError, match="seed must be a whole number"):
        seeded_rng(bad)
    with pytest.raises(ValueError, match="seed must be a whole number"):
        random_init(8, 2, bad)


def test_whole_floats_and_numpy_integers_are_accepted():
    g = Hypergraph(6.0, np.int32(2), [[0, 1]])
    assert (g.n, g.d) == (6, 2) and type(g.n) is type(g.d) is int
    assert Assignment([0, 1, 1, 0], np.int64(2)).K == Assignment([0, 1, 1, 0], 2.0).K == 2
    labels = random_init(8, 2, 1).labels.tolist()
    for seed in (1.0, np.uint64(1), 2**64 + 1):  # modulo 2**64
        assert random_init(8, 2, seed).labels.tolist() == labels
    assert seeded_rng(np.uint64(2**64 - 1)).integers(2**32) == seeded_rng(-1).integers(2**32)


def _count_cases():
    """Calls that take a count, each with a fractional one or one below the
    count's floor, and the error."""
    from hyperclust.experiments import GridConfig, block_truth, convergence_trace, load_votes, uci_votes_pipeline
    from hyperclust.initializers import _top_eigenvectors, corrupt, random_init, spectral_init
    from hyperclust.sampler import LogRegimeParams, ModelParams, pool_sizes, uniformize
    from hyperclust.solver import ptpm, theoretical_iteration_budget

    g = Hypergraph(6, 3, [[0, 1, 2], [3, 4, 5]])
    truth = block_truth(6, 2)
    return {
        "Hypergraph no node": (lambda: Hypergraph(0, 3, []), "node count must be at least 1, got 0"),
        "Hypergraph order 1": (lambda: Hypergraph(5, 1, []), "hyperedge order must be at least 2, got 1"),
        "Assignment no cluster": (lambda: Assignment([0], 0), "cluster count must be at least 1, got 0"),
        "ModelParams one node": (lambda: ModelParams(1, 3, 2, 0.1, 0.1), "node count must be at least 2, got 1"),
        "ModelParams order 1": (
            lambda: ModelParams(12, 1, 2, 0.1, 0.1), "hyperedge order must be at least 2, got 1"),
        "ModelParams one community": (
            lambda: ModelParams(12, 3, 1, 0.1, 0.1), "community count must be at least 2, got 1"),
        "uniformize d0 1": (lambda: uniformize([(0, 1)], 1, 4), "d0 must be at least 2, got 1"),
        "iteration budget n 2": (
            lambda: theoretical_iteration_budget(2), "the iteration budget's node count must be at least 3, got 2"),
        "GridConfig no trial": (
            lambda: GridConfig(12, 3, 2, (1.0,), (1.0,), trials=0), "trials must be at least 1, got 0"),
        "GridConfig no thread": (
            lambda: GridConfig(12, 3, 2, (1.0,), (1.0,), threads=0), "threads must be at least 1, got 0"),
        "corrupt negative swaps": (lambda: corrupt(truth, -1, 0), "swaps must be nonnegative, got -1"),
        "corrupt too many swaps": (
            lambda: corrupt(truth, 4, 0), r"swaps must be at most 3 \(2\*swaps <= n=6\), got 4"),
        "ptpm max_iters": (lambda: ptpm(g, truth, -1), "max_iters must be nonnegative, got -1"),
        "eigensolver max_iter": (
            lambda: _top_eigenvectors(np.eye(4), 2, seeded_rng(0), max_iter=0), "max_iter must be at least 1, got 0"),
        "ModelParams K": (lambda: ModelParams(12, 3, 2.5, 0.5, 0.1), "community count must be a whole"),
        "ModelParams d": (lambda: ModelParams(12, 3.5, 2, 0.5, 0.1), "hyperedge order must be a whole"),
        "LogRegimeParams n": (lambda: LogRegimeParams(12.5, 3, 2, 1.0, 1.0), "node count must be a whole"),
        "GridConfig n": (lambda: GridConfig(12.5, 3, 2, (1.0,), (1.0,)), "node count must be a whole"),
        "GridConfig trials": (lambda: GridConfig(12, 3, 2, (1.0,), (1.0,), trials=1.5), "trials must be a whole"),
        "GridConfig threads": (lambda: GridConfig(12, 3, 2, (1.0,), (1.0,), threads=1.5), "threads must be a whole"),
        "GridConfig max_iters": (
            lambda: GridConfig(12, 3, 2, (1.0,), (1.0,), max_iters=1.5), "max_iters must be a whole"),
        "convergence_trace restarts": (
            lambda: convergence_trace(12, 3, 2, 1.0, 1.0, restarts=1.5), "restarts must be a whole"),
        "convergence_trace no restart": (
            lambda: convergence_trace(12, 3, 2, 1.0, 1.0, restarts=0), "restarts must be at least 1"),
        "spectral_init K": (lambda: spectral_init(g, 2.5, 0), "cluster count must be a whole"),
        "random_init n": (lambda: random_init(12.5, 2, 0), "node count must be a whole"),
        "random_init K": (lambda: random_init(12, 2.5, 0), "cluster count must be a whole"),
        "block_truth K": (lambda: block_truth(12, 2.5), "cluster count must be a whole"),
        "uniformize d0": (lambda: uniformize([(0, 1)], 3.5, 4), "d0 must be a whole"),
        "uniformize n": (lambda: uniformize([(0, 1)], 3, 4.5), "node count must be a whole"),
        "pool_sizes K": (lambda: pool_sizes(10, 3, 2.5), "community count must be a whole"),
        "iteration budget n": (lambda: theoretical_iteration_budget(100.5), "node count must be a whole"),
        # all checked before the file is read
        "uci restarts": (lambda: uci_votes_pipeline("votes.data", restarts=1.5), "restarts must be a whole"),
        "uci no restart": (lambda: uci_votes_pipeline("votes.data", restarts=0), "restarts must be at least 1"),
        "load_votes no member": (
            lambda: load_votes("votes.data", per_party=-3), "per_party must be at least 1, got -3"),
    }


COUNT_CASES = _count_cases()


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_counts_must_be_whole_numbers(case):
    call, message = COUNT_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_float_counts_give_the_int_results():
    from hyperclust.experiments import GridConfig, block_truth, convergence_trace, phase_transition
    from hyperclust.initializers import spectral_init
    from hyperclust.sampler import LogRegimeParams, ModelParams, sample
    from hyperclust.solver import theoretical_iteration_budget

    params = ModelParams(12.0, 3.0, 2.0, 0.5, 0.1)
    assert (params.n, params.d, params.K, params.m) == (12, 3, 2, 6) and type(params.K) is int
    assert LogRegimeParams(12.0, 3, 2.0, 1.0, 1.0).n == 12
    g = sample(params, block_truth(12, 2), 0)
    assert np.array_equal(g.edges, sample(ModelParams(12, 3, 2, 0.5, 0.1), block_truth(12, 2), 0).edges)
    assert spectral_init(g, 2.0, 0).labels.tolist() == spectral_init(g, 2, 0).labels.tolist()
    assert theoretical_iteration_budget(100.0) == theoretical_iteration_budget(100)
    grid = dict(alphas=(8.0,), betas=(1.0,), init="random")
    whole_floats = GridConfig(12.0, 3.0, 2.0, trials=2.0, threads=1.0, **grid)
    assert (whole_floats.n, whole_floats.trials, whole_floats.threads) == (12, 2, 1)

    def phase_rows(cfg):  # wall times aside
        return [vars(row) | {"wall_ms": None} for row in phase_transition(cfg)[0]]

    assert phase_rows(whole_floats) == phase_rows(GridConfig(12, 3, 2, trials=2, **grid))

    def traces(n, K, restarts):  # wall times aside
        runs = convergence_trace(n, 3, K, 8.0, 1.0, restarts=restarts, max_iters=3)
        return [[(rec.iteration, rec.objective, rec.distance) for rec in run] for run in runs]

    assert traces(12.0, 2.0, 2.0) == traces(12, 2, 2)


@pytest.mark.parametrize("labels", [np.eye(2, dtype=int), 1, [[0, 1, 1, 0]], np.zeros((2, 2, 1), int)])
def test_assignment_rejects_labels_that_are_not_one_dimensional(labels):
    with pytest.raises(ValueError, match="1-d"):
        Assignment(labels, 2)


def test_assignment_relabel():
    a = Assignment(np.array([0, 1, 2, 0]), 3)
    b = a.relabel([2, 0, 1])
    assert b.labels.tolist() == [2, 0, 1, 2]


# --- scoring: frozen examples ---


def test_score_empty_edges_is_zero():
    g = Hypergraph(4, 3, np.empty((0, 3), dtype=np.int64))
    h = Assignment(np.array([0, 1, 0, 1]), 2)
    assert not multilinear_score(g, h).any()
    assert not dense_multilinear_oracle(g, h).any()
    assert objective(g, h) == 0


def test_score_single_edge_example():
    # one 3-edge; only the node whose co-members are monochromatic scores
    g = Hypergraph.from_edge_list(4, 3, [(0, 1, 2)])
    h = Assignment(np.array([1, 0, 0, 0]), 2)
    C = multilinear_score(g, h)
    expected = np.zeros((4, 2), dtype=np.int64)
    expected[0, 0] = 2  # (d-1)! = 2 ordered tuples of the pair {1, 2}
    assert np.array_equal(C, expected)
    assert np.array_equal(dense_multilinear_oracle(g, h), expected)


def test_score_d2_reduces_to_adjacency_product():
    rng = np.random.default_rng(0)
    g, h = random_instance(rng, 7, 2, 3, edge_prob=0.4)
    A = np.zeros((7, 7), dtype=np.int64)
    for i, j in g.edges.tolist():
        A[i, j] = A[j, i] = 1
    assert np.array_equal(multilinear_score(g, h), A @ h.one_hot())


def test_score_rejects_length_mismatch():
    g = Hypergraph.from_edge_list(4, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        multilinear_score(g, Assignment(np.array([0, 1, 0]), 2))
    with pytest.raises(ValueError):
        objective(g, Assignment(np.array([0, 1, 0]), 2))


def test_oracle_refuses_large_inputs():
    g = Hypergraph.from_edge_list(12, 3, [(0, 1, 2)])
    h = Assignment(np.zeros(12, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        dense_multilinear_oracle(g, h)


# --- objective: frozen examples ---


def test_objective_single_monochromatic_edge():
    g = Hypergraph.from_edge_list(3, 3, [(0, 1, 2)])
    h = Assignment(np.array([1, 1, 1]), 2)
    assert objective(g, h) == 6  # d! orderings of one edge


def test_objective_two_planted_triples_brute_force():
    # both within-cluster triples of the balanced truth on n=6, K=2
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2), (3, 4, 5)])
    truth = np.array([0, 0, 0, 1, 1, 1])
    values = []
    for lab in _balanced_labelings(6, 2):
        values.append(objective(g, Assignment(lab, 2)))
    values = np.array(values)
    assert values.max() == 12
    # only the truth partition (both labelings of it) achieves the optimum
    assert (values == 12).sum() == 2
    # swapping a single cross pair of the truth kills every monochromatic edge
    swapped = truth.copy()
    swapped[0], swapped[3] = 1, 0
    assert objective(g, Assignment(swapped, 2)) == 0


# --- oracle equivalence and invariants on random instances ---


@pytest.mark.parametrize("d", [2, 3, 4])
def test_oracle_equivalence(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(40):
        n = int(rng.integers(d, 9))
        K = int(rng.choice([2, 4]))
        g, h = random_instance(rng, n, d, K)
        assert np.array_equal(multilinear_score(g, h), dense_multilinear_oracle(g, h))


def test_score_objective_identity():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(d, 9))
        K = int(rng.choice([2, 3, 4]))
        g, h = random_instance(rng, n, d, K)
        C = multilinear_score(g, h)
        assert C[np.arange(n), h.labels].sum() == objective(g, h)


def test_score_divisibility_and_nonnegativity():
    rng = np.random.default_rng(8)
    for _ in range(40):
        d = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(d, 9))
        g, h = random_instance(rng, n, d, 2)
        C = multilinear_score(g, h)
        assert (C >= 0).all()
        assert (C % math.factorial(d - 1) == 0).all()


def test_label_permutation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(30):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(d, 9))
        K = 3
        g, h = random_instance(rng, n, d, K)
        perm = rng.permutation(K)
        hp = h.relabel(perm)
        C, Cp = multilinear_score(g, h), multilinear_score(g, hp)
        # column k of the relabeled score sits at column perm[k]
        assert np.array_equal(Cp[:, perm], C)
        assert objective(g, h) == objective(g, hp)


# --- keyed-bincount scorer against the per-position sweep ---


def add_at_sweep(g, h):
    """The scorer as it was before the keyed bincount: one np.add.at per
    member position, over the edges whose other labels agree (test oracle)."""
    scores = np.zeros((g.n, h.K), dtype=np.int64)
    fact = math.factorial(g.d - 1)
    edge_labels = h.labels[g.edges]
    for j in range(g.d):
        others = np.delete(edge_labels, j, axis=1)
        uniform = np.all(others == others[:, :1], axis=1)
        np.add.at(scores, (g.edges[uniform, j], others[uniform, 0]), fact)
    return scores


def random_sparse_instance(rng, n, d, K, m):
    """Up to ``m`` random d-sets on n nodes.  Some instances draw edges on
    the lower half of the nodes only, leaving the rest isolated; some put a
    third of the nodes in cluster 0, for many monochromatic edges."""
    pool = max(d, n // 2) if rng.random() < 0.3 else n
    rows = np.sort(rng.integers(0, pool, size=(m, d)), axis=1)
    rows = rows[np.all(np.diff(rows, axis=1) > 0, axis=1)]
    labels = rng.integers(0, K, size=n)
    if rng.random() < 0.3:
        labels[: n // 3] = 0
    return Hypergraph(n, d, np.unique(rows, axis=0)), Assignment(labels, K)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_score_matches_add_at_sweep(d, K):
    rng = np.random.default_rng([31, d, K])
    for _ in range(12):
        n = int(rng.integers(d, 3000))
        g, h = random_sparse_instance(rng, n, d, K, int(rng.integers(0, 3 * n)))
        C = multilinear_score(g, h)
        assert C.dtype == np.int64 and C.shape == (n, K)
        assert np.array_equal(C, add_at_sweep(g, h))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_score_degenerate_inputs(d):
    n = 50
    rng = np.random.default_rng(d)
    g, _ = random_sparse_instance(rng, n, d, 3, 200)
    empty = Hypergraph(n, d, np.empty((0, d), dtype=np.int64))
    for K in [1, 2, 3, 4]:
        single = Assignment(np.full(n, K - 1), K)  # one label for every node
        mixed = Assignment(rng.integers(0, K, size=n), K)
        for graph in (g, empty):
            for h in (single, mixed):
                C = multilinear_score(graph, h)
                assert C.dtype == np.int64 and C.shape == (n, K)
                assert np.array_equal(C, add_at_sweep(graph, h))
        assert not multilinear_score(empty, mixed).any()
        # with one label, each node scores its degree times (d-1)!, in that column
        degree = np.bincount(g.edges.ravel(), minlength=n)
        assert np.array_equal(multilinear_score(g, single)[:, K - 1], degree * math.factorial(d - 1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_score_matches_dense_oracle_every_K(d):
    rng = np.random.default_rng(200 + d)
    for K in [1, 2, 3, 4]:
        for _ in range(10):
            n = int(rng.integers(d, 9))
            g, h = random_instance(rng, n, d, K, edge_prob=float(rng.choice([0.0, 0.3, 0.8])))
            assert np.array_equal(multilinear_score(g, h), dense_multilinear_oracle(g, h))


# --- compact label dtype: K next to the uint8 / uint16 / uint32 boundaries ---


def top_labels(rng, n, K, few=3):
    """Labels from the top ``few`` clusters, so that the counts of real
    columns sit right next to the spare column K; sometimes one node in
    cluster 0, so the smallest code occurs too."""
    labels = rng.integers(K - few, K, size=n)
    if rng.random() < 0.5:
        labels[rng.integers(0, n)] = 0
    return Assignment(labels, K)


def check_score(g, h, oracle):
    C = multilinear_score(g, h)
    assert C.dtype == np.int64 and C.shape == (g.n, h.K)
    assert np.array_equal(C, oracle(g, h))
    assert objective(g, h) == C[np.arange(g.n), h.labels].sum()
    return C


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("K", [255, 256, 257, 65535, 65536])
def test_score_matches_add_at_sweep_at_dtype_boundaries(d, K):
    rng = np.random.default_rng([47, d, K])
    n = 40  # keeps the n x K count small at K = 65536
    for _ in range(6):
        g, _ = random_sparse_instance(rng, n, d, 2, int(rng.integers(1, 8 * n)))
        check_score(g, top_labels(rng, n, K), add_at_sweep)
    empty = Hypergraph(n, d, np.empty((0, d), dtype=np.int64))
    assert not check_score(empty, top_labels(rng, n, K), add_at_sweep).any()
    for label in (0, K - 1):  # one label for every node
        check_score(g, Assignment(np.full(n, label), K), add_at_sweep)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_score_matches_dense_oracle_large_K(d):
    rng = np.random.default_rng(300 + d)
    for K in [255, 256, 257, 300, *rng.integers(5, 300, size=3).tolist()]:
        for _ in range(4):
            n = int(rng.integers(d, 10))
            g, _ = random_instance(rng, n, d, 2, edge_prob=float(rng.choice([0.0, 0.5, 0.9])))
            check_score(g, top_labels(rng, n, K), dense_multilinear_oracle)
        check_score(g, Assignment(np.full(n, K - 1), K), dense_multilinear_oracle)


def test_score_memory_stays_below_an_int64_label_gather():
    # the old scorer's (E, d) int64 label gather alone took 8 d E bytes
    rng = np.random.default_rng(5)
    n, d, K = 2000, 3, 4
    rows = np.sort(rng.integers(0, n, size=(60_000, d)), axis=1)
    g = Hypergraph(n, d, np.unique(rows[np.all(np.diff(rows, axis=1) > 0, axis=1)], axis=0))
    E = g.num_edges
    assert E >= 50_000
    allowance = 4 * 8 * n * (K + 1)  # the n x (K+1) counts and the output
    planted = np.repeat(np.arange(K), n // K)
    for labels in (rng.integers(0, K, size=n), planted):
        h = Assignment(labels, K)
        tracemalloc.start()
        try:
            multilinear_score(g, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * E + allowance


# --- text formats ---


def test_hypergraph_roundtrip(tmp_path):
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2), (2, 3, 5)])
    path = tmp_path / "g.txt"
    write_hypergraph(g, path)
    assert path.read_text().splitlines()[0] == "6 3"
    back = read_hypergraph(path)
    assert back.n == 6 and back.d == 3
    assert np.array_equal(back.edges, g.edges)


def test_hypergraph_read_ignores_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n4 2\n1 2\n# another\n3 4\n")
    g = read_hypergraph(path)
    assert edge_set(g) == {(0, 1), (2, 3)}


def test_hypergraph_read_sorts_each_line_and_takes_a_file_of_no_edges(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("5 3\n5 1 3\n2 4 1\n")
    assert read_hypergraph(path).edges.tolist() == [[0, 1, 3], [0, 2, 4]]
    path.write_text("# no edges\n5 3\n")
    g = read_hypergraph(path)
    assert (g.n, g.d, g.num_edges) == (5, 3, 0) and g.members.shape == (3, 0)


def test_assignment_roundtrip(tmp_path):
    a = Assignment(np.array([0, 1, 1, 0]), 2, balanced=True)
    path = tmp_path / "a.txt"
    write_assignment(a, path)
    assert path.read_text() == "1\n2\n2\n1\n"
    back = read_assignment(path)
    assert back.labels.tolist() == a.labels.tolist()
    assert back.balanced


def test_read_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 3\n1 2\n")
    with pytest.raises(ValueError):
        read_hypergraph(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_assignment(empty)


@pytest.mark.parametrize(
    "read,text,line",
    [
        (read_hypergraph, "4 x\n1 2 3\n", 1),
        (read_hypergraph, "4 3\n1 2 3\n1 x 4\n", 3),
        (read_hypergraph, "4 3\n1 2 3.0\n", 2),
        (read_assignment, "# labels\n1\nx\n", 3),
    ],
    ids=["header", "node id", "fractional id", "label"],
)
def test_a_token_that_is_not_an_integer_names_its_line(tmp_path, read, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.txt:{line}: expected integers"):
        read(path)


def test_from_edge_list_rejects_wrong_arity():
    # six ids in 2-sets: a flat reshape to 3 columns would accept them
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(4, 3, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(4, 3, [(0, 1, 2), (1, 2)])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_list(5, 3, [(0, 1, 2, 3)])
