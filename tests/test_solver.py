import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hyperclust.core import Assignment, Hypergraph, objective
from hyperclust.experiments import block_truth
from hyperclust.initializers import corrupt, random_init, spectral_init
from hyperclust.metrics import exact_recovery
from hyperclust.sampler import LogRegimeParams, sample, to_probabilities, uniformize
from hyperclust.solver import ptpm, theoretical_iteration_budget

from oracles import _balanced_labelings


def planted_instance(n, d, K, alpha, beta, seed):
    params = to_probabilities(LogRegimeParams(n, d, K, alpha, beta))
    truth = block_truth(n, K)
    return sample(params, truth, seed), truth


# --- iteration budget ---


def test_budget_known_value():
    # ceil(2 ln ln 210) + ceil(2 ln 210 / ln ln 210) + 2 = 4 + 7 + 2
    assert theoretical_iteration_budget(210) == 13


def test_budget_boundary_and_monotonicity():
    assert theoretical_iteration_budget(3) > 0
    assert theoretical_iteration_budget(10**6) > theoretical_iteration_budget(10**3)
    with pytest.raises(ValueError):
        theoretical_iteration_budget(2)


def test_budget_matches_direct_formula():
    for n in [3, 10, 120, 480, 10**5]:
        loglog = math.log(math.log(n))
        expected = math.ceil(2 * loglog) + math.ceil(2 * math.log(n) / loglog) + 2
        assert theoretical_iteration_budget(n) == expected


# --- basic solve behavior ---


def test_zero_iterations_returns_balanced_start():
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2)])
    h0 = block_truth(6, 2)
    report = ptpm(g, h0, 0)
    assert report.iterations_run == 0
    assert report.final.labels.tolist() == h0.labels.tolist()
    assert not report.converged_by_fixed_point


def test_unbalanced_start_is_projected_first():
    g = Hypergraph(4, 3, np.empty((0, 3), dtype=np.int64))
    h0 = Assignment(np.array([0, 0, 0, 1]), 2)
    report = ptpm(g, h0, 0)
    assert report.final.balanced


def test_truth_start_is_a_fixed_point():
    hits = 0
    for seed in range(50):
        g, truth = planted_instance(120, 3, 2, 60.0, 4.0, seed)
        report = ptpm(g, truth, truth=truth)
        if (
            report.iterations_run == 1
            and report.converged_by_fixed_point
            and exact_recovery(report.final, truth)
        ):
            hits += 1
    assert hits >= 48


def test_tiny_instance_exhaustive_basin():
    # two monochromatic triples; any start with >= 2 correct nodes per
    # cluster reaches the planted partition within 2 iterations
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2), (3, 4, 5)])
    truth = block_truth(6, 2)
    for lab in _balanced_labelings(6, 2):
        h0 = Assignment(lab, 2, balanced=True)
        agree = max(
            (lab == truth.labels).sum(),
            (lab == 1 - truth.labels).sum(),
        )
        report = ptpm(g, h0, 2)
        if agree >= 4:  # at least 2 correctly placed nodes per cluster
            assert exact_recovery(report.final, truth)
            assert report.iterations_run <= 2


def test_fixed_point_soundness():
    g, truth = planted_instance(60, 3, 2, 50.0, 2.0, 3)
    report = ptpm(g, corrupt(truth, 3, 1))
    assert report.converged_by_fixed_point
    again = ptpm(g, report.final, 1)
    assert again.final.labels.tolist() == report.final.labels.tolist()


def test_trajectory_is_balanced_and_verbatim():
    g, truth = planted_instance(60, 3, 2, 40.0, 4.0, 7)
    report = ptpm(g, corrupt(truth, 5, 2), 8, truth=truth, early_stop=False)
    assert report.iterations_run == 8
    assert len(report.trajectory) == 9  # start plus one record per iteration
    for rec in report.trajectory:
        assert rec.objective % math.factorial(3) == 0
        assert rec.distance is not None and rec.distance >= 0
    assert objective(g, report.final) == report.trajectory[-1].objective
    assert report.final.balanced


def test_early_stop_off_runs_full_budget():
    g, truth = planted_instance(30, 3, 2, 30.0, 2.0, 1)
    full = ptpm(g, truth, 6, early_stop=False)
    assert full.iterations_run == 6
    assert not full.converged_by_fixed_point


def test_label_permutation_equivariance():
    # relabeling the start relabels every iterate of the trajectory (no
    # projection ties occur on this instance)
    g, truth = planted_instance(60, 3, 2, 50.0, 2.0, 11)
    h0 = corrupt(truth, 4, 5)
    for t in range(1, 6):
        base = ptpm(g, h0, t, early_stop=False)
        flipped = ptpm(g, h0.relabel([1, 0]), t, early_stop=False)
        assert flipped.final.labels.tolist() == (1 - base.final.labels).tolist()


def test_validation_errors():
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        ptpm(g, Assignment(np.array([0, 1, 0]), 2))  # wrong length
    with pytest.raises(ValueError):
        ptpm(g, Assignment(np.zeros(6, dtype=np.int64), 5))  # K does not divide n
    with pytest.raises(ValueError):
        ptpm(g, block_truth(6, 2), -1)


def test_fractional_dummy_ids_are_an_error():
    g = Hypergraph.from_edge_list(7, 3, [(0, 1, 2), (3, 4, 5)])
    h0 = Assignment(np.array([0, 0, 0, 1, 1, 1, 0]), 2)
    with pytest.raises(ValueError, match="dummy ids must be whole numbers"):
        ptpm(g, h0, dummy_ids=(6.9,))
    whole = ptpm(g, h0, dummy_ids=(6.0,)).final.labels.tolist()
    assert whole == ptpm(g, h0, dummy_ids=(6,)).final.labels.tolist()


@pytest.mark.parametrize("dummy_ids", [(0,), (5,), (7,), (-1,), (4, 6)])
def test_dummy_ids_must_be_the_trailing_block(dummy_ids):
    g = Hypergraph.from_edge_list(7, 3, [(0, 1, 2), (3, 4, 5)])
    h0 = Assignment(np.array([0, 0, 0, 1, 1, 1, 0]), 2)
    with pytest.raises(ValueError, match="trailing block of node ids"):
        ptpm(g, h0, dummy_ids=dummy_ids)


def test_duplicated_dummy_ids_count_once():
    g = Hypergraph.from_edge_list(7, 3, [(0, 1, 2), (3, 4, 6)])
    h0 = Assignment(np.array([0, 1, 0, 1, 0, 1, 0]), 2)
    once = ptpm(g, h0, dummy_ids=(6,))
    assert ptpm(g, h0, dummy_ids=(6, 6)).final.labels.tolist() == once.final.labels.tolist()


def test_fractional_iteration_budget_is_an_error():
    g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="max_iters must be a whole number"):
        ptpm(g, block_truth(6, 2), 2.5)
    assert ptpm(g, block_truth(6, 2), 2.0, early_stop=False).iterations_run == 2


# --- non-uniform inputs via dummy nodes ---


def test_dummy_nodes_excluded_from_balance():
    # mixed 2- and 3-edges on a planted two-community graph
    rng = np.random.default_rng(21)
    n, K = 40, 2
    truth = block_truth(n, K)
    subsets = []
    for c in itertools.combinations(range(n), 2):
        prob = 0.4 if truth.labels[c[0]] == truth.labels[c[1]] else 0.02
        if rng.random() < prob:
            subsets.append(c)
    for c in itertools.combinations(range(n), 3):
        lab = truth.labels[list(c)]
        prob = 0.05 if (lab == lab[0]).all() else 0.002
        if rng.random() < prob:
            subsets.append(c)
    g, dummies = uniformize(subsets, 3, n)
    assert dummies == (n,)
    h0 = Assignment(np.concatenate([corrupt(truth, 4, 3).labels, [0]]), K)
    report = ptpm(g, h0, 10, dummy_ids=dummies, truth=truth)
    real_final = Assignment(report.final.labels[:n], K)
    assert real_final.balanced
    assert exact_recovery(real_final, truth)
    assert report.trajectory[-1].distance == 0.0


# --- pinned trajectories ---


def _sparse_planted(n, d, K, n_in, n_out, rng):
    """Planted partition with few edges, so score rows tie often; drawn here
    rather than by the sampler so the pin does not follow its random stream."""
    labels = rng.permutation(np.repeat(np.arange(K), n // K))
    members = [np.flatnonzero(labels == k) for k in range(K)]
    rows = [np.sort(rng.choice(members[rng.integers(K)], d, replace=False)) for _ in range(n_in)]
    rows += [np.sort(rng.choice(n, d, replace=False)) for _ in range(n_out)]
    return Hypergraph(n, d, np.unique(rows, axis=0)), Assignment(labels, K, balanced=True)


# Final labels and every (iteration, objective, distance) record, as the
# solver produced them before its projection took the exact fast routes; the
# spectral starts are those of the Chebyshev-filtered eigensolver, rounded
# by pivoted QR, and the random starts are seeded permutations of the block
# labels.
TRAJECTORY_DIGESTS = {
    (2, "random"): "ca2a626d746f3443",
    (2, "corrupt"): "fe5222069df08dce",
    (2, "spectral"): "5c4614fe6730f4a1",
    (3, "random"): "76e9a9099f30bead",
    (3, "corrupt"): "b5efdc7917f3cf9d",
    (3, "spectral"): "eb48f09e6a4ff186",
    (4, "random"): "e25ff0cdbee921f6",
    (4, "corrupt"): "f1bea7eea2f5bfd2",
    (4, "spectral"): "494b2ad03f1048ef",
}


@pytest.mark.parametrize("K, start", sorted(TRAJECTORY_DIGESTS))
def test_trajectories_are_pinned(K, start):
    g, truth = _sparse_planted(240, 3, K, 500, 500, np.random.default_rng([77, K]))
    if start == "random":
        h0 = random_init(240, K, seed=5)
    elif start == "corrupt":
        h0 = corrupt(truth, 60, seed=5)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h0 = spectral_init(g, K, seed=5, strict=False)
    report = ptpm(g, h0, truth=truth)
    records = [[r.iteration, r.objective, r.distance] for r in report.trajectory]
    blob = json.dumps([report.final.labels.tolist(), records])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == TRAJECTORY_DIGESTS[K, start]


def _padded_planted(n, K, d0, rng):
    """Planted partition with edges of every size 2..d0, padded to order d0."""
    labels = rng.permutation(np.repeat(np.arange(K), n // K))
    subsets = []
    for size in range(2, d0 + 1):
        for _ in range(n):
            c = rng.choice(n, size, replace=False)
            if rng.random() < 0.6:
                c = rng.choice(np.flatnonzero(labels == labels[c[0]]), size, replace=False)
            subsets.append(tuple(c.tolist()))
    g, dummies = uniformize(subsets, d0, n)
    return g, dummies, Assignment(labels, K, balanced=True)


# Final labels and every (iteration, objective, distance) record on inputs
# with padding nodes, as the solver produced them before its projection step
# lost its separate branch for padding, from seeded permutations of the block
# labels.
PADDED_DIGESTS = {(2, 3, 1): "6c01a3bb399229fe", (3, 4, 7): "83951b79e942f8b1"}


@pytest.mark.parametrize("K, d0, seed", sorted(PADDED_DIGESTS))
def test_padded_trajectories_are_pinned(K, d0, seed):
    n = 60
    g, dummies, truth = _padded_planted(n, K, d0, np.random.default_rng([seed, K]))
    assert len(dummies) == d0 - 2
    start = np.concatenate([random_init(n, K, seed=3).labels, np.zeros(len(dummies), dtype=np.int64)])
    report = ptpm(g, Assignment(start, K), truth=truth, dummy_ids=dummies)
    assert not report.final.balanced and Assignment(report.final.labels[:n], K).balanced
    records = [[r.iteration, r.objective, r.distance] for r in report.trajectory]
    blob = json.dumps([report.final.labels.tolist(), records])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PADDED_DIGESTS[K, d0, seed]


@pytest.mark.parametrize("K, d0, seed", sorted(PADDED_DIGESTS))
def test_uniformize_pads_with_the_trailing_block_in_any_order(K, d0, seed):
    n = 60
    g, dummies, truth = _padded_planted(n, K, d0, np.random.default_rng([seed, K]))
    assert dummies == tuple(range(n, g.n))
    start = np.concatenate([random_init(n, K, seed=3).labels, np.zeros(len(dummies), dtype=np.int64)])
    runs = [ptpm(g, Assignment(start, K), truth=truth, dummy_ids=ids) for ids in (dummies, dummies[::-1])]
    sorted_ids, reversed_ids = (
        [report.final.labels.tolist(), [(r.iteration, r.objective, r.distance, r.changed) for r in report.trajectory]]
        for report in runs
    )
    assert reversed_ids == sorted_ids


def _recording_solver(monkeypatch):
    """Patch the solver's scorer, projection and ``Assignment`` to record
    each score matrix with the iterate it scored, each projection's input and
    output, and how many assignments the solver builds itself."""
    import hyperclust.solver as solver

    seen = {"scored": [], "projected": [], "built": 0}
    score, project, assignment = solver.multilinear_score, solver.project_balanced, solver.Assignment

    def scoring(g, h):
        seen["scored"].append((h, score(g, h)))
        return seen["scored"][-1][1]

    def projecting(C):
        seen["projected"].append((C, project(C)))
        return seen["projected"][-1][1]

    def building(*args, **kwargs):
        seen["built"] += 1
        return assignment(*args, **kwargs)

    monkeypatch.setattr(solver, "multilinear_score", scoring)
    monkeypatch.setattr(solver, "project_balanced", projecting)
    monkeypatch.setattr(solver, "Assignment", building)
    return seen


def test_an_unpadded_step_projects_a_view_of_its_scores(monkeypatch):
    g, _ = planted_instance(60, 3, 2, 40.0, 4.0, 7)
    seen = _recording_solver(monkeypatch)
    report = ptpm(g, random_init(60, 2, seed=4), 6, early_stop=False)
    assert len(seen["scored"]) == report.iterations_run == 6
    assert len(seen["projected"]) == 7 and seen["built"] == 0
    iterates = [out for _, out in seen["projected"]]
    for (scored, scores), (C, _), before in zip(seen["scored"], seen["projected"][1:], iterates):
        assert np.shares_memory(C, scores) and C.shape == scores.shape
        assert scored is before  # each step's iterate is the projection's own output
    assert report.final is iterates[-1]


def test_a_padded_step_builds_one_assignment(monkeypatch):
    g, dummies, _ = _padded_planted(60, 3, 4, np.random.default_rng([7, 3]))
    start = np.concatenate([random_init(60, 3, seed=3).labels, np.zeros(len(dummies), dtype=np.int64)])
    h0 = Assignment(start, 3)
    seen = _recording_solver(monkeypatch)
    report = ptpm(g, h0, 4, early_stop=False, record_trajectory=False, dummy_ids=dummies)
    assert len(seen["projected"]) == report.iterations_run + 1 == 5
    assert seen["built"] == 5
    for (_, scores), (C, _) in zip(seen["scored"], seen["projected"][1:]):
        assert np.shares_memory(C, scores) and C.shape == (60, 3)


# --- trajectory objectives read from the next score matrix ---


def _trajectory_cases():
    """Named runs: (g, h0, ptpm keyword arguments)."""
    g, truth = planted_instance(60, 3, 2, 40.0, 4.0, 7)
    start = corrupt(truth, 5, 2)
    pg, dummies, ptruth = _padded_planted(60, 3, 4, np.random.default_rng([7, 3]))
    pstart = Assignment(np.concatenate([random_init(60, 3, seed=3).labels, np.zeros(len(dummies), dtype=np.int64)]), 3)
    return {
        "fixed point": (g, start, {"truth": truth}),
        "fixed point, no truth": (g, start, {}),
        # from seed 4 the labels stop moving at iteration 6, from seed 0 never
        "budget hit": (g, random_init(60, 2, seed=4), {"truth": truth, "max_iters": 6, "early_stop": False}),
        "budget hit, no truth": (g, random_init(60, 2, seed=0), {"max_iters": 4}),
        "zero iterations": (g, start, {"truth": truth, "max_iters": 0}),
        "one iteration": (g, start, {"max_iters": 1}),
        "padded": (pg, pstart, {"truth": ptruth, "dummy_ids": dummies}),
        "padded budget hit": (pg, pstart, {"dummy_ids": dummies, "max_iters": 2, "early_stop": False}),
    }


TRAJECTORY_CASES = _trajectory_cases()


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trajectory_objectives_match_objective(case):
    g, h0, kw = TRAJECTORY_CASES[case]
    report = ptpm(g, h0, **kw)
    if case.startswith("fixed point") or case == "padded":
        assert report.converged_by_fixed_point
    # iterate t, from a solve of t steps that records no trajectory
    iterates = [
        ptpm(g, h0, t, early_stop=False, record_trajectory=False, dummy_ids=kw.get("dummy_ids", ())).final
        for t in range(report.iterations_run + 1)
    ]
    assert iterates[-1].labels.tolist() == report.final.labels.tolist()
    assert [r.iteration for r in report.trajectory] == list(range(len(iterates)))
    for rec, a in zip(report.trajectory, iterates):
        assert rec.objective == objective(g, a)
    assert report.trajectory[0].changed == 0
    for rec, before, after in zip(report.trajectory[1:], iterates, iterates[1:]):
        assert rec.changed == int(np.count_nonzero(before.labels != after.labels))


def test_objective_is_counted_at_most_once(monkeypatch):
    import hyperclust.solver as solver

    calls = {}
    for name in ("multilinear_score", "objective"):

        def counted(*args, _fn=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    for g, h0, kw in TRAJECTORY_CASES.values():
        for record in (True, False):
            calls.update(multilinear_score=0, objective=0)
            report = ptpm(g, h0, **kw, record_trajectory=record)
            assert calls["multilinear_score"] == report.iterations_run
            assert calls["objective"] <= (1 if record else 0)
            if report.converged_by_fixed_point:
                assert calls["objective"] == 0
            if report.iterations_run == 0 and record:
                assert calls["objective"] == 1


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trace_splits_step_time(case):
    g, h0, kw = TRAJECTORY_CASES[case]
    start, *steps = ptpm(g, h0, **kw).trajectory
    assert start.score_ms == start.project_ms == 0.0
    for rec in steps:
        assert rec.score_ms >= 0 and rec.project_ms >= 0
        assert rec.score_ms + rec.project_ms <= rec.wall_ms
