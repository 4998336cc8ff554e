"""The call-count gates of the benchmark's traced smoke run, in tier-1.

The CI workflow runs the restarts, spectral and phase workloads once with
tracing on and checks how often each layer was called.  A restarts trial
projects once for its start and once per iteration, so ``random_init``
solves no projection.  A spectral start rounds its basis once and never
builds the n x n ``similarity_matrix``.  Everywhere, one score runs per
solver iteration and one tie-break per transport solve.  The same
invariants are checked here on small instances (n <= 600), so that a change
that doubles or skips one of these calls fails tier-1.  Calls are counted
by wrapping the names in ``bench/layers.py`` ``LAYERS``, as the benchmark's
tracer does; the table is read without importing the benchmark package.
A spectral start on the edge operator must also take at most three
quarters of the operator products that the eigensolver's default stop
takes from the same seed, so that a start without its gap-relative stop
fails tier-1.
"""

import importlib
import runpy
import warnings
from collections import Counter
from pathlib import Path

import pytest

from hyperclust import experiments, initializers, solver
from hyperclust.core import seeded_rng
from hyperclust.sampler import LogRegimeParams, to_probabilities

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = runpy.run_path(str(BENCH / "layers.py"))["LAYERS"]


def _counting(counts, layer, fn):
    def counted(*args, **kwargs):
        counts[layer] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch):
    """Calls per layer, counted from the start of the test."""
    counts = Counter()
    for layer, pairs in LAYERS.items():
        for module_name, attr in pairs:
            module = importlib.import_module(f"hyperclust.{module_name}")
            monkeypatch.setattr(module, attr, _counting(counts, layer, getattr(module, attr)))
    return counts


def _planted(n, d, K, alpha, beta, seed):
    return experiments.planted_instance(to_probabilities(LogRegimeParams(n, d, K, alpha, beta)), seed)


def _check_scores_and_tie_breaks(calls, iterations):
    assert calls["core.multilinear_score"] == iterations > 0
    assert calls["projection.lex_min"] == calls["projection.transport"] > 0


def test_restarts_project_once_for_the_start_and_once_per_iteration(calls):
    g, truth = _planted(240, 3, 4, 300.0, 8.0, 1)
    iterations = 0
    for seed in range(4):
        h0 = initializers.random_init(g.n, truth.K, seed)
        iterations += solver.ptpm(g, h0, 30, truth=truth).iterations_run
    assert calls["initializers.random_init"] == calls["solver.ptpm"] == 4
    assert calls["projection.project_balanced"] == iterations + 4
    _check_scores_and_tie_breaks(calls, iterations)


def test_a_spectral_start_on_the_edge_operator_rounds_once(calls):
    g, truth = _planted(600, 4, 4, 840.0, 3.0, 2)
    operator, _ = initializers._spectral_operator(g, truth.K)
    assert isinstance(operator, initializers._EdgeOperator)
    iterations = 0
    for seed in range(2):
        h0 = initializers.spectral_init(g, truth.K, seed, strict=True)
        iterations += solver.ptpm(g, h0, record_trajectory=False).iterations_run
    assert calls["initializers.spectral_init"] == calls["initializers.kmeans"] == 2
    assert calls["initializers.eigensolver"] == 2
    assert calls["initializers.similarity_matrix"] == 0
    # one balancing projection per start, then the solver's own
    assert calls["projection.project_balanced"] == 2 + iterations + 2
    _check_scores_and_tie_breaks(calls, iterations)


def test_a_spectral_start_takes_at_most_three_quarters_of_the_default_products(monkeypatch):
    # spectral_init stops at a residual relative to the eigengap; the
    # default stop of _top_eigenvectors solves to 1e-8 of the shift
    g, truth = _planted(600, 4, 4, 840.0, 3.0, 2)
    products = Counter()
    matmul = initializers._EdgeOperator.__matmul__
    monkeypatch.setattr(initializers._EdgeOperator, "__matmul__", _counting(products, "M @ X", matmul))
    M, shift = initializers._spectral_operator(g, truth.K)
    assert isinstance(M, initializers._EdgeOperator)
    for seed in range(2):
        products.clear()
        initializers._top_eigenvectors(M, truth.K, seeded_rng(seed), scale=shift)
        default = products["M @ X"]
        products.clear()
        initializers.spectral_init(g, truth.K, seed)
        assert 0 < products["M @ X"] <= 0.75 * default


def test_phase_cells_round_once_per_start(calls):
    cells = [(0.0, 0.0), (12.0, 40.0), (60.0, 8.0), (120.0, 24.0)]
    instances = [_planted(210, 3, 3, alpha, beta, cell) for cell, (alpha, beta) in enumerate(cells)]
    assert instances[0][0].num_edges == 0
    iterations = 0
    for seed, (g, truth) in enumerate(instances):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a capped basis on a no-signal cell
            h0 = initializers.spectral_init(g, truth.K, seed, strict=False)
        iterations += solver.ptpm(g, h0, record_trajectory=False).iterations_run
    starts = len(cells)
    assert calls["initializers.spectral_init"] == calls["initializers.kmeans"] == starts
    assert calls["initializers.similarity_matrix"] == 0
    assert calls["projection.project_balanced"] == starts + iterations + starts
    _check_scores_and_tie_breaks(calls, iterations)
