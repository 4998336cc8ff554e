"""CSV files and edge sets pinned for fixed seeds.

For a fixed seed every output of the package is byte-identical apart from
wall-time columns; the digests below were recorded before the package's
seeding, validation and edge canonicalization were consolidated, and any
change to a random stream or a CSV format shows up here.
"""

import csv
import hashlib
import warnings

import numpy as np
import pytest

from hyperclust.core import Assignment
from hyperclust.experiments import (
    GridConfig,
    convergence_trace,
    phase_transition,
    votes_hypergraph,
)
from hyperclust.sampler import ModelParams, sample, uniformize


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def csv_digest(path, drop=()):
    """Digest of a CSV with the named columns removed."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [j for j, name in enumerate(rows[0]) if name not in drop]
    text = "\n".join(",".join(row[j] for j in keep) for row in rows)
    return digest(text.encode())


def test_phase_transition_csvs_are_pinned(tmp_path):
    # alpha=400 leaves [0, 1] at n=18, so one row of cells is skipped
    cfg = GridConfig(18, 3, 3, (5.0, 30.0, 400.0), (1.0, 4.0), trials=2, base_seed=11)
    out = tmp_path / "phase.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phase_transition(cfg, out)
    # spectral starts from the Chebyshev-filtered eigensolver, rounded by pivoted QR
    assert csv_digest(out, drop=("wall_ms",)) == "01631e93629eedbf"
    assert digest((tmp_path / "phase_ratio.csv").read_bytes()) == "cac2469038a672e1"
    assert digest((tmp_path / "phase_threshold.csv").read_bytes()) == "6b9c0f68e7511427"


def test_convergence_trace_csv_is_pinned(tmp_path):
    out = tmp_path / "conv.csv"
    convergence_trace(30, 3, 2, 40.0, 4.0, restarts=3, max_iters=6, base_seed=9, out=out)
    assert csv_digest(out, drop=("wall_ms",)) == "b63028e9d40029ea"


SAMPLE_DIGESTS = {0: "6ada805499424df4", 1: "95ee45aed598066b", 2**64 + 5: "302999662cf4dc3c"}


@pytest.mark.parametrize("seed", sorted(SAMPLE_DIGESTS))
def test_sample_edges_are_pinned(seed):
    truth = Assignment(np.repeat(np.arange(3), 10), 3, balanced=True)
    g = sample(ModelParams(30, 3, 3, 0.2, 0.01), truth, seed)
    assert digest(g.edges.tobytes()) == SAMPLE_DIGESTS[seed]


# Both pools nearly exhausted (count * 2 > pool), so both are enumerated
# rather than filled by rejection.
ENUMERATED_SAMPLE_DIGESTS = {0: "e6c0f2e2ed28f70a", 1: "f1d2fe72358cec61", 2: "d6c344337097d838"}


@pytest.mark.parametrize("seed", sorted(ENUMERATED_SAMPLE_DIGESTS))
def test_enumerated_sample_edges_are_pinned(seed):
    truth = Assignment(np.repeat(np.arange(2), 6), 2, balanced=True)
    g = sample(ModelParams(12, 3, 2, 0.9, 0.7), truth, seed)
    lab = truth.labels[g.edges]
    n_same = int(np.all(lab == lab[:, :1], axis=1).sum())
    assert 2 * n_same > 40 and 2 * (g.num_edges - n_same) > 180  # pools 40 and 180
    assert digest(g.edges.tobytes()) == ENUMERATED_SAMPLE_DIGESTS[seed]


def test_larger_enumerated_sample_edges_are_pinned():
    # a 60-node dense cell: both pools (8120 and 26100 subsets) are listed
    truth = Assignment(np.repeat(np.arange(2), 30), 2, balanced=True)
    g = sample(ModelParams(60, 3, 2, 0.9, 0.7), truth, 0)
    lab = truth.labels[g.edges]
    n_same = int(np.all(lab == lab[:, :1], axis=1).sum())
    assert 2 * n_same > 8120 and 2 * (g.num_edges - n_same) > 26100
    assert g.num_edges == 25538
    assert digest(g.edges.tobytes()) == "b2ea95aa04de5b52"


def test_votes_hypergraph_edges_are_pinned():
    rng = np.random.default_rng(4)
    votes = rng.choice(np.array(["y", "n", "?"]), size=(24, 16), p=[0.45, 0.45, 0.1])
    g = votes_hypergraph(votes, (1, 5, 9), 0.3, seed=6)
    assert digest(g.edges.tobytes()) == "6eb3978fad1fc848"


def test_uniformize_edges_are_pinned():
    subsets = [(3, 1), (0, 1, 2), (4, 2, 3, 0), (1, 3), (2, 0, 1), (5, 4)]
    g, dummies = uniformize(subsets, 4, 6)
    assert dummies == (6, 7)
    assert digest(g.edges.tobytes()) == "ebdd97ceca049200"
