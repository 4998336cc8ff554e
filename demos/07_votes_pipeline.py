"""Voting-records pipeline: hyperedges from shared stances.

Members who record the same stance (y with y, n with n; '?' never matches)
on a chosen issue form candidate triples, each kept with a small
probability; the solver then recovers the two parties from the resulting
3-uniform hypergraph.

With the real 1984 congressional voting file (place it at
data/house-votes-84.data or point HYPERCLUST_UCI_DATA at it) this script
runs the full study: issues 4, 5, 12, 15, edge probability 0.05, best of
10 random restarts.  Without it, a synthetic two-party electorate with the
same format demonstrates the pipeline.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from hyperclust.experiments import uci_votes_pipeline


def synthetic_votes(path, per_party=60, flip=0.1, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for party, base in (("republican", "y"), ("democrat", "n")):
        other = "n" if base == "y" else "y"
        for _ in range(per_party):
            votes = [other if rng.random() < flip else base for _ in range(16)]
            rows.append(",".join([party] + votes))
    path.write_text("\n".join(rows) + "\n")
    return path


real = os.environ.get("HYPERCLUST_UCI_DATA")
if not real:
    candidate = Path(__file__).resolve().parent.parent / "data" / "house-votes-84.data"
    real = str(candidate) if candidate.exists() else None

with tempfile.TemporaryDirectory() as tmp:
    if real:
        data, per_party, label = real, 168, "house-votes-84"
    else:
        data = synthetic_votes(Path(tmp) / "synthetic-votes.data")
        per_party, label = 60, "synthetic electorate"
        print("real voting file not found; falling back to a synthetic one\n")

    g, truth, row = uci_votes_pipeline(
        data,
        columns=(4, 5, 12, 15),
        edge_prob=0.05,
        seed=1,
        restarts=10,
        per_party=per_party,
    )
print(f"dataset: {label} ({2 * per_party} members)")
print(f"hyperedges: {g.num_edges}")
print(f"misclassification rate: {row.misclassification:.3f}")
print(f"iterations of the best restart: {row.iterations_run}")
