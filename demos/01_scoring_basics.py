"""Hypergraphs, assignments, and the multilinear score matrix.

Walks through the core objects on a graph small enough to print: how a
hyperedge contributes to the score matrix, why every entry is a multiple of
(d-1)!, and how the diagonal of the score matrix recovers the objective.
"""

import math

import numpy as np

from hyperclust import (
    Assignment,
    Hypergraph,
    multilinear_score,
    objective,
)

# A 3-uniform hypergraph on 6 nodes.  Edges are sets of 3 distinct nodes;
# internally they are sorted tuples and the edge list is canonical.
g = Hypergraph.from_edge_list(6, 3, [(0, 1, 2), (0, 1, 3), (3, 4, 5)])
print(f"hypergraph: n={g.n}, d={g.d}, edges={g.edges.tolist()}")

# Label nodes 0-2 as cluster 0 and nodes 3-5 as cluster 1.
h = Assignment(np.array([0, 0, 0, 1, 1, 1]), K=2, balanced=True)
print("labels:", h.labels.tolist())

# score[i, k] counts (times (d-1)! = 2) the edges at node i whose other
# two members both carry label k.
scores = multilinear_score(g, h)
print("score matrix:\n", scores)

# Node 0 sits in {0,1,2} (both others labeled 0) and {0,1,3} (mixed), so
# its row is [2, 0].  Node 3 sees {3,4,5} (both others labeled 1) and
# {0,1,3} (both others labeled 0), so its row is [2, 2].
assert scores[0].tolist() == [2, 0]
assert scores[3].tolist() == [2, 2]

# The same matrix, counted edge by edge: each member whose other members
# share one label gains (d-1)! at that label.
counted = np.zeros((g.n, h.K), dtype=np.int64)
for edge in g.edges.tolist():
    for i in edge:
        others = {h.labels[j] for j in edge if j != i}
        if len(others) == 1:
            counted[i, others.pop()] += math.factorial(g.d - 1)
assert np.array_equal(scores, counted)

# The objective counts monochromatic edges, scaled by d!.  Summing the
# score entries selected by the labeling gives the same number.
print("objective:", objective(g, h))
assert objective(g, h) == 2 * 6  # {0,1,2} and {3,4,5} are monochromatic
assert scores[np.arange(6), h.labels].sum() == objective(g, h)

print("ok: score matrix, edge count, and objective are consistent")
