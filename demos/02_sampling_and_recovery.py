"""Sample a planted-partition hypergraph and recover the communities.

Draws an instance in the logarithmic degree regime, builds a spectral
starting point, and refines it with projected power iterations until the
planted partition is recovered exactly.
"""

from hyperclust import (
    align_and_distance,
    exact_recovery,
    ptpm,
    sample,
    spectral_init,
    to_probabilities,
)
from hyperclust.experiments import block_truth
from hyperclust.sampler import LogRegimeParams

# 120 nodes, 2 communities, 3-uniform edges.  alpha/beta control the edge
# probabilities p = alpha ln(n) / n^2 inside and q = beta ln(n) / n^2
# across communities; exact recovery is possible above
# (sqrt(alpha) - sqrt(beta))^2 = K^(d-1) (d-1)! = 8.
n, d, K = 120, 3, 2
lp = LogRegimeParams(n, d, K, alpha=35.0, beta=2.0)
params = to_probabilities(lp)
print(f"p={params.p:.5f}  q={params.q:.5f}")

truth = block_truth(n, K)
g = sample(params, truth, seed=42)
print(f"sampled {g.num_edges} hyperedges")

# Spectral initialization: top-K eigenvectors of the co-occurrence matrix,
# their rows rounded to labels by pivoted QR, then projection onto balanced
# assignments.
h0 = spectral_init(g, K, seed=7)
_, d0 = align_and_distance(h0, truth)
print(f"spectral start: distance to truth {d0:.3f}")

# The solver alternates scoring and balanced projection; it stops at a
# fixed point, which for this instance is the planted partition itself.
report = ptpm(g, h0, truth=truth)
for rec in report.trajectory:
    print(f"  iter {rec.iteration}: objective={rec.objective} distance={rec.distance:.3f}")
print(f"fixed point after {report.iterations_run} iterations")
assert exact_recovery(report.final, truth)
print("ok: exact recovery")
