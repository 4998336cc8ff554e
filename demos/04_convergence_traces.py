"""Distance trajectories from random starting points.

On a single n=480 instance, runs 8 solves from uniformly random balanced
labelings and prints the aligned distance to the planted partition per
iteration.  All restarts reach distance 0 well within 30 iterations, and
the terminal distances only ever take values in {0} or [sqrt(2), inf): on
the balanced one-hot set there is nothing strictly between.
"""

import math

from hyperclust.experiments import convergence_trace

for (d, K, alpha, beta) in [(3, 2, 33.0, 8.0), (3, 4, 130.0, 32.0)]:
    print(f"\n(d, K, alpha, beta) = ({d}, {K}, {alpha:g}, {beta:g}), n = 480")
    traces = convergence_trace(480, d, K, alpha, beta, restarts=8, max_iters=30, base_seed=3)
    for idx, trace in enumerate(traces):
        path = " ".join(f"{rec.distance:.1f}" for rec in trace)
        print(f"  restart {idx}: {path}")
        terminal = trace[-1].distance
        assert terminal == 0.0 or terminal >= math.sqrt(2.0)
    reached = sum(1 for t in traces if t[-1].distance == 0.0)
    print(f"  -> {reached}/8 restarts recovered the planted partition")
