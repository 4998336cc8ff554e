"""Projected power iterations over hypergraph scores.

Each step scores every (node, cluster) pair with a pass over the edge list
and projects the score matrix back onto balanced assignments.  The map is
deterministic (the projection breaks ties canonically), so a repeated
iterate is a genuine fixed point and iteration can stop there.

The trajectory's objectives come from the score matrices the iteration
computes anyway: summing, over the nodes, the score of each node's own
cluster gives d! times the monochromatic edge count of the labeling just
scored.  Only an iterate that no later step scores (the last one of a run
that stops on its budget, or the start when no step runs) is counted
separately, with :func:`objective`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Assignment,
    Hypergraph,
    as_int64,
    as_whole,
    check_covers,
    check_divides,
    multilinear_score,
    objective,
)
from .metrics import align_and_distance
from .projection import project_balanced

__all__ = ["TraceRecord", "SolveReport", "ptpm", "theoretical_iteration_budget"]


@dataclass(frozen=True)
class TraceRecord:
    """One trajectory point; ``iteration`` 0 is the balanced starting point.

    ``changed`` counts the labels this iteration moved (0 for the start).
    ``score_ms`` and ``project_ms`` are the parts of ``wall_ms`` spent
    scoring and projecting (both 0 for the start).
    """

    iteration: int
    objective: int
    distance: float | None
    wall_ms: float
    changed: int = 0
    score_ms: float = 0.0
    project_ms: float = 0.0


@dataclass
class SolveReport:
    final: Assignment
    iterations_run: int
    trajectory: list[TraceRecord] | None
    converged_by_fixed_point: bool


def check_max_iters(max_iters, what: str = "max_iters"):
    """``max_iters`` as an int, which must be whole and nonnegative; None
    (the default budget) passes through.  An error names ``what``, the
    option the caller was given."""
    return None if max_iters is None else as_whole(max_iters, what, 0)


def theoretical_iteration_budget(n: int) -> int:
    """Iteration cap ceil(2 ln ln n) + ceil(2 ln n / ln ln n) + 2 (natural
    logs).  It needs n >= 3, so that ln ln n > 0."""
    n = as_whole(n, "the iteration budget's node count", 3)
    loglog = math.log(math.log(n))
    return math.ceil(2.0 * loglog) + math.ceil(2.0 * math.log(n) / loglog) + 2


def ptpm(
    g: Hypergraph,
    h0: Assignment,
    max_iters: int | None = None,
    *,
    early_stop: bool = True,
    truth: Assignment | None = None,
    record_trajectory: bool = True,
    dummy_ids=(),
) -> SolveReport:
    """Run projected power iterations from ``h0``.

    The starting labeling is first projected onto the balanced set, then up
    to ``max_iters`` score-and-project steps are applied, stopping early at
    a fixed point unless ``early_stop`` is disabled.  ``max_iters`` defaults
    to :func:`theoretical_iteration_budget` of the real node count.

    ``dummy_ids`` lists padding nodes (from non-uniform inputs), in any
    order: they must be the trailing block of node ids, ``n_real .. g.n-1``
    with ``n_real`` real nodes before them, as ``sampler.uniformize`` numbers
    them.  They take part in scoring like any node but are excluded from
    the balance constraint: each step projects the leading ``n_real`` score
    rows, and refreshes the padding labels by a plain row argmax with ties
    to the lowest cluster.  ``truth`` may cover all nodes or the real nodes
    only; when given, aligned distances are recorded on the real nodes.

    Each recorded objective is read off the score matrix of the following
    step, which scores that iterate: the sum over nodes of the score of the
    node's own cluster.  A repeated iterate reuses its predecessor's, and
    :func:`objective` is called at most once per solve, for a last iterate
    that no step scored.
    """
    check_covers(g, h0)
    K = h0.K
    dummy = np.unique(as_int64(list(dummy_ids), "dummy ids"))
    n_real = g.n - dummy.size
    if not np.array_equal(dummy, np.arange(n_real, g.n)):
        raise ValueError(f"dummy ids must be the trailing block of node ids, {n_real}..{g.n - 1}")
    check_divides(n_real, K)
    if (max_iters := check_max_iters(max_iters)) is None:
        max_iters = theoretical_iteration_budget(n_real)
    if truth is not None and truth.n not in (g.n, n_real):
        raise ValueError("truth must cover all nodes or the real nodes only")

    def project_step(C):
        a = project_balanced(C[:n_real])  # a view: the real rows lead
        if not dummy.size:
            return a
        # padding rows by argmax, ties to the lowest cluster
        return Assignment(np.concatenate([a.labels, np.argmax(C[n_real:], axis=1)]), K)

    def measure(iteration, a, wall_ms, changed, obj=None, score_ms=0.0, project_ms=0.0):
        # obj stays None until a later step scores this iterate
        dist = None
        if truth is not None:
            cand = a if truth.n == g.n else Assignment(a.labels[:n_real], K)
            _, dist = align_and_distance(cand, truth)
        return TraceRecord(iteration, obj, dist, wall_ms, changed, score_ms, project_ms)

    t0 = time.perf_counter()
    current = project_step(h0.one_hot())
    records = []
    if record_trajectory:
        records.append(measure(0, current, (time.perf_counter() - t0) * 1e3, 0))

    nodes = np.arange(g.n)
    iterations_run = 0
    converged = False
    for t in range(1, max_iters + 1):
        t0 = time.perf_counter()
        scores = multilinear_score(g, current)
        score_ms = (time.perf_counter() - t0) * 1e3
        if record_trajectory:
            obj = int(scores[nodes, current.labels].sum())  # d! x monochromatic edges
            records[-1] = replace(records[-1], objective=obj)
        t1 = time.perf_counter()
        nxt = project_step(scores)
        project_ms = (time.perf_counter() - t1) * 1e3
        iterations_run = t
        changed = int(np.count_nonzero(nxt.labels != current.labels))
        current = nxt
        if record_trajectory:
            wall_ms = (time.perf_counter() - t0) * 1e3
            records.append(
                measure(t, current, wall_ms, changed, None if changed else obj, score_ms, project_ms)
            )
        if early_stop and not changed:
            converged = True
            break
    if record_trajectory and records[-1].objective is None:
        records[-1] = replace(records[-1], objective=objective(g, current))
    return SolveReport(
        final=current,
        iterations_run=iterations_run,
        trajectory=records if record_trajectory else None,
        converged_by_fixed_point=converged,
    )
