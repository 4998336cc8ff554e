"""Random instance generation for the planted-partition hypergraph model.

Every d-subset of nodes becomes a hyperedge independently: with probability
``p`` when all d members share the planted community and with probability
``q`` otherwise.  Sampling draws Binomial counts for the monochromatic and
cross pools and fills each with uniformly chosen distinct subsets through
one drawer: each pool supplies its own batch proposal, filtered by rejection
against a dedup set, and its own enumeration, listed only when the pool is
nearly exhausted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Hypergraph, as_int64, check_divides, seeded_rng

__all__ = [
    "ModelParams",
    "LogRegimeParams",
    "to_probabilities",
    "pool_sizes",
    "sample",
    "uniformize",
]

# pools smaller than this may be enumerated outright when the requested
# count is a large fraction of the pool (avoids coupon-collector stalls)
_ENUMERATION_LIMIT = 2_000_000


def _check_model_shape(n, d, K):
    """Checks that both parametrizations share: n nodes, order d, K | n."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if d < 2:
        raise ValueError("hyperedge order must be >= 2")
    if K < 2:
        raise ValueError("need at least 2 communities")
    check_divides(n, K)


@dataclass(frozen=True)
class ModelParams:
    """Raw probability parametrization (n, d, K, p, q).

    ``p`` and ``q`` live in [0, 1]; zero is allowed so that degenerate
    limits (empty or all-monochromatic hypergraphs) are expressible, and no
    ordering between them is enforced.
    """

    n: int
    d: int
    K: int
    p: float
    q: float

    def __post_init__(self):
        _check_model_shape(self.n, self.d, self.K)
        for name, value in (("p", self.p), ("q", self.q)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name}={value} outside [0, 1]")

    @property
    def m(self) -> int:
        return self.n // self.K


@dataclass(frozen=True)
class LogRegimeParams:
    """Logarithmic-degree parametrization (n, d, K, alpha, beta)."""

    n: int
    d: int
    K: int
    alpha: float
    beta: float

    def __post_init__(self):
        _check_model_shape(self.n, self.d, self.K)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")


def to_probabilities(lp: LogRegimeParams) -> ModelParams:
    """Convert (alpha, beta) to edge probabilities p, q.

    Uses the natural logarithm: p = alpha * ln(n) / n^(d-1) and likewise
    for q.  Raises when either derived probability exceeds 1.
    """
    scale = math.log(lp.n) / lp.n ** (lp.d - 1)
    p = lp.alpha * scale
    q = lp.beta * scale
    if p > 1.0 or q > 1.0:
        raise ValueError(
            f"derived probabilities p={p:.4g}, q={q:.4g} leave [0, 1]; "
            f"alpha/beta too large for n={lp.n}, d={lp.d}"
        )
    return ModelParams(lp.n, lp.d, lp.K, p, q)


def pool_sizes(n: int, d: int, K: int) -> tuple[int, int]:
    """(monochromatic, cross) counts of d-subsets under a balanced partition.

    Exact big-integer combinatorics: the first component is K * C(n/K, d)
    and the two components always sum to C(n, d).
    """
    check_divides(n, K)
    m = n // K
    if d > m:
        raise ValueError(f"degenerate model: d={d} exceeds community size m={m}")
    same = K * math.comb(m, d)
    return same, math.comb(n, d) - same


def sample(params: ModelParams, ground_truth: Assignment, seed: int) -> Hypergraph:
    """Draw one hypergraph; identical arguments give a bit-identical edge set.

    The monochromatic and cross pools get Binomial(pool, prob) edge counts,
    then that many distinct subsets are chosen uniformly from each pool.
    """
    n, d, K = params.n, params.d, params.K
    if ground_truth.n != n or ground_truth.K != K:
        raise ValueError("ground truth shape does not match parameters")
    if not ground_truth.is_balanced:
        raise ValueError("ground truth must be balanced")
    same_pool, cross_pool = pool_sizes(n, d, K)
    rng = seeded_rng(seed)
    n_same = int(rng.binomial(same_pool, params.p)) if params.p > 0 else 0
    n_cross = int(rng.binomial(cross_pool, params.q)) if params.q > 0 else 0

    labels = ground_truth.labels
    m = params.m
    cluster_nodes = np.empty((K, m), dtype=np.int64)
    for k in range(K):
        cluster_nodes[k] = np.flatnonzero(labels == k)

    def propose_same(batch):
        ks = rng.integers(0, K, size=batch)
        locs = np.sort(rng.integers(0, m, size=(batch, d)), axis=1)
        distinct = np.all(np.diff(locs, axis=1) > 0, axis=1)
        return np.take_along_axis(cluster_nodes[ks], locs, axis=1), distinct

    def propose_cross(batch):
        cand = np.sort(rng.integers(0, n, size=(batch, d)), axis=1)
        distinct = np.all(np.diff(cand, axis=1) > 0, axis=1)
        lab = labels[cand]
        return cand, distinct & ~np.all(lab == lab[:, :1], axis=1)

    # generators: a pool is listed only when it is nearly exhausted
    same_subsets = (
        tuple(nodes[list(c)].tolist())
        for nodes in cluster_nodes
        for c in itertools.combinations(range(m), d)
    )
    cross_subsets = (
        c
        for c in itertools.combinations(range(n), d)
        if not np.all(labels[list(c)] == labels[c[0]])
    )

    edges: set[tuple] = set()
    _draw(rng, n_same, same_pool, propose_same, same_subsets, edges)
    _draw(rng, n_cross, cross_pool, propose_cross, cross_subsets, edges)
    return Hypergraph(n, d, np.array(sorted(edges), dtype=np.int64))


def _draw(rng, count, pool, propose, subsets, edges):
    """Add ``count`` distinct subsets of one pool to ``edges``.

    ``propose(batch)`` draws ``batch`` candidate rows, each sorted ascending,
    with a mask of those that lie in the pool; ``subsets`` yields the whole
    pool in a fixed order.  A nearly exhausted pool is enumerated and
    subsampled without replacement; otherwise candidates are drawn in
    batches and kept when the mask allows and the subset is new.
    """
    if count == 0:
        return
    if count * 2 > pool and pool <= _ENUMERATION_LIMIT:
        all_subsets = list(subsets)
        idx = rng.choice(pool, size=count, replace=False)
        edges.update(all_subsets[i] for i in sorted(idx.tolist()))
        return
    need = count
    while need > 0:
        cand, valid = propose(max(64, int(need * 1.3)))
        for row, ok in zip(cand.tolist(), valid.tolist()):
            if not ok:
                continue
            t = tuple(row)
            if t not in edges:
                edges.add(t)
                need -= 1
                if need == 0:
                    break


def uniformize(subsets, d0: int, n: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """Pad variable-size hyperedges with shared dummy nodes up to order d0.

    A subset of size s < d0 receives the fixed dummy node for each missing
    slot j in s+1..d0; the dummy for slot j has 0-based id ``n + j - 3``
    (so 1-based ids n+1 .. n+d0-2).  All padded edges of equal deficit share
    the same dummies.  Returns the d0-uniform hypergraph together with the
    dummy ids, which downstream solvers exclude from the balance constraint.
    Input that is already d0-uniform is returned unchanged with no dummies.
    """
    if d0 < 2:
        raise ValueError("d0 must be >= 2")
    rows = set()
    padded = False
    for subset in subsets:
        t = tuple(sorted(as_int64(list(subset), "node ids").tolist()))
        if not (2 <= len(t) <= d0):
            raise ValueError(f"subset size {len(t)} outside [2, {d0}]")
        if t[-1] >= n:
            raise ValueError("node id out of range")
        if len(t) < d0:
            t = t + tuple(n + j - 3 for j in range(len(t) + 1, d0 + 1))
            padded = True
        rows.add(t)
    dummy_ids = tuple(range(n, n + d0 - 2)) if padded else ()
    return Hypergraph(n + len(dummy_ids), d0, list(rows)), dummy_ids
