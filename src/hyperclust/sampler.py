"""Random instance generation for the planted-partition hypergraph model.

Every d-subset of nodes becomes a hyperedge independently: with probability
``p`` when all d members share the planted community and with probability
``q`` otherwise.  Sampling draws Binomial counts for the monochromatic and
cross pools and fills each with uniformly chosen distinct subsets through
one drawer: each pool supplies its own batch proposal, filtered by rejection
against a dedup set, and its own listing, one int64 array of every subset in
the pool, built only when the pool is nearly exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .core import Assignment, Hypergraph, as_int64, as_whole, check_divides, seeded_rng

__all__ = [
    "ModelParams",
    "LogRegimeParams",
    "to_probabilities",
    "pool_sizes",
    "sample",
    "uniformize",
]

def _check_model_shape(n, d, K):
    """Checks that both parametrizations share: n nodes, order d, K | n.
    Returns n, d and K as ints."""
    n, d, K = as_whole(n, "node count", 2), as_whole(d, "hyperedge order", 2), as_whole(K, "community count", 2)
    check_divides(n, K)
    return n, d, K


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
        for name, value in zip(("n", "d", "K"), _check_model_shape(self.n, self.d, self.K)):
            object.__setattr__(self, name, value)
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
        for name, value in zip(("n", "d", "K"), _check_model_shape(self.n, self.d, self.K)):
            object.__setattr__(self, name, value)
        if not (self.alpha >= 0 and self.beta >= 0):  # NaN fails too
            raise ValueError(f"alpha={self.alpha} and beta={self.beta} must be nonnegative")


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
    n, d, K = _check_model_shape(n, d, K)
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
    if not ground_truth.balanced:
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

    def list_same():  # cluster by cluster
        return cluster_nodes[:, _subsets(m, d)].reshape(-1, d)

    def list_cross():
        rows = _subsets(n, d)
        lab = labels[rows]
        return rows[~np.all(lab == lab[:, :1], axis=1)]

    edges: set[tuple] = set()
    _draw(rng, n_same, same_pool, propose_same, list_same, edges)
    _draw(rng, n_cross, cross_pool, propose_cross, list_cross, edges)
    return Hypergraph(n, d, np.array(sorted(edges), dtype=np.int64))


def _subsets(n, d):
    """Every d-subset of ``range(n)`` as one ascending row, in lexicographic order."""
    flat = chain.from_iterable(combinations(range(n), d))
    return np.fromiter(flat, np.int64, count=math.comb(n, d) * d).reshape(-1, d)


def _draw(rng, count, pool, propose, listing, edges):
    """Add ``count`` distinct subsets of one pool to ``edges``.

    ``propose(batch)`` draws ``batch`` candidate rows, each sorted ascending,
    with a mask of those that lie in the pool; ``listing()`` returns the
    whole pool as a (pool, d) int64 array in a fixed order.  A nearly
    exhausted pool (``count * 2 > pool``) is listed and subsampled without
    replacement, whatever its size: the listing holds at most about four
    times the rows kept, and less memory than the tuple set they fill.
    Otherwise candidates are drawn in batches and kept when the mask allows
    and the subset is new, which stays cheap while at least half the pool
    is unused.
    """
    if count * 2 > pool:
        idx = rng.choice(pool, size=count, replace=False)
        edges.update(zip(*listing()[idx].T.tolist()))
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
    The dummies are the trailing block of node ids, after every real node,
    which is what ``solver.ptpm`` requires of its ``dummy_ids``.
    Input that is already d0-uniform is returned unchanged with no dummies.
    """
    d0, n = as_whole(d0, "d0", 2), as_whole(n, "node count")
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
