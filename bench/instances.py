"""The benchmark's own seeded planted-partition instance generator.

Kept apart from ``hyperclust.sampler`` on purpose: only the
``planted-d3-k2-n7680`` workload exercises the program's sampler, so a
sampler change that alters its random stream or its memory use leaves the
inputs and the ``peak_rss_mb`` of every other workload untouched.

Model: every d-subset of the n nodes is an edge independently, with
probability p = alpha ln n / n^(d-1) when all members share a planted
cluster and q = beta ln n / n^(d-1) otherwise.  The generator draws the
Binomial edge count of each pool, then that many distinct uniform members
of the pool.  Candidates are sorted d-tuples of uniform node draws (rows
with a repeated member are rejected, so every d-subset is equally likely);
each is encoded as one mixed-radix int64 key and deduplicated with
``np.unique``, so memory stays O(E).  Uniform draws with the duplicates
removed form a uniform random set of their size, and a uniform subset of
that set trims it to the drawn count.
"""

from __future__ import annotations

import math

import numpy as np


def edge_probabilities(n: int, d: int, alpha: float, beta: float) -> tuple[float, float]:
    scale = math.log(n) / n ** (d - 1)
    return alpha * scale, beta * scale


def pools(n: int, d: int, K: int) -> tuple[int, int]:
    """(monochromatic, cross) d-subset counts of a balanced K-partition."""
    same = K * math.comb(n // K, d)
    return same, math.comb(n, d) - same


def planted_labels(n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Balanced planted partition with a random node order."""
    return rng.permutation(np.repeat(np.arange(K, dtype=np.int64), n // K))


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Mixed-radix key of each row; order-preserving for sorted rows."""
    keys = np.zeros(edges.shape[0], dtype=np.int64)
    for j in range(edges.shape[1]):
        keys = keys * n + edges[:, j]
    return keys


def _decode(keys: np.ndarray, n: int, d: int) -> np.ndarray:
    edges = np.empty((keys.size, d), dtype=np.int64)
    rest = keys.copy()
    for j in range(d - 1, -1, -1):
        rest, edges[:, j] = np.divmod(rest, n)
    return edges


def _distinct(rng, count: int, draw) -> np.ndarray:
    """``count`` distinct keys, uniform among those ``draw(size)`` yields."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count:
        keys = np.unique(np.concatenate([keys, draw(int(1.1 * (count - keys.size)) + 64)]))
    if keys.size > count:
        keys = np.sort(rng.choice(keys, size=count, replace=False))
    return keys


def generate(n, d, K, alpha, beta, labels, rng) -> tuple[np.ndarray, int, int]:
    """Edge rows (lexicographically sorted, members increasing) of one
    instance, with its monochromatic and cross edge counts."""
    if n ** d >= 2**63:
        raise ValueError(f"n={n}, d={d} overflows the int64 edge key")
    p, q = edge_probabilities(n, d, alpha, beta)
    same_pool, cross_pool = pools(n, d, K)
    n_same = int(rng.binomial(same_pool, p)) if p > 0 else 0
    n_cross = int(rng.binomial(cross_pool, q)) if q > 0 else 0
    if 2 * n_same > same_pool or 2 * n_cross > cross_pool:
        # rejection sampling stalls on nearly exhausted pools
        raise ValueError("edge density too high for the rejection sampler")
    m = n // K
    cluster_nodes = np.stack([np.flatnonzero(labels == k) for k in range(K)])

    def draw_same(size):
        ks = rng.integers(0, K, size=size)
        locs = np.sort(rng.integers(0, m, size=(size, d)), axis=1)
        ok = np.all(np.diff(locs, axis=1) > 0, axis=1)
        # cluster rows are ascending, so increasing locations map to increasing ids
        return edge_keys(cluster_nodes[ks[ok, None], locs[ok]], n)

    def draw_cross(size):
        rows = np.sort(rng.integers(0, n, size=(size, d)), axis=1)
        lab = labels[rows]
        ok = np.all(np.diff(rows, axis=1) > 0, axis=1) & ~np.all(lab == lab[:, :1], axis=1)
        return edge_keys(rows[ok], n)

    keys = np.concatenate([
        _distinct(rng, n_same, draw_same) if n_same else np.empty(0, dtype=np.int64),
        _distinct(rng, n_cross, draw_cross) if n_cross else np.empty(0, dtype=np.int64),
    ])
    return _decode(np.sort(keys), n, d), n_same, n_cross
