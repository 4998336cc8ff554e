"""Exponential-time references that define correct behaviour for the tests.

:func:`dense_multilinear_oracle` materializes the dense adjacency tensor and
is the reference for :func:`hyperclust.core.multilinear_score`;
:func:`brute_force_projection` enumerates every balanced assignment and is
the reference for :func:`hyperclust.projection.project_balanced`, tie-break
included.  Both refuse inputs past a small size, since their cost grows as
n^d and n! / (m!)^K.  :func:`greedy_lex_min_over_ties`, the tie-break that
tracks every tied node, is the reference for
:func:`hyperclust.projection._lex_min_over_ties` at any size.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from hyperclust.core import Assignment, Hypergraph, check_covers, check_divides

# largest node counts the oracles accept
DENSE_MAX_N = 10
BRUTE_FORCE_MAX_N = 12


def edge_set(g: Hypergraph) -> set:
    """The hyperedges of ``g`` as a set of tuples of 0-based node ids."""
    return set(map(tuple, g.edges.tolist()))


def dense_multilinear_oracle(g: Hypergraph, h: Assignment) -> np.ndarray:
    """Reference scorer that materializes the dense adjacency tensor.

    Fills in all d! index permutations of every edge and contracts the
    trailing modes with the one-hot label matrix by a literal integer
    einsum.  Exponential in d by design; refuses n > ``DENSE_MAX_N`` or
    d > 4.  Output contract is bit-identical to ``multilinear_score``.
    """
    if g.n > DENSE_MAX_N:
        raise ValueError(f"oracle refuses n={g.n} > {DENSE_MAX_N} (dense tensor is n^d)")
    if g.d > 4:
        raise ValueError(f"oracle refuses d={g.d} > 4")
    check_covers(g, h)
    A = np.zeros((g.n,) * g.d, dtype=np.int64)
    for edge in g.edges.tolist():
        for perm in itertools.permutations(edge):
            A[perm] = 1
    H = h.one_hot()
    letters = "abcdefgh"[: g.d]
    subscripts = letters + "," + ",".join(c + "z" for c in letters[1:]) + "->" + letters[0] + "z"
    return np.einsum(subscripts, A, *([H] * (g.d - 1)))


def brute_force_projection(scores) -> Assignment:
    """Exhaustive oracle for ``project_balanced``.

    Enumerates every balanced assignment in lexicographic label order and
    returns the first one achieving the maximum score sum, i.e. the same
    tie-break as the fast path.  Refuses n > ``BRUTE_FORCE_MAX_N`` since
    the count is n! / (m!)^K.
    """
    C = np.asarray(scores)
    if C.ndim != 2:
        raise ValueError("score matrix must be 2-dimensional")
    n, K = C.shape
    check_divides(n, K)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N}")
    labelings = _balanced_labelings(n, K)
    totals = C[np.arange(n)[None, :], labelings].sum(axis=1)
    best = int(np.argmax(totals))  # first occurrence = lexicographically smallest
    return Assignment(labelings[best], K, balanced=True)


@lru_cache(maxsize=8)
def _balanced_labelings(n: int, K: int) -> np.ndarray:
    """All balanced label sequences for (n, K), lexicographically sorted."""
    m = n // K
    out = []
    lab = [0] * n
    caps = [m] * K

    def rec(i):
        if i == n:
            out.append(lab.copy())
            return
        for k in range(K):
            if caps[k]:
                caps[k] -= 1
                lab[i] = k
                rec(i + 1)
                caps[k] += 1

    rec(0)
    arr = np.array(out, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def greedy_lex_min_over_ties(tight, assign) -> np.ndarray:
    """Node-by-node reference for ``projection._lex_min_over_ties``.

    ``tight`` is a (K, n) tight-arc mask and ``assign`` a balanced
    assignment on its arcs.  The nodes with two or more tight arcs are
    finalized in node order, each at the lowest tight cluster k for which
    the unfinalized nodes can be rerouted along tight arcs to free a slot
    in k: a breadth-first search over the K x K graph whose arc a -> b
    holds the set of unfinalized nodes in a with a tight arc to b, moving
    one witness node along each arc of the path found.
    """
    K = tight.shape[0]
    n_opts = tight.sum(axis=0, dtype=np.int32)
    tied = np.flatnonzero(n_opts > 1)
    cur = np.asarray(assign).tolist()
    opts = {}  # tied node -> its tight clusters, ascending; in node order
    for i in tied.tolist():
        opts[i] = np.flatnonzero(tight[:, i]).tolist()
    # movers[a][b]: unfinalized tied nodes in cluster a with a tight arc to b
    movers = [[set() for _ in range(K)] for _ in range(K)]
    for i, opt in opts.items():
        for b in opt:
            movers[cur[i]][b].add(i)
    for i, opt in opts.items():
        goal = cur[i]
        for b in opt:
            movers[goal][b].discard(i)
        for k in opt:
            if k == goal:
                break
            # can node i take k? only if a slot can be freed by moving
            # unfinalized nodes along tight arcs from k back to goal
            parent = {k: None}
            frontier = [k]
            while frontier and goal not in parent:
                nxt = []
                for a in frontier:
                    for b in range(K):
                        if b not in parent and movers[a][b]:
                            parent[b] = a
                            nxt.append(b)
                frontier = nxt
            if goal in parent:
                b = goal
                while parent[b] is not None:
                    a = parent[b]
                    j = next(iter(movers[a][b]))
                    for c in opts[j]:
                        movers[a][c].discard(j)
                        movers[b][c].add(j)
                    cur[j] = b
                    b = a
                cur[i] = k
                break
    return np.array(cur, dtype=np.int64)
