"""Exact Euclidean projection of a score matrix onto balanced assignments.

Maximizing ``sum_i C[i, label(i)]`` over assignments with exactly ``n/K``
nodes per cluster is equivalent to the nearest-point projection in Frobenius
norm, because the norm of every one-hot balanced matrix is the same.

Ties are resolved deterministically: among all optimal assignments the
lexicographically smallest label sequence is returned (node order first,
then cluster order).  That optimum is unique, and one algorithm returns it
for every input:

1. Every row starts at its argmax, ties to the lowest cluster, with zero
   column potentials, which is dual feasible.
2. :func:`_transport` solves the transportation problem (n unit sources,
   K sinks of capacity n/K): each cluster keeps up to n/K of its rows and
   only the overflow is inserted, along shortest augmenting paths over the
   cluster graph with dual potentials, O(K^2 log n) each.  A balanced start
   has no overflow and is returned as it is.
3. :func:`_lex_min_over_ties` reads the lexicographically smallest optimum
   off the optimal duals: an assignment is optimal iff it is feasible and
   supported on arcs with zero reduced cost, so a greedy pass over the rows
   with two or more such arcs, with a reroute check over the K x K graph of
   those arcs, finalizes the canonical optimum.

Integer score matrices are handled in exact integer arithmetic; float ones
treat reduced costs within a tolerance relative to the matrix scale as
ties.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from .core import Assignment, check_divides

__all__ = ["project_balanced", "brute_force_projection"]

# Reduced-cost tie tolerance for float inputs, relative to the largest
# magnitude entry.  Must sit well above accumulated roundoff (~1e-15) and
# well below any gap a test could distinguish.
_FLOAT_TIE_TOL = 1e-13

# Integer inputs are solved in int64 arithmetic, whose intermediate sums of
# entries and column potentials stay exact only with headroom over the
# entries themselves.
_INT_LIMIT = 2**60


def project_balanced(scores) -> Assignment:
    """Balanced assignment maximizing the selected-entry sum of ``scores``.

    Parameters
    ----------
    scores : (n, K) array
        Real or integer score matrix; n must be divisible by K.  NaN or
        infinite entries, and integer entries of magnitude 2**60 or more,
        are rejected.

    Returns
    -------
    Assignment
        Balanced, with the lexicographically smallest optimal label
        sequence under the fixed node/cluster ordering.
    """
    C = np.asarray(scores)
    if C.ndim != 2:
        raise ValueError("score matrix must be 2-dimensional")
    n, K = C.shape
    check_divides(n, K)
    if np.issubdtype(C.dtype, np.integer):
        # checked before the cast, which would wrap large unsigned entries
        if max(-int(C.min()), int(C.max())) >= _INT_LIMIT:
            raise ValueError("integer score entries must lie strictly within +-2**60")
        C = C.astype(np.int64)
        tol = 0
    else:
        if not np.isfinite(C).all():
            raise ValueError("score matrix contains NaN or infinite entries")
        C = C.astype(np.float64)
        # relative to the matrix scale: an absolute floor would swallow
        # genuine gaps in small-magnitude matrices
        tol = _FLOAT_TIE_TOL * float(np.abs(C).max())
    # transportation costs: minimize -scores
    cost = -C
    top = np.argmax(C, axis=1)  # ties to the lowest cluster
    assign, v = _transport(cost, top, n // K)
    return Assignment(_lex_min_over_ties(cost, assign, v, tol), K, balanced=True)


def brute_force_projection(scores, max_n: int = 12) -> Assignment:
    """Exhaustive oracle for :func:`project_balanced`.

    Enumerates every balanced assignment in lexicographic label order and
    returns the first one achieving the maximum score sum, i.e. the same
    tie-break as the fast path.  Refuses n > ``max_n`` since the count is
    n! / (m!)^K.
    """
    C = np.asarray(scores)
    if C.ndim != 2:
        raise ValueError("score matrix must be 2-dimensional")
    n, K = C.shape
    check_divides(n, K)
    if n > max_n:
        raise ValueError(f"brute force refuses n={n} > {max_n}")
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


def _transport(cost, start, m):
    """Min-cost assignment of n unit rows to K columns of capacity m.

    ``cost`` is an (n, K) int64 or float64 array and ``start[i]`` a column
    of least cost in row i.  Returns ``(assign, v)``: ``assign[i]`` is the
    column of row i and ``v`` are column potentials (python ints or floats)
    satisfying ``cost[i][l] - v[l] >= cost[i][a] - v[a]`` for every row i
    assigned to column a (dual feasibility; equality on assigned arcs
    defines the row duals).

    Every row starts at ``start`` with ``v = 0``, which is dual feasible;
    each column keeps its first m such rows by id, and only the overflow
    rows are inserted, one at a time along a shortest augmenting path in
    the residual cluster graph (Dijkstra over K vertices; arc k->l realized
    by the cheapest relocatable row of column k, tracked in lazy heaps).  A
    start without overflow is optimal as it is and is returned at once.
    """
    n, K = cost.shape
    v = [0] * K
    if np.bincount(start, minlength=K).max() <= m:
        return start, v  # balanced start: nothing to route
    assign = start.copy()
    # heaps[k][l]: (cost[j][l] - cost[j][k], j) over rows j assigned to k;
    # a sorted list is a valid heap
    heaps = [[[] for _ in range(K)] for _ in range(K)]
    for k in range(K):
        rows = np.flatnonzero(start == k)
        assign[rows[m:]] = -1  # overflow, routed below
        rows = rows[:m]
        for l in range(K):
            if l != k:
                gap = cost[rows, l] - cost[rows, k]
                idx = np.lexsort((rows, gap))
                heaps[k][l] = list(zip(gap[idx].tolist(), rows[idx].tolist()))
    overflow = np.flatnonzero(assign < 0).tolist()
    counts = np.minimum(np.bincount(start, minlength=K), m).tolist()
    assign = assign.tolist()

    def push_row(j, k):
        cj = cost[j].tolist()
        base = cj[k]
        for l in range(K):
            if l != k:
                heapq.heappush(heaps[k][l], (cj[l] - base, j))

    for i in overflow:
        ci = cost[i].tolist()
        dist = [ci[k] - v[k] for k in range(K)]
        pred = [(-1, -1)] * K  # (source column, witness row); -1 = entry arc
        done = [False] * K
        pq = [(dist[k], k) for k in range(K)]
        heapq.heapify(pq)
        target = -1
        while pq:
            dk, k = heapq.heappop(pq)
            if done[k] or dk > dist[k]:
                continue
            done[k] = True
            if counts[k] < m:
                target = k
                break
            vk = v[k]
            for l in range(K):
                if l == k or done[l]:
                    continue
                h = heaps[k][l]
                while h and assign[h[0][1]] != k:
                    heapq.heappop(h)
                if not h:
                    continue
                nd = dk + h[0][0] + vk - v[l]
                if nd < dist[l]:
                    dist[l] = nd
                    pred[l] = (k, h[0][1])
                    heapq.heappush(pq, (nd, l))
        assert target >= 0, "augmenting path must exist while capacity remains"
        D = dist[target]
        for k in range(K):
            v[k] += min(dist[k], D) if done[k] else D
        # walk the path back to the entry column, applying relocations
        k = target
        moves = []
        while pred[k][0] != -1:
            src, wit = pred[k]
            moves.append((src, k, wit))
            k = src
        for src, dst, wit in moves:
            assign[wit] = dst
            counts[src] -= 1
            counts[dst] += 1
            push_row(wit, dst)
        assign[i] = k
        counts[k] += 1
        push_row(i, k)
    return assign, v


def _lex_min_over_ties(cost, assign, v, tol):
    """Lexicographically smallest optimum over the tight-arc support.

    Every optimal assignment is feasible and supported on arcs whose
    reduced cost ``cost[i][k] - u[i] - v[k]`` vanishes, and conversely.  A
    row with a single tight arc keeps its cluster in every optimum, so only
    rows with two or more take part.  A greedy pass finalizes them in node
    order, trying clusters ascending; a candidate is accepted iff a slot can
    be freed by rerouting unfinalized rows along tight arcs, a search over
    the K x K graph whose arc a->b exists while some such row sits in a
    with a tight arc to b.  The optimum is unique, so the witness rows
    picked along a reroute do not change the result.
    """
    n, K = cost.shape
    v = np.asarray(v)
    col = np.asarray(assign)
    u = cost[np.arange(n), col] - v[col]
    tight = cost - u[:, None] - v[None, :] <= tol
    n_opts = tight.sum(axis=1)
    tied = np.flatnonzero(n_opts > 1)
    if not tied.size:
        return col  # unique support: nothing to break
    cur = col.tolist()
    ks = np.nonzero(tight[tied])[1].tolist()
    ends = np.cumsum(n_opts[tied]).tolist()
    opts = {}  # tied node -> its tight clusters, ascending; in node order
    for i, lo, hi in zip(tied.tolist(), [0] + ends, ends):
        opts[i] = ks[lo:hi]
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
    return cur
