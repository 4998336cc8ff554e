"""Exact Euclidean projection of a score matrix onto balanced assignments.

Maximizing ``sum_i C[i, label(i)]`` over assignments with exactly ``n/K``
nodes per cluster is equivalent to the nearest-point projection in Frobenius
norm, because the norm of every one-hot balanced matrix is the same.

Ties are resolved deterministically: among all optimal assignments the
lexicographically smallest label sequence is returned (node order first,
then cluster order).  That optimum is unique, and one algorithm returns it
for every input:

1. Every node starts at its lowest tight cluster, its argmax up to ties,
   with zero cluster potentials, which is dual feasible.
2. :func:`_transport` solves the transportation problem (n unit sources,
   K sinks of capacity n/K) by a primal-dual method over the K-vertex
   cluster graph: batches of nodes move from overfull to underfull
   clusters along paths of tight arcs, and when no path is left the
   potentials of the unreached clusters rise by an exact line search on
   the dual objective, capped so that no cluster overfills.  Each step is
   O(nK) numpy work plus O(K^2) Python work, with no loop over nodes, and
   there are at most K - 1 dual steps per overflowing node; a balanced
   start is returned as it is.
3. :func:`_lex_min_over_ties` reads the lexicographically smallest optimum
   off the final tight-arc mask: an assignment is optimal iff it is
   feasible and supported on arcs with zero reduced cost, so a greedy pass
   over the nodes with two or more such arcs, with a reroute check over
   the K x K graph of those arcs, finalizes the canonical optimum.

Integer score matrices are handled in exact integer arithmetic; float ones
treat reduced costs within a tolerance relative to the matrix scale as
ties.
"""

from __future__ import annotations

import math
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
        C = C.astype(np.int64, copy=False)
        tol = 0
    else:
        if not np.isfinite(C).all():
            raise ValueError("score matrix contains NaN or infinite entries")
        C = C.astype(np.float64, copy=False)
        # relative to the matrix scale: an absolute floor would swallow
        # genuine gaps in small-magnitude matrices
        tol = _FLOAT_TIE_TOL * float(np.abs(C).max())
    # transportation costs: minimize -scores, cluster-major, so that the
    # per-node reductions over the K clusters run along contiguous rows
    cost = np.negative(C.T, order="C")
    assign, _, tight = _transport(cost, n // K, tol)
    return Assignment(_lex_min_over_ties(tight, assign), K, balanced=True)


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




def _transport(cost, m, tol):
    """Min-cost assignment of n unit nodes to K clusters of capacity m.

    ``cost`` is a (K, n) int64 or float64 array, cluster-major:
    ``cost[k, i]`` is the cost of node i in cluster k.  Returns
    ``(assign, v, tight)``: ``assign[i]`` is the cluster of node i, ``v``
    are cluster potentials (an int64 or float64 array) and ``tight`` is the
    (K, n) mask of the arcs whose reduced cost ``cost[k, i] - v[k] - u[i]``
    is within ``tol`` of zero, where ``u[i]`` is the least of
    ``cost[:, i] - v``.  Every node is assigned along a tight arc, so the
    pair is dual feasible and complementary up to ``tol``, hence optimal.

    Primal-dual method for the transportation problem (Ford & Fulkerson,
    Nav. Res. Logist. Q. 4, 1957), moving nodes in bulk over the K-vertex
    cluster graph.  Every node starts at its lowest tight cluster with
    ``v = 0``; a start without an overfull cluster is returned at once.
    Otherwise each pass of the loop does two things:

    1. Routing.  Arc a -> b exists while some node of cluster a has a tight
       arc to b; the arc counts come from one ``bincount`` over
       ``assign * K + k`` on the nodes with two or more tight arcs.  While
       a breadth-first search from the overfull clusters reaches an
       underfull one, a whole batch moves along that path: the least of the
       source's excess, the target's free slots and every arc's count.
    2. Dual step.  The clusters S that the search did not reach hold every
       free slot.  Raising ``v`` on S lowers by the same amount the reduced
       cost of every arc into S, and a node of a reached cluster crosses
       into S, to its lowest tight cluster there, once the rise passes its
       slack ``min over S of cost[k, i] - v[k] - u[i]``.  The dual
       objective ``g(v) = sum(u) + m * sum(v)`` rises at rate: free slots
       minus crossed nodes, so the exact line search is the deficit-th
       smallest slack (``np.partition``).  The step is capped so that no
       cluster of S takes more nodes than it has free slots: at the
       (f + 1)-th smallest slack of the nodes that would cross into a
       cluster with f free slots.  The node at the step gains a tight arc
       into S.

    A pass is O(nK) numpy work plus O(K^2) Python work per routed batch,
    with no loop over nodes.

    Termination, in exact arithmetic, with E the total excess and E0 its
    start: routing lowers E by at least one per batch and leaves ``v``
    alone.  A dual step never raises E, since the cap keeps every cluster
    of S at most full.  If a node crossed, E falls at once (it left an
    overfull cluster) or in the next routing: the first cluster on the
    search path to the node's cluster that lost a node is now underfull
    and still reachable, because the clusters before it kept their nodes
    and their tight arcs.  If no node crossed, the reached set keeps its
    arcs and gains a cluster or a path to a free slot.  Underfull clusters
    are never reached, so at most K - 1 dual steps separate two falls of
    E: at most (K - 1) * E0 dual steps.  Without the cap, nodes could
    cross into full clusters and back, and the steps would depend on the
    magnitudes of the costs.  The loop raises ``RuntimeError`` after
    ``K * E0`` dual steps, which leaves room for float slacks within
    ``tol`` of a step, rather than spin.  Integer potentials are updated
    in Python integers and must stay below 2**62, which with entries below
    2**60 keeps every int64 reduced cost exact; in randomized tests they
    never exceeded the largest row spread of the matrix, and a breach
    raises ``RuntimeError`` too.
    """
    K, n = cost.shape
    rows = np.arange(n)
    v = np.zeros(K, dtype=cost.dtype)
    red, u = cost, cost.min(axis=0)  # cost - v, and its least entry per node
    tight = red <= u + tol
    multi = np.flatnonzero(tight.sum(axis=0, dtype=np.int32) > 1)
    # lowest tight cluster: the only one for most nodes, argmax for the rest
    assign = (np.arange(K)[:, None] * tight).sum(axis=0)
    assign[multi] = np.argmax(tight[:, multi], axis=0)
    excess = np.bincount(assign, minlength=K) - m
    max_steps = K * int(excess[excess > 0].sum())
    limit = 2**62 if cost.dtype.kind == "i" else math.inf
    steps = 0
    while True:
        reached = _route(assign, excess, tight, multi)
        if reached is None:
            return assign, v, tight
        steps += 1
        if steps > max_steps:
            raise RuntimeError(f"balanced projection took more than {max_steps} dual steps")
        unreached = np.flatnonzero(~reached)
        free = (-excess[unreached]).tolist()  # slots left in each
        out = red[unreached]
        low = out.min(axis=0)
        inside = np.flatnonzero(reached[assign])
        slack = (low - u)[inside]
        step = np.partition(slack, sum(free) - 1)[sum(free) - 1]
        # no cluster may take more nodes than it has free slots; only the
        # nodes within the uncapped step can cross
        near = np.flatnonzero(slack <= step)
        nodes = inside[near]
        dest = np.argmax(out[:, nodes] <= low[nodes] + tol, axis=0)
        for j, f in enumerate(free):
            sj = slack[near[dest == j]]
            if sj.size > f:
                step = min(step, np.partition(sj, f)[f])
        step = step.item()
        vs = v.tolist()
        for k in unreached.tolist():
            vs[k] += step
        base = min(vs)
        vs = [x - base for x in vs]
        if max(vs) >= limit:
            raise RuntimeError("balanced projection: cluster potentials outgrew int64")
        v = np.array(vs, dtype=cost.dtype)
        if red is cost:  # one buffer for every step: fresh ones cost page faults
            red = np.empty_like(cost)
        np.subtract(cost, v[:, None], out=red)
        u = red.min(axis=0)
        tight = red <= u + tol
        lost = np.flatnonzero(~tight.ravel()[assign * n + rows])  # own arc
        assign[lost] = np.argmax(tight[:, lost], axis=0)
        multi = np.flatnonzero(tight.sum(axis=0, dtype=np.int32) > 1)
        excess = np.bincount(assign, minlength=K) - m


def _route(assign, excess, tight, multi):
    """Routing phase of :func:`_transport`, updating ``assign`` and
    ``excess`` in place.

    Moves batches of nodes from overfull to underfull clusters along
    shortest paths of tight arcs until no path is left.  Returns None when
    no cluster is overfull, else the mask of clusters reachable from an
    overfull one, none of which is underfull.  Only the ``multi`` nodes,
    those with two or more tight arcs, can move.
    """
    K = excess.size
    arcs = tight[:, multi]
    home = assign[multi]
    count = np.bincount((home * K + np.arange(K)[:, None])[arcs], minlength=K * K)
    count = count.reshape(K, K).tolist()  # count[a][b]: movers from a to b
    ex = excess.tolist()
    while True:
        sources = [k for k in range(K) if ex[k] > 0]
        if not sources:
            assign[multi] = home
            excess[:] = ex
            return None
        parent = [-2] * K  # -2 unreached, -1 source
        for k in sources:
            parent[k] = -1
        frontier, target = sources, -1
        while frontier and target < 0:
            nxt = []
            for a in frontier:
                for b in range(K):
                    if parent[b] == -2 and count[a][b]:
                        parent[b] = a
                        nxt.append(b)
                        if ex[b] < 0:
                            target = b
                            break
                if target >= 0:
                    break
            frontier = nxt
        if target < 0:
            assign[multi] = home
            excess[:] = ex
            return np.array([p != -2 for p in parent])
        path = []  # arcs from the target back to the source
        b = target
        while parent[b] >= 0:
            path.append((parent[b], b))
            b = parent[b]
        batch = min(ex[b], -ex[target], *(count[a][c] for a, c in path))
        # the target end first, so no node entering a cluster moves on
        for a, c in path:
            sel = np.flatnonzero((home == a) & arcs[c])[:batch]
            home[sel] = c
            for k, t in enumerate(arcs[:, sel].sum(axis=1).tolist()):
                count[a][k] -= t
                count[c][k] += t
        ex[b] -= batch
        ex[target] += batch


def _lex_min_over_ties(tight, assign):
    """Lexicographically smallest optimum over the tight-arc support.

    ``tight`` is the final (K, n) tight mask of :func:`_transport` and
    ``assign`` its optimal assignment.  Every optimal assignment is
    feasible and supported on tight arcs, and conversely.  A node with a
    single tight arc keeps its cluster in every optimum, so only nodes with
    two or more take part; without any, ``assign`` is returned as it is.
    A greedy pass finalizes them in node order, trying clusters ascending;
    a candidate is accepted iff a slot can be freed by rerouting
    unfinalized nodes along tight arcs, a search over the K x K graph whose
    arc a->b exists while some such node sits in a with a tight arc to b.
    The optimum is unique, so the witness nodes picked along a reroute do
    not change the result.
    """
    K = tight.shape[0]
    n_opts = tight.sum(axis=0, dtype=np.int32)
    tied = np.flatnonzero(n_opts > 1)
    if not tied.size:
        return assign  # unique support: nothing to break
    cur = assign.tolist()
    ks = np.nonzero(tight[:, tied].T)[1].tolist()
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
