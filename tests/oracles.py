"""Exponential-time references that define correct behaviour for the tests.

:func:`dense_multilinear_oracle` materializes the dense adjacency tensor and
is the reference for :func:`hyperclust.core.multilinear_score`;
:func:`brute_force_projection` enumerates every balanced assignment and is
the reference for :func:`hyperclust.projection.project_balanced`, tie-break
included.  Both refuse inputs past a small size, since their cost grows as
n^d and n! / (m!)^K.
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
