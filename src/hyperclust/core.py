"""Sparse symmetric uniform hypergraphs, cluster assignments, and scoring.

A d-uniform hypergraph is stored as its canonical hyperedge list, never as a
dense order-d tensor: strictly increasing d-tuples of node ids, unique,
lexicographically sorted, and held member position by member position, so
that every pass over the edges reads contiguous memory.  This is the single
source of truth for the implicit symmetric 0/1 adjacency tensor with zero
diagonal (an entry is 1 exactly when its d distinct indices form an edge).

Node ids and cluster labels are 0-based everywhere in memory; the text file
formats are 1-based, and the readers/writers below are the only place that
mapping appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Hypergraph",
    "Assignment",
    "multilinear_score",
    "objective",
    "read_hypergraph",
    "write_hypergraph",
    "read_assignment",
    "write_assignment",
]

_MASK64 = (1 << 64) - 1


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator for a seed; seeds are taken modulo 2**64."""
    return np.random.default_rng(as_whole(seed, "seed") & _MASK64)


def check_divides(n: int, K: int) -> None:
    """Reject a cluster count that cannot split n nodes into equal clusters."""
    if K < 1 or n < 1 or n % K:
        raise ValueError(f"K={K} must divide n={n}, both positive")


def as_int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array.  Input of a non-integer dtype must hold
    whole numbers: 1.7 is an error, not node or label 1."""
    a = np.asarray(values)
    if a.dtype.kind in "biu":
        return np.asarray(a, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the compare
        whole = a.astype(np.int64)
    if not np.array_equal(whole, a):
        raise ValueError(f"{what} must be whole numbers")
    return whole


def as_whole(value, what: str) -> int:
    """``value`` as an int; it must be a whole number: K=2.6 is an error, not 2."""
    try:
        if (whole := int(value)) == value:  # a scalar compare: no array round trip
            return whole
    except (OverflowError, ValueError):  # inf, NaN
        pass
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def check_covers(g: Hypergraph, h: Assignment) -> None:
    """Reject a labeling whose node count differs from the hypergraph's."""
    if h.n != g.n:
        raise ValueError(f"labeling covers {h.n} nodes, hypergraph has {g.n}")


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Symmetric d-uniform hypergraph on ``n`` nodes.

    ``members`` is the C-contiguous (d, E) array of the edges: column e holds
    edge e's strictly increasing 0-based node ids, and the edges are unique
    and lexicographically sorted (canonical form).  ``edges`` is its (E, d)
    view ``members.T``.  Any (E, d) array of increasing rows is accepted and
    put in order here, the one place where edges are validated and sorted.
    Both arrays are read-only; instances are immutable.
    """

    n: int
    d: int
    edges: np.ndarray
    members: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, d = as_whole(self.n, "node count"), as_whole(self.d, "hyperedge order")
        if n < 1:
            raise ValueError("node count must be a positive integer")
        if d < 2:
            raise ValueError("hyperedge order must be an integer >= 2")
        e = as_int64(self.edges, "node ids")
        if e.size == 0:
            e = np.empty((0, d), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != d:
            raise ValueError(f"edge array must have shape (E, {d})")
        if e.shape[0]:
            if e.min() < 0 or e.max() >= n:
                raise ValueError("node id out of range")
            if not np.all(np.diff(e, axis=1) > 0):
                raise ValueError("hyperedge members must be distinct and increasing")
        order = np.lexsort(e.T[::-1])
        members = np.empty((d, e.shape[0]), dtype=np.int64)
        for j in range(d):  # sorted straight into place: no (E, d) sorted copy
            np.take(e[:, j], order, out=members[j], mode="clip")
        if np.any(np.all(members[:, 1:] == members[:, :-1], axis=0)):
            raise ValueError("duplicate hyperedges")
        members.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "edges", members.T)

    def __reduce__(self):
        # rebuilt by the constructor, so that a copy keeps one read-only
        # edge array and its view rather than two independent ones
        return Hypergraph, (self.n, self.d, self.edges)

    @classmethod
    def from_edge_list(cls, n, d, edge_list):
        """Build a canonical hypergraph from an iterable of d-sets of node ids."""
        return cls(n, d, [sorted(edge) for edge in edge_list])

    @property
    def num_edges(self) -> int:
        return int(self.members.shape[1])


@dataclass(frozen=True, eq=False)
class Assignment:
    """Labeling of ``n`` nodes into ``K`` clusters.

    ``labels[i]`` is the 0-based cluster of node ``i``.  Setting ``balanced``
    asserts that every cluster holds exactly ``n/K`` nodes (verified at
    construction); such assignments correspond to row-one-hot matrices with
    equal column sums.
    """

    labels: np.ndarray
    K: int
    balanced: bool = False

    def __post_init__(self):
        K = as_whole(self.K, "cluster count")
        if K < 1:
            raise ValueError("cluster count must be positive")
        lab = as_int64(self.labels, "labels")
        if lab.ndim != 1 or lab.size == 0:
            raise ValueError(f"labels must be a non-empty 1-d array, not of shape {lab.shape}")
        if lab.min() < 0 or lab.max() >= K:
            raise ValueError("label out of range")
        if self.balanced:
            check_divides(lab.size, K)
            if not np.all(np.bincount(lab, minlength=K) == lab.size // K):
                raise ValueError("balanced flag set but cluster sizes differ")
        lab = lab.copy()
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "balanced", bool(self.balanced))

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.K)

    @property
    def is_balanced(self) -> bool:
        return self.n % self.K == 0 and bool(
            np.all(self.counts() == self.n // self.K)
        )

    def one_hot(self) -> np.ndarray:
        H = np.zeros((self.n, self.K), dtype=np.int64)
        H[np.arange(self.n), self.labels] = 1
        return H

    def relabel(self, perm) -> "Assignment":
        """Rename clusters: node i gets label ``perm[labels[i]]``."""
        perm = as_int64(perm, "perm")
        if perm.shape != (self.K,) or sorted(perm.tolist()) != list(range(self.K)):
            raise ValueError("perm must be a permutation of 0..K-1")
        return Assignment(perm[self.labels], self.K, balanced=self.balanced)


def _edge_labels(g: Hypergraph, h: Assignment) -> np.ndarray:
    """The (d, E) labels of every edge's members, in the smallest unsigned
    dtype that holds K itself (one byte per entry for K <= 255)."""
    check_covers(g, h)
    return h.labels.astype(np.min_scalar_type(h.K))[g.members]


def multilinear_score(g: Hypergraph, h: Assignment) -> np.ndarray:
    """Score every (node, cluster) pair with one pass over the edge list.

    Returns the integer n x K matrix whose (i, k) entry equals (d-1)! times
    the number of hyperedges containing node i whose remaining d-1 members
    all carry label k.  Equivalent to contracting each of the d-1 trailing
    modes of the implicit adjacency tensor with the one-hot label matrix,
    but linear in the edge count instead of touching n^d entries: for each
    member position j, every edge contributes the key
    ``node * (K+1) + label`` of its j-th member, where ``label`` is the one
    its other d-1 members share, or the spare column K when they disagree.
    One ``np.bincount`` per position adds into an n x (K+1) count, and the
    spare column is dropped.  Each pass reads contiguous (d, E) rows, nothing
    is compacted, and the temporaries take about 20 bytes per edge.
    """
    K, d = h.K, g.d
    edge_labels = _edge_labels(g, h)
    spare = edge_labels.dtype.type(K)
    keys = np.empty(g.num_edges, dtype=np.int64)
    counts = np.zeros(g.n * (K + 1), dtype=np.int64)
    for j in range(d):
        others = [i for i in range(d) if i != j]
        label = edge_labels[others[0]]
        if d > 2:
            disagree = edge_labels[others[1]] != label
            for i in others[2:]:
                disagree |= edge_labels[i] != label
            # every label is below K, so the larger of label and K * disagree
            # is the shared label where the others agree, else the spare K
            spread = disagree.view(np.uint8) * spare
            label = np.maximum(spread, label, out=spread)
        np.multiply(g.members[j], K + 1, out=keys)
        keys += label
        counts += np.bincount(keys, minlength=counts.size)
    return counts.reshape(g.n, K + 1)[:, :K] * math.factorial(d - 1)


def objective(g: Hypergraph, h: Assignment) -> int:
    """Inner product of the adjacency tensor with the assignment's outer power.

    Equals d! times the number of hyperedges whose d members all share one
    label; this is the quantity the solver maximizes over balanced
    assignments.
    """
    edge_labels = _edge_labels(g, h)
    mono = np.ones(g.num_edges, dtype=bool)
    for j in range(1, g.d):
        mono &= edge_labels[j] == edge_labels[0]
    return math.factorial(g.d) * int(np.count_nonzero(mono))


# --- text formats (1-based on disk, 0-based in memory) ---


def write_hypergraph(g: Hypergraph, path):
    with open(path, "w") as f:
        f.write(f"{g.n} {g.d}\n")
        for row in g.edges.tolist():
            f.write(" ".join(str(x + 1) for x in row) + "\n")


def read_hypergraph(path) -> Hypergraph:
    """Parse the edge-list format: header ``n d``, then one edge per line
    as d space-separated ascending 1-based node ids; ``#`` lines ignored."""
    header = None
    rows = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: header must be 'n d'")
                header = (int(parts[0]), int(parts[1]))
                continue
            n, d = header
            if len(parts) != d:
                raise ValueError(f"{path}:{lineno}: expected {d} node ids")
            ids = [int(p) for p in parts]
            if any(x < 1 or x > n for x in ids):
                raise ValueError(f"{path}:{lineno}: node id out of range 1..{n}")
            rows.append(tuple(x - 1 for x in ids))
    if header is None:
        raise ValueError(f"{path}: missing header line")
    return Hypergraph.from_edge_list(header[0], header[1], rows)


def write_assignment(a: Assignment, path):
    with open(path, "w") as f:
        for lab in a.labels.tolist():
            f.write(f"{lab + 1}\n")


def read_assignment(path, K: int | None = None) -> Assignment:
    """Parse the label format: line i holds the 1-based label of node i."""
    labels = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            value = int(line)
            if value < 1:
                raise ValueError(f"{path}:{lineno}: labels are 1-based")
            labels.append(value - 1)
    if not labels:
        raise ValueError(f"{path}: no labels found")
    arr = np.array(labels, dtype=np.int64)
    k = int(arr.max()) + 1 if K is None else K
    a = Assignment(arr, k)
    if a.is_balanced:
        a = Assignment(arr, k, balanced=True)
    return a
