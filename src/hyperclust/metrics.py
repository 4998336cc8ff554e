"""Permutation-invariant recovery metrics.

Two labelings describe the same partition up to renaming clusters, so every
metric here first aligns them: the K x K confusion matrix is built and the
cluster permutation maximizing the diagonal overlap is found exactly, as the
balanced projection of the confusion matrix with one slot per cluster.  Ties
go to the lexicographically smallest permutation for every K.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Assignment
from .projection import project_balanced

__all__ = [
    "confusion_matrix",
    "align_and_distance",
    "misclassification_rate",
    "exact_recovery",
]


def confusion_matrix(h: Assignment, truth: Assignment) -> np.ndarray:
    """M[k, l] = number of nodes labeled k by ``h`` and l by ``truth``."""
    if h.n != truth.n or h.K != truth.K:
        raise ValueError(
            f"shape mismatch: ({h.n}, {h.K}) vs ({truth.n}, {truth.K})"
        )
    K = h.K
    return np.bincount(h.labels * K + truth.labels, minlength=K * K).reshape(K, K)


def _best_overlap(M: np.ndarray) -> tuple[tuple[int, ...], int]:
    perm = project_balanced(M).labels
    return tuple(perm.tolist()), int(M[np.arange(M.shape[0]), perm].sum())


def align_and_distance(h: Assignment, truth: Assignment):
    """Best cluster renaming and the aligned Frobenius distance.

    Returns ``(perm, distance)`` where ``perm[k]`` is the truth cluster
    matched to cluster k of ``h`` and ``distance`` is the Frobenius norm
    between the one-hot matrices after renaming; for one-hot rows this is
    sqrt(2 * (n - overlap)).
    """
    M = confusion_matrix(h, truth)
    perm, overlap = _best_overlap(M)
    return perm, math.sqrt(2.0 * (h.n - overlap))


def misclassification_rate(h: Assignment, truth: Assignment) -> float:
    """Fraction of nodes off the best-aligned diagonal, in [0, 1]."""
    M = confusion_matrix(h, truth)
    _, overlap = _best_overlap(M)
    return (h.n - overlap) / h.n


def exact_recovery(h: Assignment, truth: Assignment) -> bool:
    """True iff the two labelings induce the same partition."""
    M = confusion_matrix(h, truth)
    _, overlap = _best_overlap(M)
    return overlap == h.n
