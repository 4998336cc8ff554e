"""Output checks computed apart from the program, and their self-test.

Every check raises :class:`CheckError` on a wrong answer.  None of them
calls into ``hyperclust``: partitions are compared through the label pairs
they induce, misclassification is a brute-force minimum over all K!
relabelings, and edge counts are recounted from the edge rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from instances import edge_keys, edge_probabilities, generate, planted_labels, pools

# Binomial edge counts must fall within this many standard deviations of
# their means; a false alarm at 6 sd has probability about 2e-9 per count.
COUNT_SDS = 6.0
# Phase rule of tests/test_long_phase.py: T = K^(d-1) (d-1)!
PHASE_HIGH_MIN = 0.9  # recovery share of trials in cells with gap >= 2T
PHASE_LOW_MAX = 0.2  # recovery share of trials in cells with gap <= T/2


class CheckError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def check_edges(edges, n, d, K, alpha, beta, labels):
    """Rows strictly increasing, in range and unique; pool counts binomial."""
    _require(edges.ndim == 2 and edges.shape[1] == d, f"edge array shape {edges.shape}")
    if edges.shape[0]:
        _require(edges.min() >= 0 and edges.max() < n, "node id out of range")
        _require(bool(np.all(np.diff(edges, axis=1) > 0)), "edge row not strictly increasing")
        _require(np.unique(edge_keys(edges, n)).size == edges.shape[0], "duplicate edge")
    lab = labels[edges]
    n_same = int(np.all(lab == lab[:, :1], axis=1).sum())
    p, q = edge_probabilities(n, d, alpha, beta)
    for name, count, pool, prob in zip(
        ("monochromatic", "cross"), (n_same, edges.shape[0] - n_same), pools(n, d, K), (p, q)
    ):
        mean = pool * prob
        sd = math.sqrt(pool * prob * (1.0 - prob))
        _require(
            abs(count - mean) <= COUNT_SDS * sd,
            f"{name} edge count {count} is off its binomial mean {mean:.1f} (sd {sd:.1f})",
        )
    return n_same


def check_labeling(labels, n, K):
    labels = np.asarray(labels)
    _require(labels.shape == (n,), f"labeling has shape {labels.shape}, expected ({n},)")
    _require(labels.min() >= 0 and labels.max() < K, "label out of range")
    _require(
        bool(np.all(np.bincount(labels, minlength=K) == n // K)), "labeling is not balanced"
    )


def same_partition(pred, truth, K) -> bool:
    """True iff predicted label -> true label is a bijection every node obeys."""
    pairs = np.unique(np.asarray(pred) * K + np.asarray(truth))
    return pairs.size == K and np.unique(pairs // K).size == K and np.unique(pairs % K).size == K


def brute_force_misclassified(pred, truth, K) -> int:
    """Fewest disagreeing nodes over all K! renamings of the predicted labels."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    return min(
        int(np.count_nonzero(np.asarray(perm)[pred] != truth))
        for perm in itertools.permutations(range(K))
    )


def check_misclassification(rate, pred, truth, K):
    wrong = brute_force_misclassified(pred, truth, K)
    _require(
        rate == wrong / len(truth),
        f"misclassification_rate {rate!r} != brute force {wrong}/{len(truth)}",
    )
    return wrong


def check_recovered(pred, truth, K):
    _require(same_partition(pred, truth, K), "planted partition not recovered exactly")


def check_trajectory_end(record, n_same, d):
    """The last record of a recovering run sits on the truth: distance 0 and
    objective d! times the monochromatic edge count."""
    _require(record.distance == 0, f"final distance {record.distance} != 0")
    want = math.factorial(d) * n_same
    _require(record.objective == want, f"final objective {record.objective} != {want}")


def check_k2_projection(scores, labels):
    """A K=2 balanced projection must reach the closed-form optimum:
    sum C[:,1] plus the m largest values of C[:,0] - C[:,1]."""
    C = np.asarray(scores)
    if C.ndim != 2 or C.shape[1] != 2:
        return
    m = C.shape[0] // 2
    delta = C[:, 0] - C[:, 1]
    best = C[:, 1].sum() + np.sort(delta)[::-1][:m].sum()
    got = C[np.arange(C.shape[0]), np.asarray(labels)].sum()
    if np.issubdtype(C.dtype, np.integer):
        _require(int(got) == int(best), f"K=2 projection sum {got} below optimum {best}")
    else:
        tol = 1e-12 * max(float(np.abs(C).sum()), 1.0)
        _require(float(best) - float(got) <= tol, f"K=2 projection sum {got} below optimum {best}")


def phase_gap_class(alpha, beta, d, K):
    """'high' for gap >= 2T, 'low' for gap <= T/2, else None."""
    T = K ** (d - 1) * math.factorial(d - 1)
    gap = (math.sqrt(alpha) - math.sqrt(beta)) ** 2
    if gap >= 2 * T:
        return "high"
    if gap <= T / 2:
        return "low"
    return None


def check_phase(outcomes):
    """``outcomes`` maps 'high'/'low' to lists of exact-recovery booleans."""
    high, low = outcomes.get("high", []), outcomes.get("low", [])
    _require(high and low, "phase grid lacks high- or low-gap trials")
    _require(
        sum(high) >= PHASE_HIGH_MIN * len(high),
        f"high-gap cells recovered {sum(high)}/{len(high)} trials",
    )
    _require(
        sum(low) <= PHASE_LOW_MAX * len(low),
        f"low-gap cells recovered {sum(low)}/{len(low)} trials",
    )


def fingerprint(out):
    """Comparable form of a trial's output, without its wall times, to
    check that the program gives the same output when run again."""
    if isinstance(out, tuple):
        return tuple(fingerprint(x) for x in out)
    if isinstance(out, np.ndarray):
        return out.shape, out.tobytes()
    if hasattr(out, "edges"):  # Hypergraph
        return fingerprint(out.edges)
    if hasattr(out, "labels"):  # Assignment
        return fingerprint(out.labels)
    if hasattr(out, "final"):  # SolveReport
        steps = tuple((t.iteration, t.objective, t.distance) for t in out.trajectory or ())
        return fingerprint(out.final), out.iterations_run, out.converged_by_fixed_point, steps
    return out


def _rejects(check, *args):
    try:
        check(*args)
    except CheckError:
        return True
    return False


def self_test(hc):
    """Run the program once through every layer on small inputs, and show
    that each check passes its right answer and rejects a wrong one.

    ``hc`` is a namespace of the program modules (core, sampler,
    initializers, solver, metrics, projection).  Returns the list of
    problems found; empty when the checks are sound.
    """
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(f"self-test: {what}")

    rng = np.random.default_rng(20230701)
    n, d, K, alpha, beta = 72, 3, 2, 60.0, 2.0
    labels = planted_labels(n, K, rng)
    truth = hc.core.Assignment(labels, K, balanced=True)
    edges, n_same, _ = generate(n, d, K, alpha, beta, labels, rng)
    g = hc.core.Hypergraph(n, d, edges)

    # instance checks
    expect(not _rejects(check_edges, edges, n, d, K, alpha, beta, labels), "edges rejected")
    expect(_rejects(check_edges, edges[::-1, ::-1], n, d, K, alpha, beta, labels),
           "decreasing rows accepted")
    expect(_rejects(check_edges, np.concatenate([edges, edges[:1]]), n, d, K, alpha, beta, labels),
           "duplicate edge accepted")
    expect(_rejects(check_edges, edges, n, d, K, 4 * alpha, beta, labels),
           "edge count far off its mean accepted")

    # the program through every layer, each output checked
    sampled = hc.sampler.sample(
        hc.sampler.to_probabilities(hc.sampler.LogRegimeParams(n, d, K, alpha, beta)),
        truth, int(rng.integers(2**62)),
    )
    expect(not _rejects(check_edges, sampled.edges, n, d, K, alpha, beta, labels),
           "sampled edges rejected")
    starts = [
        hc.initializers.corrupt(truth, n // 10, 1),
        hc.initializers.random_init(n, K, 2),
        hc.initializers.spectral_init(g, K, 3, strict=False),
    ]
    for h0 in starts:
        report = hc.solver.ptpm(g, h0, truth=truth)
        final = report.final.labels
        rate = hc.metrics.misclassification_rate(report.final, truth)
        expect(not _rejects(check_labeling, final, n, K), "balanced labeling rejected")
        expect(not _rejects(check_recovered, final, labels, K), "recovery rejected")
        expect(not _rejects(check_misclassification, rate, final, labels, K),
               "program misclassification rejected")
        expect(_rejects(check_misclassification, rate + 1 / n, final, labels, K),
               "misclassification off by 1/n accepted")
        expect(not _rejects(check_trajectory_end, report.trajectory[-1], n_same, d),
               "trajectory end on the truth rejected")
    again = hc.solver.ptpm(g, starts[-1], truth=truth)
    expect(fingerprint(again) == fingerprint(report), "repeated solve reported as different")
    expect(fingerprint(again.final.relabel(np.roll(np.arange(K), 1))) != fingerprint(report.final),
           "relabeled solution reported as the same output")

    # one swapped pair breaks recovery, balance survives it
    swapped = labels.copy()
    i, j = int(np.flatnonzero(labels == 0)[0]), int(np.flatnonzero(labels == 1)[0])
    swapped[i], swapped[j] = swapped[j], swapped[i]
    renamed = (labels + 1) % K
    expect(not _rejects(check_recovered, renamed, labels, K), "renamed truth rejected")
    expect(_rejects(check_recovered, swapped, labels, K), "one swapped pair accepted")
    expect(not _rejects(check_labeling, swapped, n, K), "swapped pair reported unbalanced")
    unbalanced = labels.copy()
    unbalanced[i] = 1 - unbalanced[i]
    expect(_rejects(check_labeling, unbalanced, n, K), "unbalanced labeling accepted")
    rate = hc.metrics.misclassification_rate(hc.core.Assignment(swapped, K), truth)
    expect(not _rejects(check_misclassification, rate, swapped, labels, K),
           "swapped-pair misclassification rejected")
    expect(_rejects(check_misclassification, rate - 1 / n, swapped, labels, K),
           "misclassification off by -1/n accepted")

    # trajectory end: objective and distance both pinned
    record = hc.solver.TraceRecord(1, math.factorial(d) * n_same, 0.0, 0.0)
    off = dataclasses.replace(record, objective=record.objective - math.factorial(d))
    expect(not _rejects(check_trajectory_end, record, n_same, d), "true trajectory end rejected")
    expect(_rejects(check_trajectory_end, off, n_same, d), "objective off by d! accepted")
    expect(_rejects(check_trajectory_end, dataclasses.replace(record, distance=2.0), n_same, d),
           "nonzero final distance accepted")

    # K=2 closed form: the program's projection passes, a swapped pair fails
    C = rng.standard_normal((n, 2))
    proj = hc.projection.project_balanced(C).labels
    expect(not _rejects(check_k2_projection, C, proj), "K=2 projection rejected")
    bad = proj.copy()
    a, b = int(np.flatnonzero(proj == 0)[0]), int(np.flatnonzero(proj == 1)[0])
    bad[a], bad[b] = bad[b], bad[a]
    expect(_rejects(check_k2_projection, C, bad), "K=2 swapped pair accepted")

    # phase rule
    expect(not _rejects(check_phase, {"high": [True] * 9 + [False], "low": [False] * 5}),
           "phase rule rejected a transition")
    expect(_rejects(check_phase, {"high": [True] * 8 + [False] * 2, "low": [False] * 5}),
           "phase rule accepted 80% high-gap recovery")
    expect(_rejects(check_phase, {"high": [True] * 10, "low": [True] + [False] * 3}),
           "phase rule accepted 25% low-gap recovery")
    return problems

