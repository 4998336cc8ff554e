"""The four benchmark workloads.

Each workload is a serial closed loop: one caller runs one trial at a time.
A workload builds its fixed inputs in ``setup`` and yields its trials one
round at a time from ``round(r)``; every input is derived from the run's
``--seed``, the round and the trial index, so the same seed gives the same
inputs.  A trial's ``run`` is the timed call sequence into the program; its
``check`` compares the outputs with quantities computed apart from the
program (see ``checks.py``).

Program functions are looked up on their module at call time, so the
per-layer tracer in ``layers.py`` sees every call.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from instances import generate, planted_labels

SEED_SPACE = 2**63


@dataclass
class Trial:
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Workload:
    """One configuration (n, d, K, alpha, beta); ``nodes`` are labeled per trial."""

    name: str
    n: int
    d: int
    K: int
    alpha: float
    beta: float

    def __init__(self, hc, seed, note):
        self.hc = hc
        self.seed = seed
        self.note = note  # note(count_name, k): counts for the traced run

    def rng(self, *parts):
        return np.random.default_rng([self.seed, *parts])

    def instance(self, labels, rng):
        edges, n_same, _ = generate(self.n, self.d, self.K, self.alpha, self.beta, labels, rng)
        return self.hc.core.Hypergraph(self.n, self.d, edges), n_same

    def check_instance(self, g, labels):
        return checks.check_edges(g.edges, self.n, self.d, self.K, self.alpha, self.beta, labels)

    def check_solution(self, labels, truth, rate, *, recovered=True):
        checks.check_labeling(labels, self.n, self.K)
        checks.check_misclassification(rate, labels, truth, self.K)
        if recovered:
            checks.check_recovered(labels, truth, self.K)

    def setup(self):
        pass

    def finish(self):
        """Checks over the whole run, after its last trial."""


class Planted(Workload):
    """sample -> corrupt (n/10 swaps) -> ptpm to a fixed point -> misclassification.

    The only workload that calls the program's sampler."""

    name = "planted-d3-k2-n7680"
    n, d, K, alpha, beta = 7680, 3, 2, 33.0, 8.0

    def setup(self):
        hc = self.hc
        self.labels = planted_labels(self.n, self.K, self.rng(0))
        self.truth = hc.core.Assignment(self.labels, self.K, balanced=True)
        self.params = hc.sampler.to_probabilities(
            hc.sampler.LogRegimeParams(self.n, self.d, self.K, self.alpha, self.beta)
        )

    def round(self, r):
        for q in range(2):
            yield self._trial(*(int(s) for s in self.rng(1, r, q).integers(SEED_SPACE, size=2)))

    def _trial(self, sample_seed, corrupt_seed):
        hc = self.hc

        def run():
            g = hc.sampler.sample(self.params, self.truth, sample_seed)
            h0 = hc.initializers.corrupt(self.truth, self.n // 10, corrupt_seed)
            report = hc.solver.ptpm(g, h0, record_trajectory=False)
            return g, report.final, hc.metrics.misclassification_rate(report.final, self.truth)

        def check(out):
            g, final, rate = out
            self.check_instance(g, self.labels)
            self.check_solution(final.labels, self.labels, rate)

        return Trial(run, check)


class Restarts(Workload):
    """random_init -> ptpm(truth=...) recording the trajectory, on one
    instance built in set-up, as ``convergence_trace`` does."""

    name = "restarts-d3-k4-n7680"
    n, d, K, alpha, beta = 7680, 3, 4, 300.0, 8.0
    max_iters = 30  # convergence_trace's default

    def setup(self):
        rng = self.rng(0)
        self.labels = planted_labels(self.n, self.K, rng)
        self.truth = self.hc.core.Assignment(self.labels, self.K, balanced=True)
        self.g, n_same = self.instance(self.labels, rng)
        self.n_same = self.check_instance(self.g, self.labels)
        if self.n_same != n_same:
            raise checks.CheckError(f"recounted {self.n_same} monochromatic edges, drew {n_same}")

    def round(self, r):
        for q in range(4):
            yield self._trial(int(self.rng(1, r, q).integers(SEED_SPACE)))

    def _trial(self, init_seed):
        hc = self.hc

        def run():
            h0 = hc.initializers.random_init(self.n, self.K, init_seed)
            report = hc.solver.ptpm(self.g, h0, self.max_iters, truth=self.truth)
            return report, hc.metrics.misclassification_rate(report.final, self.truth)

        def check(out):
            report, rate = out
            self.check_solution(report.final.labels, self.labels, rate)
            checks.check_trajectory_end(report.trajectory[-1], self.n_same, self.d)

        return Trial(run, check)


class Spectral(Workload):
    """spectral_init(strict=True) -> ptpm -> misclassification, on a fresh
    instance per trial."""

    name = "spectral-d4-k4-n3840"
    n, d, K, alpha, beta = 3840, 4, 4, 1000.0, 20.0

    def setup(self):
        self.labels = planted_labels(self.n, self.K, self.rng(0))
        self.truth = self.hc.core.Assignment(self.labels, self.K, balanced=True)

    def round(self, r):
        for q in range(2):
            rng = self.rng(1, r, q)
            g, _ = self.instance(self.labels, rng)
            yield self._trial(g, int(rng.integers(SEED_SPACE)))

    def _trial(self, g, init_seed):
        hc = self.hc

        def run():
            h0 = hc.initializers.spectral_init(g, self.K, init_seed, strict=True)
            report = hc.solver.ptpm(g, h0, record_trajectory=False)
            return report.final, hc.metrics.misclassification_rate(report.final, self.truth)

        def check(out):
            final, rate = out
            self.check_instance(g, self.labels)
            self.check_solution(final.labels, self.labels, rate)

        return Trial(run, check)


class Phase(Workload):
    """A sub-grid of the paper-scale phase study at n=210, one trial per
    cell per round: spectral_init(strict=False) -> ptpm -> misclassification.

    No-signal cells hit the eigensolver's iteration cap and the solver's
    iteration budget, which sets the tail of the trial times."""

    name = "phase-d3-k3-n210"
    n, d, K = 210, 3, 3
    alphas = tuple(range(0, 121, 12))
    betas = tuple(range(0, 41, 8))

    def setup(self):
        self.outcomes = {"high": [], "low": []}

    def round(self, r):
        for cell, (alpha, beta) in enumerate(itertools.product(self.alphas, self.betas)):
            rng = self.rng(1, r, cell)
            labels = planted_labels(self.n, self.K, rng)
            edges, _, _ = generate(self.n, self.d, self.K, alpha, beta, labels, rng)
            yield self._trial(alpha, beta, labels, edges, int(rng.integers(SEED_SPACE)))

    def _trial(self, alpha, beta, labels, edges, init_seed):
        hc = self.hc
        g = hc.core.Hypergraph(self.n, self.d, edges)
        truth = hc.core.Assignment(labels, self.K, balanced=True)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                h0 = hc.initializers.spectral_init(g, self.K, init_seed, strict=False)
            self.note("initializers.eigensolver.capped", sum("iteration cap" in str(w.message) for w in caught))
            report = hc.solver.ptpm(g, h0, record_trajectory=False)
            return report.final, hc.metrics.misclassification_rate(report.final, truth)

        def check(out):
            final, rate = out
            checks.check_edges(g.edges, self.n, self.d, self.K, alpha, beta, labels)
            self.check_solution(final.labels, labels, rate, recovered=False)
            side = checks.phase_gap_class(alpha, beta, self.d, self.K)
            if side:
                self.outcomes[side].append(checks.same_partition(final.labels, labels, self.K))

        return Trial(run, check)

    def finish(self):
        checks.check_phase(self.outcomes)


WORKLOADS = {w.name: w for w in (Planted, Restarts, Spectral, Phase)}
