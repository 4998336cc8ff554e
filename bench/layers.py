"""Per-layer tracing from outside the program.

Each layer is a function of a ``hyperclust`` module.  The tracer replaces
the name in every module that looks it up at call time, so calls made
inside the program are caught without changing it: public functions in the
module that imports them (``solver.project_balanced``), private ones in
their own module (``projection._transport``).  The copy of ``_transport``
that ``metrics`` imports for alignment is left alone, so alignment time
stays in the metrics layers.  A name that no longer exists is skipped,
and its layer reports 0 calls.

Busy time is inclusive of nested layers; the solver also reports self time,
its busy time minus that of the layers it calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layer -> (module, attribute) pairs that route calls into it
LAYERS = {
    "sampler.sample": [("sampler", "sample")],
    "initializers.corrupt": [("initializers", "corrupt")],
    "initializers.random_init": [("initializers", "random_init")],
    "initializers.spectral_init": [("initializers", "spectral_init")],
    "initializers.similarity_matrix": [("initializers", "similarity_matrix")],
    "initializers.eigensolver": [("initializers", "_top_eigenvectors")],
    "initializers.kmeans": [("initializers", "_kmeans")],
    "core.multilinear_score": [("solver", "multilinear_score")],
    "core.objective": [("solver", "objective")],
    "projection.project_balanced": [("solver", "project_balanced"), ("initializers", "project_balanced")],
    "projection.transport": [("projection", "_transport")],
    "projection.lex_min": [("projection", "_lex_min_over_ties")],
    "solver.ptpm": [("solver", "ptpm")],
    "metrics.misclassification_rate": [("metrics", "misclassification_rate")],
    "metrics.align_and_distance": [("solver", "align_and_distance")],
}
# counts recorded from results and caught warnings rather than timed
COUNTS = ["sampler.edges", "initializers.eigensolver.capped", "solver.iterations", "solver.budget_hit"]
# layers whose self time is reported in place of their busy time
SELF_TIMED = {"solver.ptpm"}


def _time_metric(layer):
    return layer + (".self_ms" if layer in SELF_TIMED else ".ms")


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = []
    for layer in LAYERS:
        names.append((_time_metric(layer), "ms"))
        names.append((layer + ".calls", "count"))
    names += [(name, "count") for name in COUNTS]
    return names


class Tracer:
    """Accumulates busy time, self time and call counts per layer."""

    def __init__(self):
        self.reset()
        self._stack = []  # child seconds of each open span

    def reset(self):
        """Forget everything recorded so far."""
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def install(self, modules, hooks):
        """Wrap every layer.  ``hooks`` maps a layer to
        ``f(result, args, kwargs)``, called after each of its calls."""
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = modules[module_name]
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self._wrap(layer, fn, hooks.get(layer)))

    def _wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.busy[layer] += elapsed
                self.self_time[layer] += elapsed - child
                self.calls[layer] += 1
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, k=1):
        self.counts[name] += k

    def report(self, trials):
        """Means per trial run of every metric of :func:`metric_names`."""
        values = {}
        for layer in LAYERS:
            seconds = self.self_time[layer] if layer in SELF_TIMED else self.busy[layer]
            values[_time_metric(layer)] = 1e3 * seconds / trials
            values[layer + ".calls"] = self.calls[layer] / trials
        for name in COUNTS:
            values[name] = self.counts[name] / trials
        return values
