"""Reproducible experiment drivers and CSV persistence.

All drivers are deterministic given their configuration and base seed: each
task derives its own seed by mixing the base with the cell and trial
indices, so results do not depend on scheduling order and grids can fan out
to a process pool.  CSVs always carry a header row; float fields are
written with full round-trip precision (wall-time columns are the only
nondeterministic ones).
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations, compress, product
from pathlib import Path

import numpy as np

from .core import _MASK64, Assignment, Hypergraph, _data_lines, as_whole, check_divides, objective, seeded_rng
from .initializers import corrupt, random_init, spectral_init
from .metrics import misclassification_rate
from .sampler import LogRegimeParams, sample, to_probabilities
from .solver import check_max_iters, ptpm

__all__ = [
    "GridConfig",
    "ResultRow",
    "mix_seed",
    "block_truth",
    "planted_instance",
    "make_initializer",
    "phase_transition",
    "threshold_curve",
    "convergence_trace",
    "timing_benchmark",
    "load_votes",
    "votes_hypergraph",
    "uci_votes_pipeline",
]

def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(base_seed: int, *parts: int) -> int:
    """Stable 64-bit task seed: base XOR a mixed hash of the index parts,
    all of which must be whole numbers (a seed of 1.5 is an error, not 1)."""
    acc = 0
    for p in parts:
        acc = _splitmix64(acc ^ _splitmix64(as_whole(p, "seed part") & _MASK64))
    return (as_whole(base_seed, "seed") ^ acc) & _MASK64


def block_truth(n: int, K: int) -> Assignment:
    """Canonical planted partition: nodes 0..m-1 in cluster 0, and so on."""
    n, K = as_whole(n, "node count"), as_whole(K, "cluster count")
    check_divides(n, K)
    return Assignment(np.repeat(np.arange(K), n // K), K, balanced=True)


def make_initializer(strategy: str):
    """Parse an init strategy name into f(g, K, truth, seed) -> Assignment.

    Accepted: ``random``, ``spectral``, ``corrupt:<swaps>``.
    """
    if strategy == "random":
        return lambda g, K, truth, seed: random_init(g.n, K, seed)
    if strategy == "spectral":
        # non-strict: a grid sweep may cross cells whose K-th eigenvalue nearly
        # ties the next, where the eigensolver hits its product cap; the
        # capped basis is accepted there
        return lambda g, K, truth, seed: spectral_init(g, K, seed, strict=False)
    if strategy.startswith("corrupt:"):
        try:
            swaps = int(strategy.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"init strategy {strategy!r}: use corrupt:<swaps>, a whole swap count") from None
        if swaps < 0:
            raise ValueError(f"init strategy {strategy!r}: the swap count must be nonnegative")
        def init(g, K, truth, seed):
            if truth is None:
                raise ValueError("corrupt initializer needs the ground truth")
            return corrupt(truth, swaps, seed)
        return init
    raise ValueError(f"unknown init strategy {strategy!r}")


@dataclass(frozen=True)
class GridConfig:
    """Phase-transition grid over (alpha, beta) in the logarithmic regime."""

    n: int
    d: int
    K: int
    alphas: tuple
    betas: tuple
    trials: int = 5
    init: str = "spectral"
    max_iters: int | None = None
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise ValueError("alpha/beta grids must be nonempty")
        # the model's own checks on every cell, so that a cell is skipped only
        # for its probabilities
        for alpha, beta in product(self.alphas, self.betas):
            lp = LogRegimeParams(self.n, self.d, self.K, alpha, beta)
        counts = {"n": lp.n, "d": lp.d, "K": lp.K, "trials": as_whole(self.trials, "trials"),
                  "threads": as_whole(self.threads, "threads"), "max_iters": check_max_iters(self.max_iters)}
        for name, value in counts.items():
            object.__setattr__(self, name, value)
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if self.threads < 1:
            raise ValueError("need at least one thread")
        make_initializer(self.init)  # validate eagerly

    @classmethod
    def from_ranges(cls, n, d, K, alpha_range, beta_range, **kw):
        """Build from inclusive (start, stop, step) triples."""
        return cls(n, d, K, _inclusive("alpha", *alpha_range), _inclusive("beta", *beta_range), **kw)


def _inclusive(name, start, stop, step):
    where = f"{name} range {start}:{stop}:{step}"
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{where}: start, stop and step must be finite")
    if step <= 0:
        raise ValueError(f"{where}: step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"{where} is empty")
    return tuple(start + i * step for i in range(count))


@dataclass(frozen=True)
class ResultRow:
    """Flat outcome record for one solve; ``skipped`` marks a phase cell whose
    derived probabilities leave [0, 1], or a voting-record solve with no edges."""

    alpha: float
    beta: float
    trial: int
    seed: int
    success: bool | None
    iterations_run: int | None
    misclassification: float | None
    wall_ms: float | None
    skipped: bool = False

    def __post_init__(self):
        if self.success and self.misclassification:
            raise ValueError("success implies zero misclassification")


# Column order of each CSV; writers read every column by name.
RAW_COLUMNS = [f.name for f in fields(ResultRow)]
TRACE_COLUMNS = ["iteration", "objective", "distance", "wall_ms"]
CONVERGENCE_COLUMNS = ["restart", "iteration", "distance", "objective", "wall_ms"]
TIMING_COLUMNS = ["n", "d", "K", "alpha", "beta", "edges", "iterations", "total_ms", "per_iter_ms"]
SCORE_COLUMNS = ["distance", "misclassification", "exact"]


def format_field(x):
    """A CSV field: empty for None, 0/1 for a bool, round-trip repr for a float."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([format_field(x) for x in row])


def write_records(path, columns, records):
    """``write_csv`` with each row read from a mapping by its column names."""
    write_csv(path, columns, ([rec[c] for c in columns] for rec in records))


def planted_instance(params, seed: int) -> tuple[Hypergraph, Assignment]:
    """``(g, truth)`` of a phase trial, as ``hyperclust sample --seed`` draws it:
    a random balanced truth, then the hypergraph sampled on it.  Drivers plant
    no block truth: on instances with few or no edges the projection's
    tie-break emits the blocks, a spurious recovery."""
    truth = random_init(params.n, params.K, mix_seed(seed, 2))
    return sample(params, truth, seed), truth


def _phase_task(payload) -> ResultRow:
    (n, d, K, alpha, beta, trial, seed, init_name, max_iters) = payload
    lp = LogRegimeParams(n, d, K, alpha, beta)
    try:
        params = to_probabilities(lp)
    except ValueError:  # the cell's probabilities leave [0, 1]
        return ResultRow(alpha, beta, trial, seed, None, None, None, None, skipped=True)
    g, truth = planted_instance(params, seed)
    initializer = make_initializer(init_name)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # capped-basis notices are expected while sweeping no-signal cells
        warnings.simplefilter("ignore", UserWarning)
        h0 = initializer(g, K, truth, mix_seed(seed, 1))
    report = ptpm(g, h0, max_iters, record_trajectory=False)
    wall_ms = (time.perf_counter() - t0) * 1e3
    mis = misclassification_rate(report.final, truth)
    return ResultRow(alpha, beta, trial, seed, mis == 0.0, report.iterations_run, mis, wall_ms)


def phase_transition(cfg: GridConfig, out=None):
    """Run the full (alpha, beta) grid and pivot the success ratios.

    Returns ``(rows, ratios)``: ``cfg.trials`` consecutive rows per cell in
    grid order, and ``ratios[(alpha, beta)]`` the fraction of exactly
    recovered trials (None for skipped cells).  When ``out`` is given,
    writes the raw rows there plus ``*_ratio.csv`` (the pivot) and
    ``*_threshold.csv`` (the analytic curve) next to it.
    """
    cells = list(product(cfg.alphas, cfg.betas))
    payloads = [
        (cfg.n, cfg.d, cfg.K, alpha, beta, trial, mix_seed(cfg.base_seed, cell, trial),
         cfg.init, cfg.max_iters)
        for cell, (alpha, beta) in enumerate(cells)
        for trial in range(cfg.trials)
    ]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(_phase_task, payloads, chunksize=4))
    else:
        rows = [_phase_task(p) for p in payloads]

    ratios = {}
    for key, start in zip(cells, range(0, len(rows), cfg.trials)):
        cell_rows = rows[start : start + cfg.trials]  # a cell's trials share its skip
        ratios[key] = None if cell_rows[0].skipped else sum(r.success for r in cell_rows) / cfg.trials

    if out is not None:
        out = Path(out)
        write_records(out, RAW_COLUMNS, map(vars, rows))
        ratio_rows = [
            [alpha] + [("" if ratios[(alpha, beta)] is None else ratios[(alpha, beta)]) for beta in cfg.betas]
            for alpha in cfg.alphas
        ]
        write_csv(
            out.with_name(out.stem + "_ratio.csv"),
            ["alpha"] + [f"beta_{b}" for b in cfg.betas],
            ratio_rows,
        )
        write_csv(
            out.with_name(out.stem + "_threshold.csv"),
            ["alpha", "beta"],
            threshold_curve(cfg.alphas, cfg.d, cfg.K),
        )
    return rows, ratios


def threshold_curve(alphas, d, K):
    """Points of the exact-recovery boundary (sqrt(a) - sqrt(b))^2 = K^(d-1) (d-1)!."""
    T = K ** (d - 1) * math.factorial(d - 1)
    pts = []
    for alpha in alphas:
        if alpha >= T:
            pts.append((alpha, (math.sqrt(alpha) - math.sqrt(T)) ** 2))
    return pts


def _check_restarts(restarts) -> int:
    """``restarts`` as an int, which must be whole and at least 1."""
    if (restarts := as_whole(restarts, "restarts")) < 1:
        raise ValueError("restarts must be at least 1")
    return restarts


def convergence_trace(
    n, d, K, alpha, beta, restarts=8, max_iters=30, base_seed=0, out=None
):
    """Distance-to-truth trajectories of random restarts on one instance.

    Samples a single hypergraph, then runs ``restarts`` solves from
    uniformly random balanced starting points, recording the aligned distance
    and objective at every iteration.  Returns a list of trace-record lists.
    """
    restarts, max_iters = _check_restarts(restarts), check_max_iters(max_iters)
    params = to_probabilities(LogRegimeParams(n, d, K, alpha, beta))
    truth = random_init(params.n, params.K, mix_seed(base_seed, 2))
    g = sample(params, truth, mix_seed(base_seed, 0))
    traces = []
    for r in range(restarts):
        h0 = random_init(params.n, params.K, mix_seed(base_seed, 1, r))
        report = ptpm(g, h0, max_iters, truth=truth)
        traces.append(report.trajectory)
    if out is not None:
        records = (dict(vars(rec), restart=r) for r, trace in enumerate(traces) for rec in trace)
        write_records(out, CONVERGENCE_COLUMNS, records)
    return traces


def timing_benchmark(param_list, iters=10, base_seed=0, out=None):
    """Per-iteration solve cost for each (n, d, K, alpha, beta) configuration.

    Sampling time is excluded; the solver runs exactly ``iters`` iterations
    from a random start (no early stopping) so every configuration does the
    same amount of work.  Returns one dict per configuration, keyed by
    ``TIMING_COLUMNS``.
    """
    iters = check_max_iters(iters)
    results = []
    for idx, (n, d, K, alpha, beta) in enumerate(param_list):
        params = to_probabilities(LogRegimeParams(n, d, K, alpha, beta))
        truth = random_init(n, K, mix_seed(base_seed, idx, 2))
        g = sample(params, truth, mix_seed(base_seed, idx, 0))
        h0 = random_init(n, K, mix_seed(base_seed, idx, 1))
        t0 = time.perf_counter()
        report = ptpm(
            g, h0, iters, early_stop=False, record_trajectory=False
        )
        total_ms = (time.perf_counter() - t0) * 1e3
        results.append(
            {
                "n": n,
                "d": d,
                "K": K,
                "alpha": alpha,
                "beta": beta,
                "edges": g.num_edges,
                "iterations": report.iterations_run,
                "total_ms": total_ms,
                "per_iter_ms": total_ms / max(report.iterations_run, 1),
            }
        )
    if out is not None:
        write_records(out, TIMING_COLUMNS, results)
    return results


# --- congressional votes pipeline ---

VOTE_FIELDS = 16
_PARTIES = ("republican", "democrat")


def load_votes(path, per_party=168):
    """Read the comma-separated voting-record file.

    Each row holds a party field followed by 16 vote fields in {y, n, ?}.
    Malformed rows are skipped with a warning.  Keeps the first
    ``per_party`` members of each party in file order (error if a party has
    fewer) and returns ``(votes, truth)`` with ``votes`` an (n, 16) array of
    single characters and ``truth`` the party labeling (republican=0).
    """
    by_party = {p: [] for p in _PARTIES}
    for lineno, line in _data_lines(path):
        parts = line.split(",")
        if len(parts) != VOTE_FIELDS + 1:
            warnings.warn(f"{path}:{lineno}: expected {VOTE_FIELDS + 1} fields, skipping")
            continue
        party, votes = parts[0].strip().lower(), [v.strip().lower() for v in parts[1:]]
        if party not in by_party or any(v not in ("y", "n", "?") for v in votes):
            warnings.warn(f"{path}:{lineno}: malformed row, skipping")
            continue
        by_party[party].append(votes)
    for party in _PARTIES:
        if len(by_party[party]) < per_party:
            raise ValueError(
                f"only {len(by_party[party])} usable {party} rows, need {per_party}"
            )
    rows = by_party["republican"][:per_party] + by_party["democrat"][:per_party]
    votes = np.array(rows, dtype="U1")
    labels = np.repeat(np.arange(2), per_party)
    return votes, Assignment(labels, 2, balanced=True)


def votes_hypergraph(votes, columns, edge_prob, seed) -> Hypergraph:
    """3-uniform hypergraph of probabilistically sampled agreement triples.

    For each chosen issue, members sharing a recorded stance ('?' never
    matches) define a candidate pool of member triples; each candidate is
    kept independently with probability ``edge_prob``, and triples drawn
    for several issues appear once.
    """
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError(f"edge_prob={edge_prob} outside [0, 1]")
    n = votes.shape[0]
    for c in columns:
        if not (1 <= c <= votes.shape[1]):
            raise ValueError(f"issue column {c} outside 1..{votes.shape[1]}")
    rng = seeded_rng(seed)
    edges = set()
    for c in columns:
        stances = votes[:, c - 1]
        for stance in ("y", "n"):
            group = np.flatnonzero(stances == stance)
            count = math.comb(len(group), 3)
            if count == 0 or edge_prob == 0:
                continue
            keep = rng.random(count) < edge_prob
            edges.update(compress(combinations(group.tolist(), 3), keep.tolist()))
    return Hypergraph(n, 3, list(edges))


def uci_votes_pipeline(
    raw_file,
    columns=(4, 5, 12, 15),
    edge_prob=0.05,
    seed=0,
    out=None,
    restarts=10,
    max_iters=20,
    per_party=168,
):
    """End-to-end solve of the voting-record hypergraph against party labels.

    Builds the agreement hypergraph, runs ``restarts`` random-restart
    solves capped at ``max_iters`` iterations, keeps the solution with the
    highest objective, and scores it against the party labeling.  Returns
    ``(hypergraph, truth, result_row)``.
    """
    restarts, max_iters = _check_restarts(restarts), check_max_iters(max_iters)
    votes, truth = load_votes(raw_file, per_party=per_party)
    g = votes_hypergraph(votes, columns, edge_prob, mix_seed(seed, 0))
    if g.num_edges == 0:
        warnings.warn("empty hypergraph: solve degenerates to the tie-break labeling")
    best = None
    t0 = time.perf_counter()
    for r in range(restarts):
        h0 = random_init(g.n, 2, mix_seed(seed, 1, r))
        report = ptpm(g, h0, max_iters, record_trajectory=False)
        score = objective(g, report.final)
        if best is None or score > best[0]:
            best = (score, report)
    wall_ms = (time.perf_counter() - t0) * 1e3
    report = best[1]
    mis = misclassification_rate(report.final, truth)
    row = ResultRow(
        alpha=None,
        beta=None,
        trial=0,
        seed=seed,
        success=mis == 0.0,
        iterations_run=report.iterations_run,
        misclassification=mis,
        wall_ms=wall_ms,
        skipped=g.num_edges == 0,
    )
    if out is not None:
        write_records(out, RAW_COLUMNS, [vars(row)])
    return g, truth, row
