"""Benchmark for hyperclust: one workload per run, serial, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is the program's import plus the median of ``SETUP_REPEATS``
repeats of the checks' self-test and the workload's own set-up.  Then whole
rounds of trials run, each trial ``PASSES`` times, until the round end
nearest to ``--seconds``; every trial's outputs are checked.  The last
line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``layers.py`` (means per timed trial run; set-up is not counted).
Details are in bench/README.md.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # leave the checkout as it was found

# BLAS threads are fixed before numpy loads: at most 2, and no more than
# the CPUs this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 5
# Every trial of a round runs once per pass, and its time is the faster of
# its runs: slow spells of a shared host then spoil a trial only when they
# hit every pass.
PASSES = 2
# with fewer trials, no percentile with ten trials above it is a tail
TAIL_MIN_TRIALS = 40


def load_program():
    """The hyperclust modules of this checkout, never an installed copy."""
    if not (SRC / "hyperclust" / "__init__.py").is_file():
        sys.exit(f"error: no hyperclust sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    # Bytecode is looked up under a directory that never exists, so the
    # import compiles from source whether or not an earlier import left
    # __pycache__ behind; with dont_write_bytecode nothing is written.
    sys.pycache_prefix = str(Path(__file__).resolve().parent / "no-bytecode")
    try:
        import hyperclust
    finally:
        sys.pycache_prefix = None
    from hyperclust import core, initializers, metrics, projection, sampler, solver

    if Path(hyperclust.__file__).resolve().parent != SRC / "hyperclust":
        sys.exit(f"error: imported hyperclust from {hyperclust.__file__}, not {SRC}")
    return SimpleNamespace(
        core=core, initializers=initializers, metrics=metrics,
        projection=projection, sampler=sampler, solver=solver,
    )


def tail(times):
    """Highest order statistic with at least ten trials above it; the
    median when there are fewer than TAIL_MIN_TRIALS trials."""
    if len(times) < TAIL_MIN_TRIALS:
        return statistics.median(times)
    return sorted(times)[len(times) - 11]


def install_tracer(tracer, hc, problems):
    """Wrap every layer; count results and check each K=2 projection."""
    import checks

    def check_projection(result, call_args, kwargs):
        try:
            checks.check_k2_projection(call_args[0] if call_args else kwargs["scores"], result.labels)
        except checks.CheckError as err:
            problems.append(f"project_balanced: {err}")

    def count_solve(report, call_args, kwargs):
        tracer.count("solver.iterations", report.iterations_run)
        tracer.count("solver.budget_hit", int(not report.converged_by_fixed_point))

    tracer.install(vars(hc), {
        "sampler.sample": lambda g, call_args, kwargs: tracer.count("sampler.edges", g.num_edges),
        "solver.ptpm": count_solve,
        "projection.project_balanced": check_projection,
    })


def run_round(trials, problems, where):
    """Run every trial once per pass.  Returns, per trial, its fastest time
    in ms and its output, or None when a call raised."""
    import checks

    results = [None] * len(trials)
    broken = set()
    for _ in range(PASSES):
        for i, trial in enumerate(trials):
            if i in broken:
                continue
            t0 = time.perf_counter()
            try:
                out = trial.run()
            except Exception:  # a failed operation is counted, and the run goes on
                broken.add(i)
                traceback.print_exc()
                continue
            ms = (time.perf_counter() - t0) * 1e3
            if results[i] is None:
                results[i] = (ms, out)
                continue
            if checks.fingerprint(out) != checks.fingerprint(results[i][1]):
                problems.append(f"{where}, trial {i}: passes gave different outputs")
            results[i] = (min(ms, results[i][0]), results[i][1])
    return [None if i in broken else res for i, res in enumerate(results)]


def main(argv=None):
    import checks
    import layers
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    hc = load_program()
    import_s = time.perf_counter() - t0
    problems = []
    tracer = layers.Tracer()
    if args.trace:
        install_tracer(tracer, hc, problems)
    note = tracer.count if args.trace else (lambda name, k=1: None)
    workload = WORKLOADS[args.workload](hc, args.seed, note)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        problems += checks.self_test(hc)
        try:
            workload.setup()
        except checks.CheckError as err:
            problems.append(f"set-up: {err}")
        setup_s.append(time.perf_counter() - t0)
    tracer.reset()  # per-layer figures cover the timed trials only

    trial_ms, attempted, failed = [], 0, 0
    start = time.perf_counter()
    r = round_s = 0
    # whole rounds only; stop at the round end nearest to --seconds
    while r == 0 or time.perf_counter() - start + round_s / 2 < args.seconds:
        round_start = time.perf_counter()
        trials = list(workload.round(r))
        for i, (trial, result) in enumerate(zip(trials, run_round(trials, problems, f"round {r}"))):
            attempted += 1
            if result is None:
                failed += 1
                continue
            trial_ms.append(result[0])
            try:
                trial.check(result[1])
            except checks.CheckError as err:
                problems.append(f"round {r}, trial {i}: {err}")
        round_s = time.perf_counter() - round_start
        r += 1
    try:
        workload.finish()
    except checks.CheckError as err:
        problems.append(f"run: {err}")

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} rounds={r} trials={len(trial_ms)} "
          f"failed={failed} check_failures={len(problems)}")
    if not trial_ms:
        metrics = {}
    elif args.trace:
        print(f"# traced trial_ms.p50={statistics.median(trial_ms)!r}")
        values = tracer.report(PASSES * len(trial_ms))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.metric_names()}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_s), "unit": "s"},
            "trial_ms.p50": {"value": statistics.median(trial_ms), "unit": "ms"},
            "trial_ms.tail": {"value": tail(trial_ms), "unit": "ms"},
            "nodes_per_s": {"value": workload.n * len(trial_ms) / (sum(trial_ms) / 1e3), "unit": "nodes/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems and bool(trial_ms),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
