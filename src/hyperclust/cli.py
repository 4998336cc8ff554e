"""Command-line interface.

Subcommands: sample, solve, score, phase, converge, bench, uci.  Shared
flags: ``--seed``, ``--threads`` (falling back to the HYPERCLUST_THREADS
environment variable), ``--config`` (a flat ``key = value`` file mirroring
the long flag names), ``--out``.

Each option takes its value from the flag if given, else from the config
file, else from the library function's own default (``--threads`` reads
HYPERCLUST_THREADS before that).  Only options that no library function
defaults (``--d``, ``--seed`` of ``sample`` and ``solve``, ``--init`` of
``solve``) have a default here.  Config values are parsed by the flag's own
type; a flag that takes no value reads ``1``, ``true`` or ``yes`` as set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    Assignment,
    objective,
    read_assignment,
    read_hypergraph,
    write_assignment,
    write_hypergraph,
)
from .experiments import (
    RAW_COLUMNS,
    GridConfig,
    convergence_trace,
    make_initializer,
    mix_seed,
    phase_transition,
    planted_instance,
    timing_benchmark,
    uci_votes_pipeline,
    write_csv,
)
from .metrics import align_and_distance, exact_recovery, misclassification_rate
from .sampler import LogRegimeParams, ModelParams, to_probabilities
from .solver import ptpm


def load_config(path):
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_defaults(parser, config):
    """Make config values a subcommand's defaults, so that argparse parses
    them with each flag's own type and an explicit flag still wins."""
    defaults = {}
    for action in parser._actions:
        if action.dest in config:
            raw = config[action.dest]
            if action.nargs == 0:  # a flag: its value is a word, and "false" is a true string
                raw = raw.lower() in ("1", "true", "yes")
            defaults[action.dest] = raw
    parser.set_defaults(**defaults)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise SystemExit(f"missing required option --{name.replace('_', '-')}")


def _given(args, *names, **renamed):
    """Keyword arguments for the options that are set, so that unset ones
    keep the library function's default; ``renamed`` maps keyword to option."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {key: getattr(args, dest) for key, dest in pairs if getattr(args, dest) is not None}


def _probabilities(args):
    if args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            raise SystemExit("--p and --q must be given together")
        return ModelParams(args.n, args.d, args.k, args.p, args.q)
    if args.alpha is None or args.beta is None:
        raise SystemExit("give either --p/--q or --alpha/--beta")
    return to_probabilities(LogRegimeParams(args.n, args.d, args.k, args.alpha, args.beta))


def cmd_sample(args):
    _require(args, "n", "k", "out")
    g, truth = planted_instance(_probabilities(args), args.seed)
    write_hypergraph(g, args.out)
    if args.truth_out:
        write_assignment(truth, args.truth_out)
    print(f"wrote {g.num_edges} hyperedges to {args.out}")
    return 0


def cmd_solve(args):
    _require(args, "graph", "k")
    g = read_hypergraph(args.graph)
    truth = read_assignment(args.truth, args.k) if args.truth else None
    h0 = make_initializer(args.init)(g, args.k, truth, mix_seed(args.seed, 1))
    report = ptpm(g, h0, args.max_iters, early_stop=not args.no_early_stop, truth=truth)
    if args.out:
        write_assignment(report.final, args.out)
    if args.trace and report.trajectory:
        rows = [
            (rec.iteration, rec.objective, rec.distance, rec.wall_ms)
            for rec in report.trajectory
        ]
        write_csv(args.trace, ["iteration", "objective", "distance", "wall_ms"], rows)
    line = (
        f"iterations={report.iterations_run} fixed_point={int(report.converged_by_fixed_point)} "
        f"objective={objective(g, report.final)}"
    )
    if truth is not None:
        _, dist = align_and_distance(report.final, truth)
        line += f" distance={dist!r} misclassification={misclassification_rate(report.final, truth)!r}"
    print(line)
    return 0


def cmd_score(args):
    _require(args, "pred", "truth")
    pred = read_assignment(args.pred)
    truth_raw = read_assignment(args.truth)
    K = max(pred.K, truth_raw.K)
    pred = Assignment(pred.labels, K)
    truth = Assignment(truth_raw.labels, K)
    _, dist = align_and_distance(pred, truth)
    rate = misclassification_rate(pred, truth)
    exact = exact_recovery(pred, truth)
    print("distance,misclassification,exact")
    print(f"{dist!r},{rate!r},{int(exact)}")
    return 0


def _range(text):
    parts = tuple(float(x) for x in text.split(":"))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ranges use start:stop:step")
    return parts


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def cmd_phase(args):
    _require(args, "n", "k", "alpha_range", "beta_range", "out")
    cfg = GridConfig.from_ranges(
        args.n,
        args.d,
        args.k,
        args.alpha_range,
        args.beta_range,
        **_given(args, "trials", "init", "max_iters", "threads", base_seed="seed"),
    )
    rows, ratios = phase_transition(cfg, args.out)
    done = sum(1 for r in rows if not r.skipped)
    print(f"ran {done} trials over {len(cfg.alphas) * len(cfg.betas)} cells -> {args.out}")
    return 0


def cmd_converge(args):
    _require(args, "n", "k", "alpha", "beta", "out")
    traces = convergence_trace(
        args.n,
        args.d,
        args.k,
        args.alpha,
        args.beta,
        out=args.out,
        **_given(args, "restarts", "max_iters", base_seed="seed"),
    )
    recovered = sum(1 for t in traces if t[-1].distance == 0.0)
    print(f"{recovered}/{len(traces)} restarts reached the planted partition")
    return 0


def cmd_bench(args):
    _require(args, "sizes", "k", "alpha", "beta", "out")
    results = timing_benchmark(
        [(n, args.d, args.k, args.alpha, args.beta) for n in args.sizes],
        out=args.out,
        **_given(args, "iters", base_seed="seed"),
    )
    for r in results:
        print(f"n={r['n']} edges={r['edges']} per_iter_ms={r['per_iter_ms']:.3f}")
    return 0


def cmd_uci(args):
    _require(args, "data")
    g, truth, row = uci_votes_pipeline(
        args.data,
        out=args.out,
        **_given(args, "columns", "edge_prob", "seed", "restarts", "max_iters", "per_party"),
    )
    print(
        f"edges={g.num_edges} misclassification={row.misclassification!r} "
        f"iterations={row.iterations_run}"
    )
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, help="base 64-bit seed (default 0)")
    p.add_argument("--threads", type=int, help="worker count (HYPERCLUST_THREADS fallback)")
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--out", help="output path")


_RESULT_COLUMNS = ",".join(RAW_COLUMNS)


def build_parser(config=None):
    """The argument parser; ``config`` values become subcommand defaults."""
    parser = argparse.ArgumentParser(
        prog="hyperclust",
        description="Community recovery on uniform hypergraphs via projected power iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a planted-partition hypergraph")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--truth-out", dest="truth_out", help="also write the planted labels")
    p.set_defaults(func=cmd_sample, seed=0)

    p = sub.add_parser(
        "solve",
        help="recover communities from a hypergraph file",
        epilog="--trace CSV columns: iteration,objective,distance,wall_ms",
    )
    _add_common(p)
    p.add_argument("--graph", help="hypergraph file")
    p.add_argument("--k", type=int)
    p.add_argument("--init", default="random", help="random | spectral | corrupt:<swaps>")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--truth", help="labels file; enables distance reporting")
    p.add_argument("--trace", help="per-iteration CSV output")
    p.add_argument("--no-early-stop", dest="no_early_stop", action="store_true")
    p.set_defaults(func=cmd_solve, seed=0)

    p = sub.add_parser(
        "score",
        help="compare two labelings",
        epilog="prints one CSV row: distance,misclassification,exact",
    )
    _add_common(p)
    p.add_argument("--pred", help="predicted labels file")
    p.add_argument("--truth", help="reference labels file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "phase",
        help="success-ratio grid over (alpha, beta)",
        epilog=f"raw CSV columns: {_RESULT_COLUMNS}; also writes *_ratio.csv "
        "(alpha rows x beta columns) and *_threshold.csv (alpha,beta)",
    )
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha-range", dest="alpha_range", type=_range, help="start:stop:step")
    p.add_argument("--beta-range", dest="beta_range", type=_range, help="start:stop:step")
    p.add_argument("--trials", type=int)
    p.add_argument("--init", help="random | spectral | corrupt:<swaps>")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(func=cmd_phase, threads=os.environ.get("HYPERCLUST_THREADS") or None)

    p = sub.add_parser(
        "converge",
        help="distance trajectories of random restarts",
        epilog="CSV columns: restart,iteration,distance,objective,wall_ms",
    )
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser(
        "bench",
        help="per-iteration timing across sizes",
        epilog="CSV columns: n,d,K,alpha,beta,edges,iterations,total_ms,per_iter_ms",
    )
    _add_common(p)
    p.add_argument("--sizes", type=_ints, help="comma-separated node counts")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iters", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "uci",
        help="voting-records pipeline",
        epilog=f"CSV columns: {_RESULT_COLUMNS}",
    )
    _add_common(p)
    p.add_argument("--data", help="raw comma-separated voting file")
    p.add_argument("--columns", type=_ints, help="1-based issue columns, comma-separated")
    p.add_argument("--edge-prob", dest="edge_prob", type=float)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--per-party", dest="per_party", type=int)
    p.set_defaults(func=cmd_uci)

    if config:
        for p in sub.choices.values():
            _config_defaults(p, config)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(load_config(args.config)).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
