"""Command-line interface.

Subcommands: sample, solve, score, phase, converge, bench, uci.  Each takes
only the flags it reads: all take ``--config`` (a flat ``key = value`` file
mirroring the long flag names), all but ``score`` take ``--seed`` and
``--out``, and ``phase`` alone takes ``--threads`` (falling back to the
HYPERCLUST_THREADS environment variable).  Each epilog joins the column list
in ``experiments`` that its CSV writer uses.

Each option takes its value from the flag if given, else from the config
file, else from the library function's own default (``--threads`` reads
HYPERCLUST_THREADS before that).  A config key that names no option of the
chosen subcommand is a usage error, as an unknown flag is.  Only options
that no library function defaults (``--d``, ``--seed`` of ``sample`` and
``solve``, ``--init`` of ``solve``) have a default here.  Config values are parsed by the flag's own
type; a flag that takes no value reads ``1``, ``true`` or ``yes`` as set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    Assignment,
    read_assignment,
    read_hypergraph,
    write_assignment,
    write_hypergraph,
)
from .experiments import (
    CONVERGENCE_COLUMNS,
    RAW_COLUMNS,
    SCORE_COLUMNS,
    TIMING_COLUMNS,
    TRACE_COLUMNS,
    GridConfig,
    convergence_trace,
    format_field,
    make_initializer,
    mix_seed,
    phase_transition,
    planted_instance,
    timing_benchmark,
    uci_votes_pipeline,
    write_records,
)
from .metrics import align_and_distance, misclassification_rate
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
    them with each flag's own type and an explicit flag still wins.  A key
    that names none of the subcommand's options is a usage error."""
    actions = {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        parser.error(f"unrecognized config keys: {', '.join(unknown)}")
    defaults = {}
    for dest, raw in config.items():
        if actions[dest].nargs == 0:  # a flag: its value is a word, and "false" is a true string
            raw = raw.lower() in ("1", "true", "yes")
        defaults[dest] = raw
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
        write_records(args.trace, TRACE_COLUMNS, map(vars, report.trajectory))
    last = report.trajectory[-1]  # ptpm's objective and distance of report.final
    line = (
        f"iterations={report.iterations_run} fixed_point={int(report.converged_by_fixed_point)} "
        f"objective={last.objective}"
    )
    if truth is not None:
        line += f" distance={last.distance!r} misclassification={misclassification_rate(report.final, truth)!r}"
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
    score = dict(distance=dist, misclassification=rate, exact=rate == 0.0)
    print(",".join(SCORE_COLUMNS))
    print(",".join(format_field(score[c]) for c in SCORE_COLUMNS))
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
        print("n={n} edges={edges} per_iter_ms={per_iter_ms:.3f}".format_map(r))
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


def _subcommand(sub, name, func, help, writes=True):
    """A subcommand taking ``--config``, and ``--seed`` and ``--out`` if it ``writes``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="flat key = value config file; flags override")
    if writes:
        p.add_argument("--seed", type=int, help="base 64-bit seed (default 0)")
        p.add_argument("--out", help="output path")
    p.set_defaults(func=func)
    return p


def build_parser(config=None, command=None):
    """The argument parser; ``config`` values become the defaults of
    subcommand ``command``."""
    parser = argparse.ArgumentParser(
        prog="hyperclust",
        description="Community recovery on uniform hypergraphs via projected power iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "sample", cmd_sample, help="draw a planted-partition hypergraph")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--truth-out", dest="truth_out", help="also write the planted labels")
    p.set_defaults(seed=0)

    p = _subcommand(sub, "solve", cmd_solve, help="recover communities from a hypergraph file")
    p.epilog = f"--trace CSV columns: {','.join(TRACE_COLUMNS)}"
    p.add_argument("--graph", help="hypergraph file")
    p.add_argument("--k", type=int)
    p.add_argument("--init", default="random", help="random | spectral | corrupt:<swaps>")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--truth", help="labels file; enables distance reporting")
    p.add_argument("--trace", help="per-iteration CSV output")
    p.add_argument("--no-early-stop", dest="no_early_stop", action="store_true")
    p.set_defaults(seed=0)

    p = _subcommand(sub, "score", cmd_score, writes=False, help="compare two labelings")
    p.epilog = f"prints one CSV row: {','.join(SCORE_COLUMNS)}"
    p.add_argument("--pred", help="predicted labels file")
    p.add_argument("--truth", help="reference labels file")

    p = _subcommand(sub, "phase", cmd_phase, help="success-ratio grid over (alpha, beta)")
    p.epilog = (
        f"raw CSV columns: {','.join(RAW_COLUMNS)}; also writes *_ratio.csv "
        "(alpha rows x beta columns) and *_threshold.csv (alpha,beta)"
    )
    p.add_argument("--threads", type=int, help="worker count (HYPERCLUST_THREADS fallback)")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha-range", dest="alpha_range", type=_range, help="start:stop:step")
    p.add_argument("--beta-range", dest="beta_range", type=_range, help="start:stop:step")
    p.add_argument("--trials", type=int)
    p.add_argument("--init", help="random | spectral | corrupt:<swaps>")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(threads=os.environ.get("HYPERCLUST_THREADS") or None)

    p = _subcommand(sub, "converge", cmd_converge, help="distance trajectories of random restarts")
    p.epilog = f"CSV columns: {','.join(CONVERGENCE_COLUMNS)}"
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)

    p = _subcommand(sub, "bench", cmd_bench, help="per-iteration timing across sizes")
    p.epilog = f"CSV columns: {','.join(TIMING_COLUMNS)}"
    p.add_argument("--sizes", type=_ints, help="comma-separated node counts")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iters", type=int)

    p = _subcommand(sub, "uci", cmd_uci, help="voting-records pipeline")
    p.epilog = f"CSV columns: {','.join(RAW_COLUMNS)}"
    p.add_argument("--data", help="raw comma-separated voting file")
    p.add_argument("--columns", type=_ints, help="1-based issue columns, comma-separated")
    p.add_argument("--edge-prob", dest="edge_prob", type=float)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--per-party", dest="per_party", type=int)

    if config:
        _config_defaults(sub.choices[command], config)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(load_config(args.config), args.command).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
