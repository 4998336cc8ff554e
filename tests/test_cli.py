import argparse
import csv
import re
import warnings

import numpy as np
import pytest

from hyperclust import cli, experiments
from hyperclust.cli import build_parser, load_config, main
from hyperclust.core import objective, read_assignment, read_hypergraph
from hyperclust.experiments import (
    GridConfig,
    make_initializer,
    mix_seed,
    phase_transition,
    planted_instance,
)
from hyperclust.metrics import align_and_distance, misclassification_rate
from hyperclust.sampler import LogRegimeParams, to_probabilities
from hyperclust.solver import ptpm


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_sample_solve_score_pipeline(tmp_path, capsys):
    g_path, t_path = str(tmp_path / "g.txt"), str(tmp_path / "t.txt")
    out = run(
        capsys,
        "sample",
        "--n", "30", "--d", "3", "--k", "2",
        "--alpha", "45", "--beta", "2",
        "--seed", "3",
        "--out", g_path,
        "--truth-out", t_path,
    )
    assert "hyperedges" in out
    g = read_hypergraph(g_path)
    assert g.n == 30 and g.d == 3

    pred_path, trace_path = str(tmp_path / "pred.txt"), str(tmp_path / "trace.csv")
    out = run(
        capsys,
        "solve",
        "--graph", g_path, "--k", "2",
        "--init", "spectral", "--seed", "1",
        "--truth", t_path,
        "--out", pred_path,
        "--trace", trace_path,
    )
    assert "iterations=" in out and "distance=" in out
    pred = read_assignment(pred_path)
    assert pred.balanced
    with open(trace_path) as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["iteration"] == "0"

    out = run(capsys, "score", "--pred", pred_path, "--truth", t_path)
    lines = out.strip().splitlines()
    assert lines[0] == "distance,misclassification,exact"
    assert len(lines[1].split(",")) == 3


@pytest.mark.parametrize("options", [[], ["--max-iters", "0"], ["--no-early-stop", "--max-iters", "3"]],
                         ids=["default", "no-step", "no-early-stop"])
def test_solve_prints_what_the_solver_measured(options, tmp_path, capsys, monkeypatch):
    g_path, t_path, pred_path = (str(tmp_path / name) for name in ("g.txt", "t.txt", "pred.txt"))
    run(capsys, "sample", "--n", "30", "--k", "2", "--alpha", "45", "--beta", "2", "--seed", "3",
        "--out", g_path, "--truth-out", t_path)

    def recount(*args):
        raise AssertionError("solve recounted a result the solver reported")

    monkeypatch.setattr(cli, "objective", recount, raising=False)
    monkeypatch.setattr(cli, "align_and_distance", recount)
    out = run(capsys, "solve", "--graph", g_path, "--k", "2", "--truth", t_path, "--out", pred_path, *options)
    g, pred, truth = read_hypergraph(g_path), read_assignment(pred_path, 2), read_assignment(t_path, 2)
    _, dist = align_and_distance(pred, truth)
    tail = f" objective={objective(g, pred)} distance={dist!r} misclassification={misclassification_rate(pred, truth)!r}\n"
    assert out.startswith("iterations=") and out.endswith(tail)


def test_sample_with_raw_probabilities(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    run(
        capsys,
        "sample",
        "--n", "12", "--d", "2", "--k", "2",
        "--p", "1.0", "--q", "0.0",
        "--out", g_path,
    )
    g = read_hypergraph(g_path)
    assert g.num_edges == 2 * 15  # both within-community cliques


def test_solve_deterministic_per_seed(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    run(capsys, "sample", "--n", "20", "--d", "3", "--k", "2",
        "--alpha", "40", "--beta", "4", "--seed", "8", "--out", g_path)
    a_path, b_path = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    run(capsys, "solve", "--graph", g_path, "--k", "2", "--seed", "5", "--out", a_path)
    run(capsys, "solve", "--graph", g_path, "--k", "2", "--seed", "5", "--out", b_path)
    assert open(a_path).read() == open(b_path).read()


def test_phase_subcommand(tmp_path, capsys):
    out_path = str(tmp_path / "phase.csv")
    out = run(
        capsys,
        "phase",
        "--n", "20", "--d", "3", "--k", "2",
        "--alpha-range", "10:40:30",
        "--beta-range", "2:2:1",
        "--trials", "2",
        "--init", "corrupt:1",
        "--seed", "4",
        "--out", out_path,
    )
    assert "cells" in out
    with open(out_path) as f:
        assert len(list(csv.DictReader(f))) == 4


def test_sample_reproduces_a_phase_row(tmp_path, capsys):
    cfg = GridConfig(
        n=30, d=3, K=2, alphas=(8.0, 45.0, 5000.0), betas=(2.0,), trials=2,
        init="spectral", max_iters=10, base_seed=11,
    )
    rows, _ = phase_transition(cfg)
    assert rows[-1].skipped  # alpha=5000 drives p past 1 at n=30
    row = next(r for r in rows if r.misclassification)  # a solved trial that misses
    g_path, t_path = str(tmp_path / "g.txt"), str(tmp_path / "t.txt")
    run(
        capsys,
        "sample",
        "--n", str(cfg.n), "--d", str(cfg.d), "--k", str(cfg.K),
        "--alpha", repr(row.alpha), "--beta", repr(row.beta),
        "--seed", str(row.seed),
        "--out", g_path,
        "--truth-out", t_path,
    )
    params = to_probabilities(LogRegimeParams(cfg.n, cfg.d, cfg.K, row.alpha, row.beta))
    g, truth = planted_instance(params, row.seed)
    written, written_truth = read_hypergraph(g_path), read_assignment(t_path, cfg.K)
    assert written.num_edges > 0
    assert np.array_equal(written.edges, g.edges)
    assert written_truth.labels.tolist() == truth.labels.tolist()

    # solve the written files as the grid task does
    with warnings.catch_warnings():  # capped-basis notices are expected
        warnings.simplefilter("ignore", UserWarning)
        h0 = make_initializer(cfg.init)(written, cfg.K, written_truth, mix_seed(row.seed, 1))
    report = ptpm(written, h0, cfg.max_iters, record_trajectory=False)
    assert misclassification_rate(report.final, written_truth) == row.misclassification


def test_converge_and_bench_subcommands(tmp_path, capsys):
    conv = str(tmp_path / "conv.csv")
    out = run(capsys, "converge", "--n", "20", "--k", "2",
              "--alpha", "45", "--beta", "2", "--restarts", "2", "--seed", "1",
              "--out", conv)
    assert "restarts" in out
    bench = str(tmp_path / "bench.csv")
    out = run(capsys, "bench", "--sizes", "20,40", "--k", "2",
              "--alpha", "33", "--beta", "8", "--iters", "2", "--seed", "1",
              "--out", bench)
    assert "per_iter_ms" in out
    with open(bench) as f:
        assert len(list(csv.DictReader(f))) == 2


def write_votes(tmp_path):
    """Ten members per party, voting their party's line on 90% of issues."""
    votes = tmp_path / "votes.data"
    rng = np.random.default_rng(0)
    rows = []
    for party, base in (("republican", "y"), ("democrat", "n")):
        flip = "n" if base == "y" else "y"
        for _ in range(10):
            rows.append([party] + [flip if rng.random() < 0.1 else base for _ in range(16)])
    votes.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return votes


def test_uci_subcommand(tmp_path, capsys):
    votes = write_votes(tmp_path)
    out = run(
        capsys,
        "uci",
        "--data", str(votes),
        "--columns", "1,2,3",
        "--edge-prob", "0.2",
        "--per-party", "10",
        "--seed", "2",
        "--out", str(tmp_path / "uci.csv"),
    )
    assert "misclassification=" in out


def test_uci_edge_prob_outside_unit_interval_exits_cleanly(tmp_path, capsys):
    votes = tmp_path / "votes.data"
    rows = [["republican"] + ["y"] * 16] * 4 + [["democrat"] + ["n"] * 16] * 4
    votes.write_text("\n".join(",".join(r) for r in rows) + "\n")
    for bad in ("1.5", "-0.5"):
        code = main(["uci", "--data", str(votes), "--per-party", "4", "--edge-prob", bad])
        assert code == 2
        assert "error: edge_prob" in capsys.readouterr().err


def test_uci_without_a_restart_exits_cleanly(tmp_path, capsys):
    code = main(["uci", "--data", str(write_votes(tmp_path)), "--per-party", "10", "--restarts", "0"])
    assert code == 2
    assert "error: restarts must be at least 1" in capsys.readouterr().err


def test_converge_without_a_restart_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--n", "20", "--k", "2", "--alpha", "45", "--beta", "2",
                 "--restarts", "0", "--out", str(out)])
    assert code == 2
    assert "error: restarts must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\nd = 2\nk = 2\np = 1.0\nq = 0.0\n# comment\n")
    g_path = str(tmp_path / "g.txt")
    run(capsys, "sample", "--config", str(cfg), "--out", g_path)
    assert read_hypergraph(g_path).num_edges == 2 * 15
    # explicit flags override config values
    run(capsys, "sample", "--config", str(cfg), "--n", "8", "--out", g_path)
    assert read_hypergraph(g_path).n == 8


def test_load_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_missing_required_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["sample", "--n", "10", "--k", "2", "--p", "0.5", "--q", "0.1"])


def test_library_errors_exit_cleanly(tmp_path, capsys):
    # K does not divide n: surfaced as a message, not a traceback
    code = main(["sample", "--n", "11", "--k", "2", "--p", "0.5", "--q", "0.1",
                 "--out", str(tmp_path / "g.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["solve", "--graph", str(tmp_path / "missing.txt"), "--k", "2"])
    assert code == 2


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERCLUST_THREADS", "2")
    out_path = str(tmp_path / "phase.csv")
    run(
        capsys,
        "phase",
        "--n", "12", "--d", "3", "--k", "2",
        "--alpha-range", "20:20:1",
        "--beta-range", "2:2:1",
        "--trials", "2",
        "--init", "corrupt:1",
        "--seed", "1",
        "--out", out_path,
    )
    with open(out_path) as f:
        assert len(list(csv.DictReader(f))) == 2


def test_config_file_value_types(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    run(capsys, "sample", "--n", "30", "--d", "3", "--k", "2",
        "--alpha", "45", "--beta", "2", "--seed", "3", "--out", g_path)
    cfg = tmp_path / "solve.cfg"
    # "false" is a non-empty string: it must still read as false
    cfg.write_text(f"graph = {g_path}\nk = 2\nmax_iters = 20\nno_early_stop = false\n")
    out = run(capsys, "solve", "--config", str(cfg))
    assert "fixed_point=1" in out
    assert int(out.split("iterations=")[1].split()[0]) < 20
    cfg.write_text(f"graph = {g_path}\nk = 2\nmax_iters = 3\nno_early_stop = true\n")
    out = run(capsys, "solve", "--config", str(cfg))
    assert "iterations=3 fixed_point=0" in out


def test_zero_clusters_exit_cleanly(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    run(capsys, "sample", "--n", "12", "--d", "3", "--k", "2",
        "--alpha", "45", "--beta", "2", "--out", g_path)
    for init in ("random", "spectral"):
        code = main(["solve", "--graph", g_path, "--k", "0", "--init", init])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def subcommands():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def options(parser):
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_each_subcommand_declares_only_the_flags_it_reads():
    parsers = subcommands()
    assert sum(len(options(p)) for p in parsers.values()) == 64
    takes = {name: {s for a in options(p) for s in a.option_strings} for name, p in parsers.items()}
    assert [name for name, flags in takes.items() if "--threads" in flags] == ["phase"]
    assert all("--config" in flags for flags in takes.values())
    assert [name for name, flags in takes.items() if "--seed" not in flags] == ["score"]
    assert [name for name, flags in takes.items() if "--out" not in flags] == ["score"]


@pytest.mark.parametrize(
    "command,flag",
    [(c, "--threads") for c in ("sample", "solve", "score", "converge", "bench", "uci")]
    + [("score", "--seed"), ("score", "--out")],
)
def test_an_unread_flag_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["restart", "threads"])  # a typo, and another subcommand's flag
def test_a_config_key_the_subcommand_does_not_read_is_a_usage_error(key, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = 5\n")
    out_path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", str(cfg), "--n", "24", "--k", "2",
              "--alpha", "30", "--beta", "2", "--out", str(out_path)])
    assert exc.value.code == 2
    assert f"unrecognized config keys: {key}" in capsys.readouterr().err
    assert not out_path.exists()


def test_phase_threads_match_the_serial_run(tmp_path, capsys):
    def phase(threads):
        out_path = tmp_path / f"phase{threads}.csv"
        run(capsys, "phase", "--n", "12", "--d", "3", "--k", "2",
            "--alpha-range", "10:40:30", "--beta-range", "1:2:1", "--trials", "2",
            "--init", "spectral", "--seed", "7", "--threads", str(threads), "--out", str(out_path))
        with open(out_path) as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            del row["wall_ms"]
        return rows

    serial = phase(1)
    assert len(serial) == 8 and any(r["success"] == "1" for r in serial)
    assert phase(2) == serial


PHASE = ["phase", "--n", "12", "--k", "2", "--alpha-range", "5:5:1", "--beta-range", "1:1:1"]


@pytest.mark.parametrize("alpha_range", ["0:inf:1", "0:nan:1", "inf:5:1", "0:5:inf"])
def test_a_non_finite_range_exits_cleanly(alpha_range, tmp_path, capsys):
    argv = PHASE + ["--out", str(tmp_path / "phase.csv")]
    argv[argv.index("--alpha-range") + 1] = alpha_range
    assert main(argv) == 2
    assert "error: alpha range" in capsys.readouterr().err
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("flag,env", [(["--threads", "0"], None), (["--threads", "-3"], None), ([], "0")])
def test_fewer_than_one_thread_is_an_error(flag, env, tmp_path, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("HYPERCLUST_THREADS", env)
    assert main(PHASE + flag + ["--out", str(tmp_path / "phase.csv")]) == 2
    assert "error: need at least one thread" in capsys.readouterr().err
    assert not (tmp_path / "phase.csv").exists()


def test_a_malformed_corrupt_strategy_names_its_form(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"'corrupt:x'.*corrupt:<swaps>"):
        make_initializer("corrupt:x")
    assert main(PHASE + ["--init", "corrupt:x", "--out", str(tmp_path / "phase.csv")]) == 2
    assert "corrupt:<swaps>" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,message",
    [
        (["--init", "corrupt:-4"], "error: init strategy 'corrupt:-4': the swap count must be nonnegative"),
        (["--max-iters", "-3"], "error: max_iters must be nonnegative"),
    ],
)
def test_bad_solver_options_fail_before_any_trial(flag, message, tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_phase_task", no_trial)
    assert main(PHASE + flag + ["--out", str(tmp_path / "phase.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "phase.csv").exists()


def test_malformed_numbers_in_input_files_name_their_line(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("6 3\n1 2 3\n4 five 6\n")
    assert main(["solve", "--graph", str(graph), "--k", "2", "--out", str(tmp_path / "h.txt")]) == 2
    assert f"{graph}:3: expected integers" in capsys.readouterr().err
    labels = tmp_path / "h.txt"
    labels.write_text("1\n2\none\n")
    assert main(["score", "--pred", str(labels), "--truth", str(labels)]) == 2
    assert f"{labels}:3: expected integers" in capsys.readouterr().err


def test_invalid_phase_model_is_an_error_not_skipped_cells(tmp_path, capsys):
    code = main(["phase", "--n", "10", "--k", "3", "--alpha-range", "5:5:1",
                 "--beta-range", "1:1:1", "--out", str(tmp_path / "phase.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "phase.csv").exists()


def epilog_columns(command):
    """The first comma-separated run of names in a subcommand's epilog."""
    return re.search(r"\w+(?:,\w+)+", subcommands()[command].epilog).group().split(",")


def csv_header(path):
    with open(path) as f:
        return next(csv.reader(f))


def test_each_epilog_lists_the_columns_its_subcommand_writes(tmp_path, capsys):
    g, t, pred = (str(tmp_path / name) for name in ("g.txt", "t.txt", "pred.txt"))
    run(capsys, "sample", "--n", "12", "--k", "2", "--alpha", "45", "--beta", "2",
        "--out", g, "--truth-out", t)
    trace = tmp_path / "trace.csv"
    run(capsys, "solve", "--graph", g, "--k", "2", "--truth", t, "--out", pred, "--trace", str(trace))
    assert csv_header(trace) == epilog_columns("solve")

    out = run(capsys, "score", "--pred", pred, "--truth", t)
    assert out.splitlines()[0].split(",") == epilog_columns("score")

    conv = tmp_path / "conv.csv"
    run(capsys, "converge", "--n", "12", "--k", "2", "--alpha", "45", "--beta", "2",
        "--restarts", "1", "--out", str(conv))
    assert csv_header(conv) == epilog_columns("converge")

    bench = tmp_path / "bench.csv"
    run(capsys, "bench", "--sizes", "12", "--k", "2", "--alpha", "45", "--beta", "2",
        "--iters", "1", "--out", str(bench))
    assert csv_header(bench) == epilog_columns("bench")

    phase = tmp_path / "phase.csv"
    run(capsys, "phase", "--n", "12", "--k", "2", "--alpha-range", "45:45:1",
        "--beta-range", "2:2:1", "--trials", "1", "--init", "random", "--out", str(phase))
    assert csv_header(phase) == epilog_columns("phase")

    uci = tmp_path / "uci.csv"
    run(capsys, "uci", "--data", str(write_votes(tmp_path)), "--columns", "1,2,3",
        "--edge-prob", "0.2", "--per-party", "10", "--restarts", "1", "--out", str(uci))
    assert csv_header(uci) == epilog_columns("uci")
