import csv
import math

import numpy as np
import pytest

from hyperclust.experiments import (
    TIMING_COLUMNS,
    GridConfig,
    ResultRow,
    block_truth,
    convergence_trace,
    load_votes,
    make_initializer,
    mix_seed,
    phase_transition,
    threshold_curve,
    timing_benchmark,
    uci_votes_pipeline,
    votes_hypergraph,
)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


# --- seed mixing ---


def test_mix_seed_stable_and_sensitive():
    assert mix_seed(7, 1, 2) == mix_seed(7, 1, 2)
    assert mix_seed(7, 1, 2) != mix_seed(7, 2, 1)
    assert mix_seed(7, 1, 2) != mix_seed(8, 1, 2)
    assert 0 <= mix_seed(2**63, 5, 5) < 2**64


@pytest.mark.parametrize("args", [(1.5, 2), (1, 2.7), (math.nan, 2), (1, math.inf)])
def test_mix_seed_rejects_fractional_seeds_and_parts(args):
    with pytest.raises(ValueError, match="whole number"):
        mix_seed(*args)


def test_mix_seed_accepts_whole_floats_and_numpy_integers():
    assert mix_seed(1.0, 2.0) == mix_seed(np.int64(1), np.uint8(2)) == mix_seed(1, 2)


# --- grid config ---


def test_grid_config_from_ranges():
    cfg = GridConfig.from_ranges(12, 3, 2, (0, 12, 3), (0, 4, 2), trials=2)
    assert cfg.alphas == (0, 3, 6, 9, 12)
    assert cfg.betas == (0, 2, 4)
    with pytest.raises(ValueError):
        GridConfig.from_ranges(12, 3, 2, (0, 12, 3), (0, 4, 2), trials=0)
    with pytest.raises(ValueError):
        GridConfig(12, 3, 2, (3,), (1,), init="bogus")


@pytest.mark.parametrize(
    "n,d,K,alphas,betas",
    [
        (10, 3, 3, (5.0,), (1.0,)),
        (12, 3, 2, (-5.0, 10.0), (1.0,)),
        (12, 1, 2, (5.0,), (1.0,)),
        (12, 3, 2, (5.0, math.nan), (1.0,)),
        (12, 3, 2, (5.0,), (1.0, math.nan)),
    ],
    ids=["k-does-not-divide-n", "negative-alpha", "order-1", "nan-alpha", "nan-beta"],
)
def test_grid_config_rejects_an_invalid_model_up_front(n, d, K, alphas, betas):
    # only a cell's probabilities may skip it; every other fault is the grid's,
    # and every cell is checked, not only the smallest alpha and beta
    with pytest.raises(ValueError):
        GridConfig(n, d, K, alphas, betas)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", ["start", "stop", "step"])
def test_grid_ranges_must_be_finite(position, bad):
    start_stop_step = {"start": 0.0, "stop": 12.0, "step": 3.0} | {position: bad}
    with pytest.raises(ValueError, match=r"beta range .*: start, stop and step must be finite"):
        GridConfig.from_ranges(12, 3, 2, (0, 12, 3), tuple(start_stop_step.values()))


@pytest.mark.parametrize("threads", [0, -3])
def test_grid_config_needs_at_least_one_thread(threads):
    with pytest.raises(ValueError, match="at least one thread"):
        GridConfig(12, 3, 2, (5.0,), (1.0,), threads=threads)


@pytest.mark.parametrize(
    "option,message",
    [
        ({"init": "corrupt:-4"}, r"init strategy 'corrupt:-4': the swap count must be nonnegative"),
        ({"max_iters": -3}, "max_iters must be nonnegative"),
        ({"max_iters": math.inf}, "max_iters must be a whole number"),
    ],
    ids=["negative-swaps", "negative-max-iters", "infinite-max-iters"],
)
def test_grid_config_rejects_bad_solver_options_up_front(option, message):
    # the same messages as make_initializer and ptpm, before any sampling
    with pytest.raises(ValueError, match=message):
        GridConfig(12, 3, 2, (5.0,), (1.0,), **option)


def test_grid_config_takes_max_iters_as_a_whole_number_or_none():
    assert GridConfig(12, 3, 2, (5.0,), (1.0,)).max_iters is None
    for given in (0, 4, 4.0, np.int64(4)):
        cfg = GridConfig(12, 3, 2, (5.0,), (1.0,), max_iters=given)
        assert cfg.max_iters == given and type(cfg.max_iters) is int


def test_result_row_consistency_guard():
    with pytest.raises(ValueError):
        ResultRow(1.0, 1.0, 0, 0, True, 3, 0.25, 1.0)


def test_make_initializer_strategies():
    truth = block_truth(8, 2)
    from hyperclust.core import Hypergraph

    g = Hypergraph(8, 3, np.empty((0, 3), dtype=np.int64))
    assert make_initializer("random")(g, 2, truth, 0).is_balanced
    assert make_initializer("corrupt:1")(g, 2, truth, 0).is_balanced
    with pytest.raises(ValueError):
        make_initializer("corrupt:1")(g, 2, None, 0)


# --- phase grid ---


def small_grid(threads=1, base_seed=5):
    return GridConfig(
        n=30,
        d=3,
        K=2,
        alphas=(8.0, 45.0),
        betas=(2.0,),
        trials=3,
        init="corrupt:2",
        base_seed=base_seed,
        threads=threads,
    )


def test_phase_grid_completeness_and_csv(tmp_path):
    out = tmp_path / "phase.csv"
    rows, ratios = phase_transition(small_grid(), out)
    seen = {(r.alpha, r.beta, r.trial) for r in rows}
    assert len(rows) == len(seen) == 2 * 1 * 3
    raw = read_rows(out)
    assert len(raw) == 6
    assert set(raw[0]) == {
        "alpha",
        "beta",
        "trial",
        "seed",
        "success",
        "iterations_run",
        "misclassification",
        "wall_ms",
        "skipped",
    }
    for r in rows:
        if r.success:
            assert r.misclassification == 0.0
    assert (out.parent / "phase_ratio.csv").exists()
    assert (out.parent / "phase_threshold.csv").exists()
    assert set(ratios) == {(8.0, 2.0), (45.0, 2.0)}


def test_phase_grid_deterministic_modulo_walltime(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    phase_transition(small_grid(), out1)
    phase_transition(small_grid(), out2)

    def strip(path):
        rows = read_rows(path)
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    assert strip(out1) == strip(out2)


def test_phase_grid_threads_match_serial(tmp_path):
    out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
    phase_transition(small_grid(threads=1), out1)
    phase_transition(small_grid(threads=2), out2)

    def strip(path):
        rows = read_rows(path)
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    assert strip(out1) == strip(out2)


def test_phase_grid_flags_out_of_regime_cells(tmp_path):
    cfg = GridConfig(
        n=10,
        d=2,
        K=2,
        alphas=(2.0, 500.0),  # alpha=500 drives p past 1 at n=10, d=2
        betas=(1.0,),
        trials=2,
        init="corrupt:0",
        base_seed=1,
    )
    out = tmp_path / "p.csv"
    rows, ratios = phase_transition(cfg, out)
    assert len(rows) == 4
    flagged = [r for r in rows if r.skipped]
    assert {(r.alpha, r.beta) for r in flagged} == {(500.0, 1.0)}
    assert ratios[(500.0, 1.0)] is None
    assert ratios[(2.0, 1.0)] is not None


def test_threshold_curve_values():
    pts = dict(threshold_curve((18.0, 50.0), 3, 3))
    assert pts[18.0] == pytest.approx(0.0)
    assert pts[50.0] == pytest.approx((math.sqrt(50) - math.sqrt(18)) ** 2)
    assert threshold_curve((1.0,), 3, 3) == []  # below the boundary constant


# --- convergence and timing ---


def test_convergence_trace_schema(tmp_path):
    out = tmp_path / "conv.csv"
    traces = convergence_trace(30, 3, 2, 45.0, 2.0, restarts=3, max_iters=10, base_seed=2, out=out)
    assert len(traces) == 3
    for trace in traces:
        assert trace[0].iteration == 0
        for rec in trace:
            assert rec.distance >= 0.0
        terminal = trace[-1].distance
        assert terminal == 0.0 or terminal >= math.sqrt(2.0) - 1e-12
    raw = read_rows(out)
    assert set(raw[0]) == {"restart", "iteration", "distance", "objective", "wall_ms"}
    # restarts share the instance, so traces differ only by their seeds
    assert len({r["restart"] for r in raw}) == 3


def test_timing_benchmark_roundtrip(tmp_path):
    out = tmp_path / "bench.csv"
    results = timing_benchmark([(30, 3, 2, 33.0, 8.0), (60, 3, 2, 33.0, 8.0)], iters=3, out=out)
    assert [r["n"] for r in results] == [30, 60]
    for r in results:
        assert r["iterations"] == 3
        assert r["per_iter_ms"] > 0
    raw = read_rows(out)
    assert [int(r["n"]) for r in raw] == [30, 60]
    assert [int(r["edges"]) for r in raw] == [r["edges"] for r in results]


def test_timing_results_are_keyed_by_their_columns():
    (result,) = timing_benchmark([(30, 3, 2, 33.0, 8.0)], iters=1)
    assert list(result) == TIMING_COLUMNS


def test_timing_identical_seeds_identical_counts():
    a = timing_benchmark([(30, 3, 2, 40.0, 4.0)], iters=4, base_seed=9)
    b = timing_benchmark([(30, 3, 2, 40.0, 4.0)], iters=4, base_seed=9)
    assert a[0]["edges"] == b[0]["edges"]
    assert a[0]["iterations"] == b[0]["iterations"]


# --- votes pipeline ---


def write_votes(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def synthetic_votes(path, per_party=20, flip=0.1, issues=16, seed=0):
    """Two parties with opposite stances on every issue, plus flip noise."""
    rng = np.random.default_rng(seed)
    rows = []
    for party, base in (("republican", "y"), ("democrat", "n")):
        other = "n" if base == "y" else "y"
        for _ in range(per_party):
            votes = [other if rng.random() < flip else base for _ in range(issues)]
            rows.append([party] + votes)
    write_votes(path, rows)
    return path


def test_load_votes_selects_and_orders(tmp_path):
    path = tmp_path / "votes.data"
    rows = [["republican"] + ["y"] * 16 for _ in range(4)]
    rows += [["democrat"] + ["n"] * 16 for _ in range(5)]
    write_votes(path, rows)
    votes, truth = load_votes(path, per_party=4)
    assert votes.shape == (8, 16)
    assert truth.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        load_votes(path, per_party=5)


def test_load_votes_subset_rule_at_real_shape(tmp_path):
    # real-file shape: 168 republicans interleaved among 267 democrats;
    # selection keeps every republican and the first 168 democrats in
    # file order
    rng = np.random.default_rng(0)
    parties = ["republican"] * 168 + ["democrat"] * 267
    rng.shuffle(parties)
    rows = []
    democrats_seen = 0
    for p in parties:
        if p == "republican":
            rows.append([p] + ["y"] * 16)
        else:
            democrats_seen += 1
            # first 168 democrats in file order vote 'n', the rest '?'
            stance = "n" if democrats_seen <= 168 else "?"
            rows.append([p] + [stance] * 16)
    path = tmp_path / "votes.data"
    write_votes(path, rows)
    votes, truth = load_votes(path)
    assert votes.shape == (336, 16)
    assert truth.counts().tolist() == [168, 168]
    # republicans come first in the member ordering, then democrats
    assert (votes[:168] == "y").all()
    # the democrats kept are exactly the first 168 in file order
    assert (votes[168:] == "n").all()


def test_load_votes_skips_malformed_rows(tmp_path):
    path = tmp_path / "votes.data"
    rows = [["republican"] + ["y"] * 16, ["republican", "y", "n"]]
    rows += [["democrat"] + ["x"] * 16, ["democrat"] + ["?"] * 16]
    write_votes(path, rows)
    with pytest.warns(UserWarning):
        votes, truth = load_votes(path, per_party=1)
    assert votes.shape == (2, 16)


def test_votes_candidate_pool_count(tmp_path):
    # six members agreeing on one issue: candidate pool is C(6, 3) = 20
    path = tmp_path / "votes.data"
    rows = [["republican"] + ["y"] + ["?"] * 15 for _ in range(3)]
    rows += [["democrat"] + ["y"] + ["?"] * 15 for _ in range(3)]
    write_votes(path, rows)
    votes, _ = load_votes(path, per_party=3)
    g = votes_hypergraph(votes, (1,), 1.0, 0)
    assert g.num_edges == 20
    # missing stances never match, so other issues contribute nothing
    g2 = votes_hypergraph(votes, (2,), 1.0, 0)
    assert g2.num_edges == 0


def test_votes_dedup_across_issues(tmp_path):
    path = tmp_path / "votes.data"
    rows = [["republican"] + ["y", "y"] + ["?"] * 14 for _ in range(3)]
    rows += [["democrat"] + ["y", "y"] + ["?"] * 14 for _ in range(3)]
    write_votes(path, rows)
    votes, _ = load_votes(path, per_party=3)
    g = votes_hypergraph(votes, (1, 2), 1.0, 0)
    assert g.num_edges == 20  # both issues generate the same triples


def test_votes_edge_prob_outside_unit_interval_is_rejected(tmp_path):
    path = synthetic_votes(tmp_path / "votes.data", per_party=10)
    votes, _ = load_votes(path, per_party=10)
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="edge_prob"):
            votes_hypergraph(votes, (1, 2), bad, 0)
        with pytest.raises(ValueError, match="edge_prob"):
            uci_votes_pipeline(path, edge_prob=bad, seed=1, per_party=10)
    # both ends of [0, 1] stay valid
    assert votes_hypergraph(votes, (1,), 0.0, 0).num_edges == 0
    assert votes_hypergraph(votes, (1,), 1.0, 0).num_edges > 0


def test_votes_pipeline_zero_edge_prob(tmp_path):
    path = synthetic_votes(tmp_path / "votes.data", per_party=10)
    with pytest.warns(UserWarning):
        g, truth, row = uci_votes_pipeline(path, edge_prob=0.0, seed=1, per_party=10)
    assert g.num_edges == 0
    assert row.skipped
    assert row.misclassification is not None  # flagged, not crashed


def test_votes_pipeline_recovers_synthetic_parties(tmp_path):
    path = synthetic_votes(tmp_path / "votes.data", per_party=20, flip=0.08, seed=4)
    out = tmp_path / "uci.csv"
    g, truth, row = uci_votes_pipeline(
        path, edge_prob=0.05, seed=2, out=out, per_party=20
    )
    assert g.n == 40
    assert row.misclassification <= 0.1
    raw = read_rows(out)
    assert len(raw) == 1
    assert raw[0]["misclassification"] == repr(row.misclassification)
