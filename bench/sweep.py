"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py [--seeds 1-10] [--trace 0|1] [--out bench-results.jsonl]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, from the
root of the checkout, on every workload of BENCHMARK.json for its
``run_seconds``.  Appends every result line to ``--out`` and prints,
per workload and metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median) next to the
metric's bound in BENCHMARK.json.  With both traced and untraced results
for a workload in ``--out``, it also prints the tracing overhead on the
median trial time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def summarize(records, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in records):
        for trace in (0, 1):
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            failed = sorted({(r["failed"], r["attempted"]) for r in runs if r["failed"]})
            print(f"\n{workload} trace={trace}: {len(runs)} runs, "
                  f"correct={all(r['correct'] for r in runs)}, "
                  f"attempted {min(r['attempted'] for r in runs)}-{max(r['attempted'] for r in runs)}, "
                  f"failed {failed or 0}, wall {max(r['wall_s'] for r in runs):.1f} s max")
            if len(runs) < 2:
                continue
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, rel = spread(values) if len(set(values)) > 1 else (values[0],) * 3 + (0.0,)
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound}" + ("  OVER 1/3" if rel > bound / 3 else "")
                print(f"  {name:40s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {rel:.3f}{flag}")
        traced = [r["traced_p50"] for r in records if r["workload"] == workload and r.get("traced_p50")]
        plain = [r["metrics"]["trial_ms.p50"]["value"] for r in records
                 if r["workload"] == workload and r["trace"] == 0 and r["metrics"]]
        if traced and plain:
            over = statistics.median(traced) / statistics.median(plain) - 1
            print(f"  tracing overhead on trial_ms.p50: {100 * over:+.1f}%")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="bench-results.jsonl")
    ap.add_argument("--summary-only", action="store_true", help="summarize --out without running")
    args = ap.parse_args()
    out = ROOT / args.out
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    if not args.summary_only:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or not lines:
                    sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "seconds": seconds, "wall_s": wall, **json.loads(lines[-1])}
                for line in lines:
                    if line.startswith("# traced trial_ms.p50="):
                        record["traced_p50"] = float(line.split("=", 1)[1])
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed}: {wall:.1f} s, correct={record['correct']}", flush=True)

    records = [json.loads(line) for line in out.read_text().splitlines()]
    summarize([r for r in records if r["workload"] in workloads], bench)


if __name__ == "__main__":
    main()
