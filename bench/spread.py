"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workloads family_sweep cli_pipeline \
        --seeds 1 2 3 4 5 --trace 0 --out .bench_out/spread.json

Runs are sequential.  For each workload and metric it reports the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the
interquartile distance as a share of the median, next to the metric's
bound, so a later change can tell "unresolved" from "unchanged".  It also
keeps, per seed, the wall-clock figures, the failures by class and the
share of operations in each family and size band.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail_path = os.path.join(
                ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace{args.trace}.json")
            with open(detail_path, encoding="utf-8") as handle:
                u = json.load(handle)["untraced"]
            result["per_seed"] = {
                "seed": seed,
                "failed_ratio": u["failed"] / u["attempted"],
                "failures": u["failures"],
                "ops_per_s": u["operations"] / u["timed_s"],
                "latency_p50_ms": u["p50_ms"],
                "latency_p90_ms": u["p90_ms"],
                "per_command_p50_ms": {k: v["p50_ms"] for k, v in u["per_command"].items()},
                "family_share": u["family_share"],
                "size_band_share": u["size_band_share"],
            }
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bounds[name])
            for name in runs[0]["metrics"]
        }
        wall = {
            name: summarize([r["per_seed"][name] for r in runs], None)
            for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "failed_ratio")
        }
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "wall_clock": wall,
            "per_seed": [r["per_seed"] for r in runs],
        }
        for name, entry in metrics.items():
            flag = ""
            if entry.get("bound") and entry["iqr_share"] > entry["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:48s} median {entry['median']:.6g}  iqr/median "
                  f"{entry['iqr_share']:.4f}  bound {entry.get('bound')}{flag}",
                  flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
