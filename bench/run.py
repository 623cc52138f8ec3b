"""pstchain benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload family_sweep --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (``worker.py``) as one
closed-loop client without worker threads; the library is imported from
``src/``.  Set-up is measured several times, each in its own fresh
interpreter, and reported as the median.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics from a traced run.  Human-readable lines come first; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("family_sweep", "forward_matrix", "cli_pipeline")

SETUP_PROBES = 8
# The whole run must end within 180 s.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _launch(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker; return its JSON result and its set-up seconds."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR, *extra,
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - launched


def _field(per_name: dict, base: str, field: str) -> float:
    entry = per_name.get(base)
    if entry is None:
        return 0.0
    key = "work" if field in ("points", "bytes") else field
    return float(entry[key])


def per_layer_value(name: str, result: dict) -> float:
    trace = result["trace"]
    ese = trace["ese"]
    if name == "trace.overhead_ratio":
        return result["traced"]["timed_s"] / result["untraced"]["timed_s"]
    if name == "oracle.known_defects":
        return float(sum(n for tag, n in result["untraced"]["failures"].items()
                         if tag.startswith("known")))
    if name == "trace.unattributed_share":
        return (trace["op_ms"] - trace["layer_ms"]) / trace["op_ms"]
    if name == "dynamics.detect_ese.amplitude_calls_per_zero":
        return trace["ese_amplitude_calls"] / ese["zeros"] if ese["zeros"] else 0.0
    if name.startswith("dynamics.detect_ese.") and name.split(".")[-1] in ese:
        return float(ese[name.split(".")[-1]])
    if name.startswith("cli.") and name.endswith("_p50_ms"):
        command = name[: -len("_p50_ms")]
        entry = result["untraced"]["per_command"].get(command)
        return entry["p50_ms"] if entry else 0.0
    base, field = name.rsplit(".", 1)
    return _field(trace["per_name"], base, field)


def end_to_end_value(name: str, result: dict, setup_s: float) -> float:
    u = result["untraced"]
    values = {
        "ops_per_kref": 1e3 * u["operations"] / u["timed_ref"],
        "latency_p50_ref": u["p50_ref"],
        "latency_p90_ref": u["p90_ref"],
        "ok_ratio": 1.0 - u["failed"] / u["attempted"],
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values[name]


def report_lines(args, result: dict, setups: list[float], metrics: dict) -> list[str]:
    u = result["untraced"]
    n = u["operations"]
    lines = [
        f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{u['attempted']} runs of {n} distinct operations "
        f"({result.get('passes', 1.0):.2f} passes of {result['items']} items), "
        f"set-up samples {[round(s, 4) for s in setups]}",
        f"# failed_ratio {u['failed'] / u['attempted']:.6f} ratio "
        f"({u['failed']} of {u['attempted']}, known defects included)",
    ]
    for tag, count in sorted(u["failures"].items()):
        lines.append(f"#   {count} x {tag[:160]}")
    lines.append(f"# latency samples {n}, {n - int(0.9 * n)} above p90")
    lines.append(f"# wall clock: ops_per_s {n / u['timed_s']:.4f} 1/s, latency_p50_ms "
                 f"{u['p50_ms']:.4f} ms, latency_p90_ms {u['p90_ms']:.4f} ms")
    if "reference_ms" in u:
        lines.append(f"# reference computation median {u['reference_ms']:.4f} ms")
    for command, entry in u["per_command"].items():
        if command.startswith("cli."):
            lines.append(f"# {command}_p50_ms {entry['p50_ms']:.4f} ms "
                         f"(n={entry['samples']})")
    lines.append("# family share " + " ".join(
        f"{k}={v:.3f}" for k, v in u["family_share"].items()))
    lines.append("# size band share " + " ".join(
        f"{k}={v:.3f}" for k, v in u["size_band_share"].items()))
    if "trace" in result:
        trace = result["trace"]
        for family, (ms, label) in sorted(trace["eigendecompose_max_ms_by_family"].items()):
            lines.append(f"# jacobi.eigendecompose longest call in {family}: "
                         f"{ms:.3f} ms on {label}")
        by_layer: dict[str, float] = {}
        for name, entry in trace["per_name"].items():
            layer = "unattributed" if name == "op" else name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_ms"]
        lines.append(
            f"# traced operation wall {trace['op_ms']:.1f} ms = self time "
            + " + ".join(f"{k} {v:.1f}" for k, v in sorted(by_layer.items()))
        )
        lines.append(f"# spans {trace['spans']} written to {result['spans_file']}")
    for name, entry in metrics.items():
        lines.append(f"{name} {entry['value']:.6g} {entry['unit']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "pstchain", "__init__.py")):
        print("error: src/pstchain not found; run from a pstchain checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    try:
        setups = [
            _launch(args, ["--setup-only"], deadline)[1] for _ in range(SETUP_PROBES)
        ]
        result, setup = _launch(args, [], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    setup_s = statistics.median(setups)

    if args.trace:
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], result), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": end_to_end_value(m["name"], result, setup_s),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    failures = result["untraced"]["failures"]
    if args.trace:
        failures = {**failures}
        for tag, count in result["traced"]["failures"].items():
            failures[tag] = failures.get(tag, 0) + count
    attempted = result["untraced"]["attempted"] + (
        result["traced"]["attempted"] if args.trace else 0)
    # An output that a documented open defect explains still counts against
    # ok_ratio and in the printed failed_ratio, but not in ``failed``: that
    # field is for wrong outputs nobody has accounted for.
    failed = sum(n for tag, n in failures.items() if not tag.startswith("known"))
    correct = failed == 0

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump({**result, "setup_samples_s": setups, "metrics": metrics}, handle,
                  indent=1)
    for line in report_lines(args, result, setups, metrics):
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
