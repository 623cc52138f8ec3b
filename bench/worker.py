"""One workload in a fresh interpreter: set up, run the timed loop, report.

Started by ``run.py``.  Prints one JSON object on stdout.  ``ready`` is the
``time.monotonic()`` reading just before the first timed operation, which
``run.py`` compares with its own reading at launch (CLOCK_MONOTONIC is
system-wide on Linux).

Untraced mode runs items from the seeded list until ``--seconds`` have
passed, always finishing the current item and wrapping around the list.
Between operations it times a fixed reference computation that does not
touch pstchain.  Other tenants of
a shared machine slow everything by up to 2x in phases lasting seconds;
dividing an operation's time by the reference times around it cancels
that, so latencies are also reported in reference units ("ref").

Traced mode runs every item of the list exactly once untraced and once
traced, back to back, so its work counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import workloads
from spans import Tracer


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls."""
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(60):
        acc += float(np.abs(np.exp(-1j * x * i).sum()))
        for j in range(30):
            acc += j * 0.5
    return time.perf_counter() - t0


def _outcome(op, out, error) -> str | None:
    """None when the output passes its check, else the failure class."""
    if error is not None:
        return f"unexpected: {type(error).__name__}: {error}"
    try:
        op.check(out)
    except workloads.KnownDefect as exc:
        return f"known: {exc.tag}"
    except Exception as exc:  # every failed check is counted, none aborts the run
        return f"unexpected: {type(exc).__name__}: {exc}"
    return None


@dataclass(frozen=True)
class Record:
    op: str
    label: str
    family: str
    sites: int
    seconds: float
    outcome: str | None
    key: tuple[int, int]  # (item position, operation index in the item)


def run_item(item, position: int, records: list, tracer: Tracer | None = None,
             refs: list | None = None) -> None:
    """Run and check every operation of ``item``; append one record each."""
    for index, op in enumerate(item.ops()):
        if tracer is not None:
            tracer.begin_op(len(records))
        error = out = None
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if refs is not None:
            refs.append(reference())
        records.append(Record(op.name, item.label, item.family, item.sites, dt,
                              _outcome(op, out, error), (position, index)))


def _local_reference(refs: list) -> np.ndarray:
    """Median of the (up to) four reference times nearest each operation.

    ``refs[k]`` was taken just before operation k and ``refs[k + 1]`` just
    after it.
    """
    r = np.asarray(refs)
    return np.array([np.median(r[max(0, k - 1):k + 3]) for k in range(r.size - 1)])


def _shares(values: list) -> dict:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return {k: counts[k] / len(values) for k in sorted(counts)}


def _per_operation(records: list, values: np.ndarray) -> dict:
    """Median over the runs of each distinct operation, keyed like records."""
    runs: dict = {}
    for r, v in zip(records, values):
        runs.setdefault(r.key, []).append(v)
    return {key: float(np.median(v)) for key, v in runs.items()}


def describe(records: list, refs: list | None = None) -> dict:
    """Failures over every run; latencies over distinct operations.

    An operation that ran more than once (the loop wrapped around the item
    list) counts once, with the median of its runs, so every run of the
    benchmark weighs the same inputs alike.
    """
    failures: dict[str, int] = {}
    for r in records:
        if r.outcome is not None:
            failures[r.outcome] = failures.get(r.outcome, 0) + 1
    seconds = _per_operation(records, np.array([r.seconds for r in records]))
    first = {}
    for r in records:
        first.setdefault(r.key, r)
    ops = list(first.values())
    lat = np.array([seconds[r.key] for r in ops])
    per_command = {}
    for name in sorted({r.op for r in ops}):
        sel = np.array([seconds[r.key] for r in ops if r.op == name])
        per_command[name] = {"samples": int(sel.size),
                             "p50_ms": float(np.percentile(sel, 50)) * 1e3}
    out = {
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": failures,
        "operations": len(ops),
        "timed_s": float(lat.sum()),
        "p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "family_share": _shares([r.family for r in ops]),
        "size_band_share": _shares([workloads.size_band(r.sites) for r in ops]),
        "per_command": per_command,
    }
    if refs is not None:
        raw = np.array([r.seconds for r in records]) / _local_reference(refs)
        scaled = _per_operation(records, raw)
        lat_ref = np.array([scaled[r.key] for r in ops])
        out.update({
            "reference_ms": float(np.median(refs)) * 1e3,
            "timed_ref": float(lat_ref.sum()),
            "p50_ref": float(np.percentile(lat_ref, 50)),
            "p90_ref": float(np.percentile(lat_ref, 90)),
        })
    return out


def _max_by_family(tracer: Tracer, records: list, name: str) -> dict:
    """Longest span called ``name`` per input family, with its input."""
    if name not in tracer.names:
        return {}
    a = tracer.arrays()
    best: dict = {}
    for i in np.nonzero(a["name"] == tracer.names.index(name))[0]:
        ms = (a["end_ns"][i] - a["start_ns"][i]) / 1e6
        record = records[a["op"][i]]
        if ms > best.get(record.family, (0.0, ""))[0]:
            best[record.family] = (float(ms), record.label)
    return best


def measure(args, items) -> dict:
    records: list = []
    if not args.trace:
        refs = [reference()]
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            run_item(items[k % len(items)], k % len(items), records, refs=refs)
            k += 1
        result = {"untraced": describe(records, refs), "passes": k / len(items)}
    else:
        traced: list = []
        tracer = Tracer()
        for position, item in enumerate(items):
            run_item(item, position, records)
            with tracer:
                run_item(item, position, traced, tracer)
        path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(path)
        summary = tracer.summary()
        summary["max_op_label"] = {
            name: traced[entry["max_op"]].label for name, entry in summary["per_name"].items()
        }
        summary["eigendecompose_max_ms_by_family"] = _max_by_family(
            tracer, traced, "jacobi.eigendecompose")
        result = {
            "untraced": describe(records),
            "traced": describe(traced),
            "trace": summary,
            "spans_file": os.path.relpath(path),
        }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["tolerances"] = workloads.TOLERANCES
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=args.out_dir)
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        result = {"ready": time.monotonic(), "items": len(items)}
        if not args.setup_only:
            result.update(measure(args, items))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
