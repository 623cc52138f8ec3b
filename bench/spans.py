"""Spans around the public functions of each pstchain module.

The tracer replaces every binding of a traced function in the ``pstchain``
modules with a wrapper, records one span per call (name, start, end,
parent span, operation id, work count) in flat arrays, and puts the
original functions back on exit.  A layer's self time is its span's
duration minus the durations of its child spans.  Work counts come from
return values: points for ``amplitude_values``, bytes for the emitters and
the ``EseReport`` fields for ``detect_ese``.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Layer (module) -> traced public functions.  ``cli.main`` spans are named
# after their subcommand, e.g. ``cli.analyze``.
TARGETS = {
    "inverse": ("persymmetric_weights", "reconstruct_jacobi"),
    "jacobi": (
        "eigendecompose",
        "full_evolution_column",
        "amplitude",
        "amplitude_values",
        "amplitude_series",
    ),
    "dynamics": ("detect_pst", "detect_ese"),
    "families": ("amplitude_as_chebyshev", "count_sign_changes"),
    "emit": ("dumps", "csv_text", "amplitude_svg"),
    "cli": ("main",),
}

_EMITTERS = {"emit.dumps", "emit.csv_text", "emit.amplitude_svg"}

# detect_ese scans (eps, T0 - eps) with eps = 1e-6 T0 (see its docstring).
_ESE_SCAN_FRACTION = 1.0 - 2e-6


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self._ids = {"op": 0}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("q")
        self.ese = {"zeros": 0, "unresolved": 0, "anomalies": 0, "grid_points": 0}
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self.work.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation; layer calls nest under it."""
        self._op_id = op_id
        self._stack = [-1]
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._stack = []

    def _work(self, name: str, args, kwargs, out) -> int:
        if name == "jacobi.amplitude_values":
            return int(np.size(out))
        if name in _EMITTERS:
            return len(out)  # the emitters write ASCII, so characters are bytes
        if name == "dynamics.detect_ese":
            cert = args[1] if len(args) > 1 else kwargs["cert"]
            points = round(cert.transfer_time * _ESE_SCAN_FRACTION / out.scan_resolution) + 1
            self.ese["zeros"] += len(out.zeros)
            self.ese["unresolved"] += len(out.unresolved)
            self.ese["anomalies"] += len(out.early_pst_anomalies)
            self.ese["grid_points"] += points
            return points
        return 0

    def _wrap(self, name: str, fn):
        tracer = self
        fixed = None if name == "cli.main" else self._id(name)

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if fixed is None:
                argv = args[0] if args else kwargs.get("argv")
                nid = tracer._id(f"cli.{argv[0]}" if argv else "cli.main")
            else:
                nid = fixed
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.work[idx] = tracer._work(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "pstchain" or key.startswith("pstchain.")
        ]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"pstchain.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        leftover = [
            f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched
            if hasattr(getattr(mod, attr), "__wrapped__")
        ]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"traced names not restored: {leftover}")
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-span-name calls, self time, max duration and work; op totals."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        nested = a["parent"] >= 0
        child = np.bincount(
            a["parent"][nested], weights=dur[nested], minlength=dur.size
        )
        self_ns = dur - child
        names = a["name"]
        per_name = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            if not mask.any():
                continue
            imax = int(np.argmax(np.where(mask, dur, -1.0)))
            per_name[name] = {
                "calls": int(mask.sum()),
                "self_ms": float(self_ns[mask].sum()) / 1e6,
                "total_ms": float(dur[mask].sum()) / 1e6,
                "max_ms": float(dur[imax]) / 1e6,
                "max_op": int(a["op"][imax]),
                "work": int(a["work"][mask].sum()),
            }
        roots = names == 0
        top = nested & roots[np.maximum(a["parent"], 0)]
        amplitude = names == self._ids.get("jacobi.amplitude", -1)
        under_ese = nested & (
            names[np.maximum(a["parent"], 0)] == self._ids.get("dynamics.detect_ese", -1)
        )
        return {
            "spans": int(names.size),
            "op_ms": float(dur[roots].sum()) / 1e6,
            "layer_ms": float(dur[top].sum()) / 1e6,
            "ese_amplitude_calls": int((amplitude & under_ese).sum()),
            "ese": dict(self.ese),
            "per_name": per_name,
        }
