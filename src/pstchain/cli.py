"""Command-line surface: construct wires, analyze transfer, export, plot.

Exit codes: 0 success, 2 bad arguments or unreadable input, 3 numerical
failure.  Output files are written only after all computation succeeded,
so a failing run leaves no partial artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .dynamics import EseReport, PstCertificate, detect_ese, detect_pst
from .emit import amplitude_svg, csv_text, dumps
from .errors import ChainError
from .families import gap_family_spectrum, krawtchouk_chain, surgery_spectrum
from .inverse import SpectrumRequest, persymmetric_weights, reconstruct_jacobi
from .jacobi import (
    JacobiMatrix,
    SpectralData,
    amplitude_series,
    check_persymmetry,
    eigendecompose,
)


@dataclass(frozen=True)
class RunManifest:
    """Record of one command invocation: inputs echoed, outputs written."""

    command: str
    inputs: dict
    outputs: tuple[str, ...]
    tool_version: str = __version__

    def __post_init__(self):
        for path in self.outputs:
            if not (os.path.isfile(path) and os.path.getsize(path) > 0):
                raise ValueError(f"declared output {path} is missing or empty")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _spectral_data_from_document(doc) -> SpectralData:
    """Spectral data from a spectrum array or a construct-style document.

    Embedded spectrum/weights take priority so that exactly constructed
    artifacts bypass eigensolver noise; a document carrying only a matrix
    is decomposed.
    """
    if isinstance(doc, list):
        return persymmetric_weights(SpectrumRequest(doc))
    if isinstance(doc, dict):
        if "spectrum" in doc and "weights" in doc:
            return SpectralData(
                eigenvalues=np.asarray(doc["spectrum"], dtype=float),
                weights=np.asarray(doc["weights"], dtype=float),
            )
        if "matrix" in doc:
            matrix = doc["matrix"]
            return eigendecompose(
                JacobiMatrix(diag=matrix["diag"], offdiag=matrix["offdiag"])
            )
    raise ValueError(
        "input must be a JSON array of eigenvalues or a document with "
        "spectrum/weights or matrix keys"
    )


def _certificate_dict(cert: PstCertificate) -> dict:
    return {
        "has_pst": cert.has_pst,
        "transfer_time": cert.transfer_time,
        "gap_odd_integers": list(cert.gap_odd_integers)
        if cert.gap_odd_integers is not None
        else None,
        "phase_re": cert.phase.real if cert.phase is not None else None,
        "phase_im": cert.phase.imag if cert.phase is not None else None,
    }


def _ese_dict(report: EseReport) -> dict:
    return {
        "zeros": [asdict(zero) for zero in report.zeros],
        "unresolved": list(report.unresolved),
        "early_pst_anomalies": list(report.early_pst_anomalies),
        "scan_resolution": report.scan_resolution,
        "tolerance": report.tolerance,
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _spectrum_file(args: argparse.Namespace) -> SpectrumRequest:
    doc = _load_json(args.input)
    _require(isinstance(doc, list), "spectrum file must be a JSON array")
    return SpectrumRequest(doc)


# kind -> (argparse dests it needs, spectrum factory)
_CONSTRUCT_KINDS = {
    "krawtchouk": (("N",), lambda a: SpectrumRequest(np.arange(a.N + 1) - a.N / 2.0)),
    "gap-family": (("n", "m"), lambda a: gap_family_spectrum(a.n, a.m)),
    "surgery": (("N",), lambda a: surgery_spectrum(a.N)),
    "example-4x4": ((), lambda a: surgery_spectrum(3)),
    "from-spectrum": (("input",), _spectrum_file),
}


def cmd_construct(args: argparse.Namespace) -> RunManifest:
    """Build a named wire and write its full spectral document."""
    kind = args.kind
    needs, factory = _CONSTRUCT_KINDS[kind]
    missing = [
        "--in" if dest == "input" else f"--{dest}"
        for dest in needs
        if getattr(args, dest) is None
    ]
    _require(not missing, f"{kind} requires {' and '.join(missing)}")
    request = factory(args)
    sd = persymmetric_weights(request)
    # the closed-form chain keeps exact zeros on the diagonal
    if kind == "krawtchouk":
        chain = krawtchouk_chain(args.N)
    else:
        chain = reconstruct_jacobi(sd)
    cert = detect_pst(request, args.tol)
    document = {
        "spectrum": sd.eigenvalues,
        "weights": sd.weights,
        "matrix": {"diag": chain.diag, "offdiag": chain.offdiag},
        "persymmetry": asdict(check_persymmetry(chain, 1e-12)),
        "pst": _certificate_dict(cert),
    }
    _write(args.out, dumps(document))
    inputs = {"kind": kind, "N": args.N, "n": args.n, "m": args.m,
              "in": args.input, "tol": args.tol}
    return RunManifest(command="construct", inputs=inputs, outputs=(args.out,))


def cmd_analyze(args: argparse.Namespace) -> RunManifest:
    """Run transfer and exclusion analysis over a spectrum, document or matrix."""
    sd = _spectral_data_from_document(_load_json(args.input))
    cert = detect_pst(SpectrumRequest(sd.eigenvalues), args.tol)
    if cert.has_pst:
        report = detect_ese(sd, cert)
        ese = _ese_dict(report)
        verdict = "ESE present" if report.zeros else "ESE absent"
    else:
        ese = None
        verdict = "no PST, ESE analysis not applicable"
    document = {
        "spectrum": sd.eigenvalues,
        "pst": _certificate_dict(cert),
        "ese": ese,
        "verdict": verdict,
    }
    _write(args.out, dumps(document))
    inputs = {"in": args.input, "tol": args.tol}
    return RunManifest(command="analyze", inputs=inputs, outputs=(args.out,))


def cmd_evolve(args: argparse.Namespace) -> RunManifest:
    """Export both boundary amplitudes over a uniform time grid."""
    sd = _spectral_data_from_document(_load_json(args.input))
    series = amplitude_series(sd, args.t0, args.t1, args.steps)
    columns = {
        "t": series.times,
        "re_x0": series.x0.real,
        "im_x0": series.x0.imag,
        "abs_x0": np.abs(series.x0),
        "re_xN": series.xN.real,
        "im_xN": series.xN.imag,
        "abs_xN": np.abs(series.xN),
    }
    if args.format == "csv":
        text = csv_text(list(columns), list(columns.values()))
    else:
        text = dumps({name: values for name, values in columns.items()})
    _write(args.out, text)
    inputs = {"in": args.input, "t0": args.t0, "t1": args.t1,
              "steps": args.steps, "format": args.format}
    return RunManifest(command="evolve", inputs=inputs, outputs=(args.out,))


def cmd_plot(args: argparse.Namespace) -> RunManifest:
    """Render both boundary amplitudes to a standalone SVG with markers."""
    sd = _spectral_data_from_document(_load_json(args.input))
    series = amplitude_series(sd, args.t0, args.t1, 800)
    cert = detect_pst(SpectrumRequest(sd.eigenvalues), args.tol)
    ese_times: list[float] = []
    transfer_time = None
    if cert.has_pst:
        transfer_time = cert.transfer_time
        ese_times = [zero.time for zero in detect_ese(sd, cert).zeros]
    svg = amplitude_svg(
        series.times,
        np.abs(series.x0),
        np.abs(series.xN),
        ese_times,
        transfer_time,
    )
    _write(args.out, svg)
    inputs = {"in": args.input, "t0": args.t0, "t1": args.t1, "tol": args.tol}
    return RunManifest(command="plot", inputs=inputs, outputs=(args.out,))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstchain",
        description="Quantum wires with perfect state transfer: construction, "
        "transfer certification, early-exclusion search, series export, plots.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a named wire family")
    construct.add_argument(
        "kind",
        choices=["krawtchouk", "gap-family", "surgery", "example-4x4", "from-spectrum"],
    )
    construct.add_argument("--N", type=int, default=None, help="chain parameter N")
    construct.add_argument("--n", type=int, default=None, help="gap-family half-size")
    construct.add_argument("--m", type=int, default=None, help="gap-family middle gap index")
    construct.add_argument("--in", dest="input", default=None, help="spectrum file (JSON array)")
    construct.add_argument("--out", required=True, help="output JSON path")
    construct.add_argument("--tol", type=float, default=1e-8, help="transfer gap tolerance")
    construct.set_defaults(func=cmd_construct)

    analyze = sub.add_parser("analyze", help="transfer and exclusion analysis")
    analyze.add_argument("--in", dest="input", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--tol", type=float, default=1e-8)
    analyze.set_defaults(func=cmd_analyze)

    evolve = sub.add_parser("evolve", help="export boundary amplitude series")
    evolve.add_argument("--in", dest="input", required=True)
    evolve.add_argument("--t0", type=float, required=True)
    evolve.add_argument("--t1", type=float, required=True)
    evolve.add_argument("--steps", type=int, required=True)
    evolve.add_argument("--format", choices=["csv", "json"], default="csv")
    evolve.add_argument("--out", required=True)
    evolve.set_defaults(func=cmd_evolve)

    plot = sub.add_parser("plot", help="render amplitudes to SVG")
    plot.add_argument("--in", dest="input", required=True)
    plot.add_argument("--t0", type=float, required=True)
    plot.add_argument("--t1", type=float, required=True)
    plot.add_argument("--tol", type=float, default=1e-8)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(dumps(asdict(manifest)))
    return 0


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())
