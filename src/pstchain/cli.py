"""Command-line surface: construct wires, analyze transfer, export, plot.

Each ``cmd_*`` returns the text of its one output file.  ``main`` alone
writes that text to ``--out``, only after all computation succeeded, so a
failing run leaves no partial artifacts and prints nothing on stdout.  On
success ``main`` prints a JSON manifest whose ``inputs`` echo the
subcommand's options in parser order (``--in`` as ``in``, ``--out`` left
out, since it is listed under ``outputs``).

Exit codes: 0 success, 2 bad arguments or unreadable input (the readers'
ValueError or OSError), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .dynamics import _PST_TOL, EseReport, PstCertificate, detect_ese, detect_pst
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


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None


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
            return SpectralData(eigenvalues=doc["spectrum"], weights=doc["weights"])
        if "matrix" in doc:
            matrix = doc["matrix"]
            _require(
                isinstance(matrix, dict) and "diag" in matrix and "offdiag" in matrix,
                "matrix must be an object with diag and offdiag arrays",
            )
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
        "gap_odd_integers": cert.gap_odd_integers,
        "phase_re": cert.phase.real if cert.phase is not None else None,
        "phase_im": cert.phase.imag if cert.phase is not None else None,
    }


def _ese_dict(report: EseReport) -> dict:
    return {
        "zeros": [asdict(zero) for zero in report.zeros],
        "unresolved": report.unresolved,
        "early_pst_anomalies": report.early_pst_anomalies,
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


def cmd_construct(args: argparse.Namespace) -> str:
    """Build a named wire and return its full spectral document."""
    kind = args.kind
    needs, factory = _CONSTRUCT_KINDS[kind]
    missing = [
        "--in" if dest == "input" else f"--{dest}"
        for dest in needs
        if getattr(args, dest) is None
    ]
    _require(not missing, f"{kind} requires {' and '.join(missing)}")
    # the closed-form chain keeps exact zeros on the diagonal; built first,
    # it checks N before np.arange allocates N + 1 values
    chain = krawtchouk_chain(args.N) if kind == "krawtchouk" else None
    request = factory(args)
    sd = persymmetric_weights(request)
    if chain is None:
        chain = reconstruct_jacobi(sd)
    cert = detect_pst(request, args.tol)
    document = {
        "spectrum": sd.eigenvalues,
        "weights": sd.weights,
        "matrix": {"diag": chain.diag, "offdiag": chain.offdiag},
        "persymmetry": asdict(check_persymmetry(chain)),
        "pst": _certificate_dict(cert),
    }
    return dumps(document)


def _transfer_analysis(
    sd: SpectralData, tol: float
) -> tuple[PstCertificate, EseReport | None]:
    """PST certificate of the spectral data and, if it certifies, its ESE report."""
    cert = detect_pst(SpectrumRequest(sd.eigenvalues), tol)
    return cert, detect_ese(sd, cert) if cert.has_pst else None


def cmd_analyze(args: argparse.Namespace) -> str:
    """Run transfer and exclusion analysis over a spectrum, document or matrix."""
    sd = _spectral_data_from_document(_load_json(args.input))
    cert, report = _transfer_analysis(sd, args.tol)
    if report is None:
        ese = None
        verdict = "no PST, ESE analysis not applicable"
    else:
        ese = _ese_dict(report)
        verdict = "ESE present" if report.zeros else "ESE absent"
    document = {
        "spectrum": sd.eigenvalues,
        "pst": _certificate_dict(cert),
        "ese": ese,
        "verdict": verdict,
    }
    return dumps(document)


def cmd_evolve(args: argparse.Namespace) -> str:
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
        return csv_text(list(columns), list(columns.values()))
    return dumps(columns)


def cmd_plot(args: argparse.Namespace) -> str:
    """Render both boundary amplitudes to a standalone SVG with markers."""
    sd = _spectral_data_from_document(_load_json(args.input))
    series = amplitude_series(sd, args.t0, args.t1, 800)
    cert, report = _transfer_analysis(sd, args.tol)
    return amplitude_svg(
        series.times,
        np.abs(series.x0),
        np.abs(series.xN),
        [zero.time for zero in report.zeros] if report is not None else [],
        cert.transfer_time,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstchain",
        description="Quantum wires with perfect state transfer: construction, "
        "transfer certification, early-exclusion search, series export, plots.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a named wire family")
    construct.add_argument("kind", choices=list(_CONSTRUCT_KINDS))
    construct.add_argument("--N", type=int, default=None, help="chain parameter N")
    construct.add_argument("--n", type=int, default=None, help="gap-family half-size")
    construct.add_argument("--m", type=int, default=None, help="gap-family middle gap index")
    construct.add_argument("--in", dest="input", default=None, help="spectrum file (JSON array)")
    construct.add_argument("--out", required=True, help="output JSON path")
    construct.add_argument("--tol", type=float, default=_PST_TOL, help="transfer gap tolerance")
    construct.set_defaults(func=cmd_construct)

    analyze = sub.add_parser("analyze", help="transfer and exclusion analysis")
    analyze.add_argument("--in", dest="input", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--tol", type=float, default=_PST_TOL)
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
    plot.add_argument("--tol", type=float, default=_PST_TOL)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=cmd_plot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run and reused: parsing leaves a parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _write(args.out, args.func(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # argparse fills the namespace in declaration order: parser order
    inputs = {
        "in" if dest == "input" else dest: value
        for dest, value in vars(args).items()
        if dest not in ("command", "func", "out")
    }
    sys.stdout.write(dumps({
        "command": args.command,
        "inputs": inputs,
        "outputs": [args.out],
        "tool_version": __version__,
    }))
    return 0


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())
