"""Seeded inputs, timed operations and correctness oracles of the workloads.

A workload turns a seed into a list of items.  An item is one input (a
spectrum, a matrix or a family document) and yields one or more operations;
each operation is a call into pstchain, timed on its own, plus a check of
its output that runs outside the timed region.  A check raises ``Mismatch``
for a wrong output and ``KnownDefect`` for a wrong output that a documented
open defect explains, so a run can tell known failures from new ones.

Items are interleaved so that each stratum (family x size band) is spread
evenly over the list: a run cut short by its time budget still covers the
strata in proportion.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

import pstchain.cli as cli
import pstchain.errors as errors
import pstchain.dynamics as dynamics
import pstchain.families as families
import pstchain.inverse as inverse
import pstchain.jacobi as jacobi

# Oracle tolerances, reported with every result.
TOLERANCES = {
    "transfer_time_abs": 1e-9,
    "phase_modulus_abs": 1e-9,
    "exact_weight_rel": 1e-10,
    "zero_residual_abs": 1e-9,
    "four_site_zero_abs": 1e-9,
    "series_abs": 1e-10,
    "reconstructed_spectrum_rel": 1e-9,
    "mirror_symmetry_rel": 1e-9,
    "eigh_eigenvalue_rel": 1e-11,
    "eigh_weight_abs": 1e-11,
    "binomial_weight_rel": 1e-11,
    "evolution_column_abs": 1e-10,
    "pst_modulus_abs": 1e-6,
    "cli_number_rel": 1e-10,
    "cli_zero_time_abs": 1e-9,
}

# |x_0| above this on both sides of a grid sign change means float64 resolves
# that zero, so detect_ese must report it; zeros in the cancellation plateau
# near T0 sit far below it and are not demanded.
_RESOLVABLE = 1e-6

# Size bands around 4, 21 and 41 sites.
SIZE_BANDS = (("small", 2, 12), ("mid", 13, 29), ("large", 30, 41))

EVOLVE_STEPS = 2001
SERIES_STEPS = 1025


class Mismatch(Exception):
    """An output failed its correctness check."""


class KnownDefect(Mismatch):
    """A wrong output explained by a documented open defect, named by ``tag``."""

    def __init__(self, tag: str, detail: str):
        super().__init__(f"{tag}: {detail}")
        self.tag = tag


def size_band(sites: int) -> str:
    for name, lo, hi in SIZE_BANDS:
        if lo <= sites <= hi:
            return name
    raise ValueError(f"no size band holds {sites} sites")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Item:
    label: str
    family: str
    sites: int
    ops: Callable[[], Iterator[Op]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def interleave(strata: list[list[Item]], rng: np.random.Generator) -> list[Item]:
    """Spread every stratum evenly over one list, order within strata seeded."""
    keyed = []
    for si, stratum in enumerate(strata):
        order = rng.permutation(len(stratum))
        offset = rng.random()
        for rank, idx in enumerate(order):
            keyed.append(((rank + offset) / len(stratum), si, stratum[idx]))
    keyed.sort(key=lambda entry: (entry[0], entry[1]))
    return [entry[2] for entry in keyed]


def stratify(items: list[Item]) -> list[list[Item]]:
    groups: dict[tuple[str, str], list[Item]] = {}
    for item in items:
        groups.setdefault((item.family, size_band(item.sites)), []).append(item)
    return [groups[key] for key in sorted(groups)]


# ---------------------------------------------------------------- spectra --


def krawtchouk_spectrum(N: int) -> np.ndarray:
    return np.arange(N + 1) - N / 2.0


def surgery_spectrum(N: int) -> np.ndarray:
    upper = np.array([(2 * k + 1) / 2.0 for k in range(1, (N + 1) // 2 + 1)])
    return np.concatenate([-upper[::-1], upper])


def gap_spectrum(n: int, m: int) -> np.ndarray:
    upper = (2.0 * m + 2.0 * np.arange(n) + 1.0) / 2.0
    return np.concatenate([-upper[::-1], upper])


def random_odd_gap_spectrum(
    rng: np.random.Generator, sites: int, symmetric: bool
) -> np.ndarray:
    """Odd-integer gaps (1 or 3) with at least one unit gap, so T0 = pi."""
    if symmetric:
        half = sites // 2
        gaps = rng.choice([1, 3], size=half, p=[0.75, 0.25])
        gaps[rng.integers(half)] = 1
        # gaps[0] is the middle gap; it straddles 0 for even sizes.
        start = gaps[0] / 2.0 if sites % 2 == 0 else float(gaps[0])
        upper = start + np.concatenate([[0], np.cumsum(gaps[1:])])
        middle = [] if sites % 2 == 0 else [0.0]
        return np.concatenate([-upper[::-1], middle, upper])
    gaps = rng.choice([1, 3], size=sites - 1, p=[0.75, 0.25])
    gaps[rng.integers(sites - 1)] = 1
    lam = np.concatenate([[0.0], np.cumsum(gaps)]).astype(float)
    # Centre on the middle eigenvalue (odd sizes, which then hold 0 exactly,
    # like odd-site Krawtchouk chains) or the middle gap (even sizes, which
    # then sit on odd half-integers); either way the values stay exact.
    return lam - 0.5 * (lam[(sites - 1) // 2] + lam[sites // 2])


def exact_weights(lam: np.ndarray) -> np.ndarray:
    """Persymmetric weights 1/prod|l_s - l_k| in rational arithmetic.

    Valid for spectra on the half-integer lattice, where 2*l is an integer.
    """
    ints = [int(round(2.0 * v)) for v in lam]
    if np.abs(np.asarray(ints) - 2.0 * lam).max() > 0.0:
        raise ValueError("spectrum is not on the half-integer lattice")
    inv = []
    for s, a in enumerate(ints):
        prod = 1
        for k, b in enumerate(ints):
            if k != s:
                prod *= abs(a - b)
        inv.append(Fraction(1, prod))
    total = sum(inv)
    return np.array([float(x / total) for x in inv])


def x0_values(lam: np.ndarray, w: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.outer(times, lam)) @ w


def lanczos(lam: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix with eigenvalues ``lam`` and first-component weights ``w``."""
    n = lam.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    basis = np.zeros((n, n))
    q = np.sqrt(w / w.sum())
    for k in range(n):
        basis[:, k] = q
        u = lam * q
        diag[k] = q @ u
        for _ in range(2):
            u -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ u)
        if k < n - 1:
            off[k] = np.linalg.norm(u)
            q = u / off[k]
    return diag, off


def dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# ----------------------------------------------------------- family_sweep --


def _family_sweep_item(
    label: str, family: str, lam: np.ndarray, expected_zeros: int | None,
    chebyshev: bool, closed_form: Callable | None,
) -> Item:
    cache: dict = {}

    def call():
        req = inverse.SpectrumRequest(lam)
        sd = inverse.persymmetric_weights(req)
        wire = inverse.reconstruct_jacobi(sd)
        cert = dynamics.detect_pst(req)
        report = dynamics.detect_ese(sd, cert)
        series = jacobi.amplitude_series(sd, 0.0, cert.transfer_time, SERIES_STEPS)
        sign_changes = None
        if chebyshev:
            combo = families.amplitude_as_chebyshev(sd)
            sign_changes = families.count_sign_changes(combo)
        return sd, wire, cert, report, series, sign_changes

    def reference() -> dict:
        """Output-independent oracle values, computed once per item."""
        if not cache:
            w = exact_weights(lam)
            grid = np.linspace(0.0, math.pi, SERIES_STEPS)
            ref = {"w": w, "grid": grid, "x0": x0_values(lam, w, grid)}
            if closed_form is not None:
                ref["closed"] = closed_form(grid)
            if chebyshev:
                fine = np.linspace(0.0, math.pi, 8193)[1:-1]
                x0 = x0_values(lam, w, fine).real
                big = x0[np.abs(x0) > _RESOLVABLE]
                ref["resolvable"] = int(np.count_nonzero(np.sign(big[1:]) != np.sign(big[:-1])))
            cache.update(ref)
        return cache

    def check(out):
        sd, wire, cert, report, series, sign_changes = out
        tol = TOLERANCES
        ref = reference()
        w = ref["w"]
        _require(
            np.abs(sd.weights / w - 1.0).max() <= tol["exact_weight_rel"],
            "persymmetric weights differ from the exact rational weights",
        )
        scale = float(np.abs(lam).max())
        eig = np.linalg.eigvalsh(dense(wire.diag, wire.offdiag))
        _require(
            np.abs(eig - lam).max() <= tol["reconstructed_spectrum_rel"] * scale,
            "reconstructed wire does not have the requested spectrum",
        )
        _require(
            np.abs(wire.offdiag - wire.offdiag[::-1]).max() <= tol["mirror_symmetry_rel"] * scale
            and np.abs(wire.diag - wire.diag[::-1]).max() <= tol["mirror_symmetry_rel"] * scale,
            "reconstructed wire is not mirror-symmetric",
        )
        _require(cert.has_pst, "odd-gap spectrum was not certified")
        _require(
            abs(cert.transfer_time - math.pi) <= tol["transfer_time_abs"],
            f"T0 = {cert.transfer_time!r}, expected pi",
        )
        gaps = np.rint(np.diff(lam)).astype(int)
        _require(
            list(cert.gap_odd_integers) == list((gaps - 1) // 2),
            "gap odd integers differ from the generated gaps",
        )
        _require(
            abs(abs(cert.phase) - 1.0) <= tol["phase_modulus_abs"],
            "transfer phase is not unimodular",
        )
        times = np.array([z.time for z in report.zeros])
        if times.size:
            resid = np.abs(x0_values(lam, w, times))
            _require(
                resid.max() <= tol["zero_residual_abs"],
                "a reported zero is not a zero of the exact amplitude",
            )
            _require(
                times.min() > 0.0 and times.max() < cert.transfer_time,
                "a reported zero lies outside (0, T0)",
            )
        if expected_zeros is not None:
            _require(
                times.size == expected_zeros,
                f"{times.size} zeros, expected {expected_zeros}",
            )
        if lam.size == 4 and family == "surgery":
            _require(
                abs(times[0] - math.acos(2.0 / 3.0)) <= tol["four_site_zero_abs"],
                "four-site zero is not at arccos(2/3)",
            )
        if chebyshev:
            resolvable = ref["resolvable"]
            _require(
                times.size >= resolvable,
                f"{times.size} zeros reported, {resolvable} resolvable sign changes",
            )
            _require(
                sign_changes >= 2 * times.size + 1,
                "sign-change count is below the certified zeros",
            )
        _require(
            np.abs(series.times - ref["grid"]).max() <= tol["transfer_time_abs"],
            "series grid is not [0, T0]",
        )
        _require(
            np.abs(series.x0 - ref["x0"]).max() <= tol["series_abs"],
            "x_0 series differs from the exact spectral sum",
        )
        if closed_form is not None:
            _require(
                np.abs(series.x0.real - ref["closed"]).max() <= tol["series_abs"],
                "x_0 series differs from the closed form",
            )
        _require(
            abs(abs(series.xN[-1]) - 1.0) <= tol["phase_modulus_abs"],
            "|x_N(T0)| is not 1",
        )

    return Item(label, family, lam.size, lambda: iter((Op("family_sweep", call, check),)))


def family_sweep(seed: int) -> list[Item]:
    """Inverse direction: spectrum -> weights -> wire -> PST -> ESE -> series.

    Every Krawtchouk chain and surgery spectrum from 4 to 41 sites, gap
    family (n, m) for n = 2..20 with m a seeded permutation of 1..9, and
    seeded random odd-gap spectra, symmetric and not.
    """
    rng = np.random.default_rng(seed)
    items = []
    for N in range(3, 41):
        items.append(_family_sweep_item(
            f"krawtchouk N={N}", "krawtchouk", krawtchouk_spectrum(N), 0,
            N % 2 == 1, lambda t, N=N: families.closed_form_krawtchouk_x0(N, t),
        ))
    for N in range(3, 40, 2):
        items.append(_family_sweep_item(
            f"surgery N={N}", "surgery", surgery_spectrum(N), 1,
            True, lambda t, N=N: families.closed_form_surgery_x0(N, t),
        ))
    ms = np.resize(np.arange(1, 10), 19)
    rng.shuffle(ms)
    for n, m in zip(range(2, 21), ms):
        items.append(_family_sweep_item(
            f"gap n={n} m={m}", "gap", gap_spectrum(n, int(m)), int(m), True, None,
        ))
    for size in range(4, 41, 3):
        for symmetric in (True, False):
            # Symmetric spectra take the even size (the Chebyshev form).
            sites = size + (size % 2 if symmetric else 1 - size % 2)
            lam = random_odd_gap_spectrum(rng, sites, symmetric)
            items.append(_family_sweep_item(
                f"random sites={sites} symmetric={symmetric}", "random", lam, None,
                symmetric, None,
            ))
    return interleave(stratify(items), rng)


# --------------------------------------------------------- forward_matrix --

FORWARD_TIMES = (0.5 * math.pi, math.pi)
# detect_pst tests odd multiples up to 2 * 10^4 + 1 of the smallest gap.
PST_ODD_LIMIT = 2 * 10_000 + 1


def pst_undecidable(lam: np.ndarray) -> bool:
    """True when even the first gap quantum needs an odd multiple past the cap.

    This is the documented case in which ``detect_pst`` raises
    ``PstUndecidableError``: a nearly degenerate pair in a wide spectrum.
    """
    gaps = np.diff(lam)
    ratios = gaps / gaps.min()
    return float(np.maximum(2.0 * np.round(0.5 * (ratios - 1.0)) + 1.0, 1.0).max()) > PST_ODD_LIMIT


def _forward_item(
    label: str, family: str, diag: np.ndarray, off: np.ndarray, mirror: bool,
) -> Item:
    cache: dict = {}

    def call():
        wire = jacobi.JacobiMatrix(diag=diag, offdiag=off)
        sd = jacobi.eigendecompose(wire)
        columns = [jacobi.full_evolution_column(wire, t) for t in FORWARD_TIMES]
        try:
            cert = dynamics.detect_pst(inverse.SpectrumRequest(sd.eigenvalues))
        except errors.PstUndecidableError:
            cert = None  # a verdict of its own, checked below
        return sd, columns, cert

    def check(out):
        sd, columns, cert = out
        tol = TOLERANCES
        if "eigh" not in cache:
            cache["eigh"] = np.linalg.eigh(dense(diag, off))
        lam, vec = cache["eigh"]
        scale = max(1.0, float(np.abs(lam).max()))
        _require(
            np.abs(sd.eigenvalues - lam).max() <= tol["eigh_eigenvalue_rel"] * scale,
            "eigenvalues differ from numpy.linalg.eigh",
        )
        _require(
            np.abs(sd.weights - vec[0] ** 2).max() <= tol["eigh_weight_abs"],
            "weights differ from numpy.linalg.eigh",
        )
        if family == "krawtchouk":
            N = diag.size - 1
            binom = np.array([math.comb(N, k) for k in range(N + 1)]) / 2.0**N
            _require(
                np.abs(sd.weights / binom - 1.0).max() <= tol["binomial_weight_rel"],
                "Krawtchouk weights differ from C(N,k)/2^N",
            )
        for t, col in zip(FORWARD_TIMES, columns):
            want = vec @ (np.exp(-1j * lam * t) * vec[0])
            _require(
                np.abs(col - want).max() <= tol["evolution_column_abs"],
                f"evolution column at t={t:.6g} differs from dense evolution",
            )
        _require(
            (cert is None) == pst_undecidable(sd.eigenvalues),
            "PstUndecidableError raised for a decidable spectrum" if cert is None
            else "undecidable spectrum got a PST verdict",
        )
        if cert is None:
            return
        if mirror:
            _require(cert.has_pst, "a mirror-symmetric PST wire was not certified")
            _require(
                abs(cert.transfer_time - math.pi) <= tol["transfer_time_abs"],
                f"T0 = {cert.transfer_time!r}, expected pi",
            )
        if cert.has_pst:
            t0 = cert.transfer_time
            x_last = abs((vec @ (np.exp(-1j * lam * t0) * vec[0]))[-1])
            if x_last < 1.0 - tol["pst_modulus_abs"]:
                detail = f"certified PST but dense |x_N(T0)| = {x_last:.6f}"
                if mirror:
                    raise Mismatch(detail)
                # ROADMAP item 2: detect_pst ignores the wire's own weights.
                raise KnownDefect("false_pst_certificate", detail)

    return Item(label, family, diag.size, lambda: iter((Op("forward_matrix", call, check),)))


def _reconstructed(lam: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag, off = lanczos(lam, w)
    eig = np.linalg.eigvalsh(dense(diag, off))
    if np.abs(eig - lam).max() > 1e-9 * max(1.0, float(np.abs(lam).max())):
        raise RuntimeError("benchmark input reconstruction lost accuracy")
    return diag, off


def _generic_wire(rng: np.random.Generator, sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Random site energies and couplings: not mirror-symmetric, localized."""
    while True:
        diag = rng.uniform(-1.0, 1.0, sites)
        off = rng.uniform(0.3, 1.0, sites - 1)
        lam = np.linalg.eigvalsh(dense(diag, off))
        if np.diff(lam).min() > 1e-6 * np.abs(lam).max():
            return diag, off


def forward_matrix(seed: int) -> list[Item]:
    """Forward direction: matrix -> eigendecompose -> evolution -> PST.

    Krawtchouk chains at every size from 2 to 41, persymmetric wires built
    from surgery and gap-family spectra, seeded random wires, and seeded
    wires with an odd-gap spectrum but random (non-mirror) weights.
    """
    rng = np.random.default_rng(seed)
    items = []
    for N in range(1, 41):
        k = np.arange(N)
        off = np.sqrt((k + 1.0) * (N - k)) / 2.0
        items.append(_forward_item(
            f"krawtchouk sites={N + 1}", "krawtchouk", np.zeros(N + 1), off, True,
        ))
    for N in range(3, 40, 2):
        lam = surgery_spectrum(N)
        diag, off = _reconstructed(lam, exact_weights(lam))
        items.append(_forward_item(f"surgery N={N}", "surgery", diag, off, True))
    ms = np.resize(np.arange(1, 10), 19)
    rng.shuffle(ms)
    for n, m in zip(range(2, 21), ms):
        lam = gap_spectrum(n, int(m))
        diag, off = _reconstructed(lam, exact_weights(lam))
        items.append(_forward_item(f"gap n={n} m={m}", "gap", diag, off, True))
    # Localization needs length, so random wires start at 12 sites; the
    # odd-gap generic wires below cover the small sizes.
    for k, sites in enumerate(range(12, 42, 2)):
        sites += k % 2
        diag, off = _generic_wire(rng, sites)
        items.append(_forward_item(f"generic sites={sites}", "generic", diag, off, False))
    # Sizes alternate in parity: odd sizes put an eigenvalue at exactly 0.
    for k, sites in enumerate(range(4, 41, 2)):
        sites += k % 2
        lam = random_odd_gap_spectrum(rng, sites, symmetric=False)
        w = rng.dirichlet(np.full(sites, 4.0))
        diag, off = _reconstructed(lam, w)
        items.append(_forward_item(
            f"odd-gap generic sites={sites}", "odd_gap_generic", diag, off, False,
        ))
    return interleave(stratify(items), rng)


# ----------------------------------------------------------- cli_pipeline --


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _library_analysis(cache: dict, lam: np.ndarray):
    """Library PST and ESE results for the exact family spectrum."""
    if "analysis" not in cache:
        req = inverse.SpectrumRequest(lam)
        sd = inverse.persymmetric_weights(req)
        cert = dynamics.detect_pst(req)
        cache["analysis"] = (cert, dynamics.detect_ese(sd, cert))
    return cache["analysis"]


def _document_zeros(path: str) -> list[float]:
    """ESE zero times the library finds from a document's 12-digit weights."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    sd = jacobi.SpectralData(
        eigenvalues=np.asarray(data["spectrum"], dtype=float),
        weights=np.asarray(data["weights"], dtype=float),
    )
    cert = dynamics.detect_pst(inverse.SpectrumRequest(sd.eigenvalues))
    return [z.time for z in dynamics.detect_ese(sd, cert).zeros]


def _same_times(a: list[float], b: list[float]) -> bool:
    tol = TOLERANCES["cli_zero_time_abs"]
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _close(a, b, rel: float) -> bool:
    return abs(float(a) - float(b)) <= rel * max(1.0, abs(float(b)))


def _cli_item(
    label: str, family: str, lam: np.ndarray, construct_args: list[str],
    expected_zeros: int, workdir: str,
) -> Item:
    cache: dict = {}
    stem = os.path.join(workdir, label.replace(" ", "_").replace("=", ""))
    doc, report = stem + ".json", stem + ".report.json"
    csv, series_json, svg = stem + ".csv", stem + ".series.json", stem + ".svg"
    t1 = repr(math.pi)
    tol = TOLERANCES

    def weights():
        if "w" not in cache:
            cache["w"] = exact_weights(lam)
        return cache["w"]

    def exit_ok(out, roundtrip: bool):
        code, err = out
        if code == 0:
            return
        if roundtrip and code == 2 and "weights must sum to 1 within 1e-12" in err:
            # ROADMAP item 2: 12-digit weights no longer sum to 1 within 1e-12.
            raise KnownDefect("construct_roundtrip_rejected", err.strip())
        raise Mismatch(f"exit code {code}: {err.strip()}")

    def check_zeros(reported: list[float], exact: list[float]):
        if _same_times(reported, exact):
            return
        detail = f"{len(reported)} zeros, {len(exact)} from the exact spectrum"
        if _same_times(reported, _document_zeros(doc)):
            # ROADMAP item 2 (lossless round trip): the zeros follow from the
            # document's 12-digit weights, which lift the cancellation
            # plateau near T0 above the noise clearance.
            raise KnownDefect("construct_roundtrip_spurious_zeros", detail)
        raise Mismatch(detail)

    def check_construct(out):
        exit_ok(out, roundtrip=False)
        with open(doc, encoding="utf-8") as handle:
            data = json.load(handle)
        scale = max(1.0, float(np.abs(lam).max()))
        _require(
            np.abs(np.asarray(data["spectrum"]) - lam).max() <= tol["cli_number_rel"] * scale,
            "document spectrum differs from the family spectrum",
        )
        _require(
            np.abs(np.asarray(data["weights"]) / weights() - 1.0).max()
            <= tol["cli_number_rel"],
            "document weights differ from the exact weights",
        )
        _require(data["persymmetry"]["is_persymmetric"], "document wire is not persymmetric")
        _require(data["pst"]["has_pst"], "document does not certify PST")
        _require(
            _close(data["pst"]["transfer_time"], math.pi, tol["cli_number_rel"]),
            "document transfer time is not pi",
        )

    def check_analyze(out):
        exit_ok(out, roundtrip=True)
        with open(report, encoding="utf-8") as handle:
            data = json.load(handle)
        cert, ese = _library_analysis(cache, lam)
        _require(data["pst"]["has_pst"] == cert.has_pst, "has_pst differs from the library")
        _require(
            _close(data["pst"]["transfer_time"], cert.transfer_time, tol["cli_number_rel"]),
            "transfer time differs from the library",
        )
        _require(
            data["pst"]["gap_odd_integers"] == list(cert.gap_odd_integers),
            "gap odd integers differ from the library",
        )
        _require(len(ese.zeros) == expected_zeros, "library zero count is wrong")
        times = [z["time"] for z in data["ese"]["zeros"]]
        check_zeros(times, [z.time for z in ese.zeros])
        verdict = "ESE present" if expected_zeros else "ESE absent"
        _require(data["verdict"] == verdict, f"verdict {data['verdict']!r}")

    def check_series(columns: dict):
        t = np.asarray(columns["t"], dtype=float)
        _require(t.size == EVOLVE_STEPS, f"{t.size} rows, expected {EVOLVE_STEPS}")
        _require(
            np.abs(t - np.linspace(0.0, math.pi, EVOLVE_STEPS)).max() <= tol["cli_number_rel"],
            "time grid is not [0, pi]",
        )
        if "abs_x0" not in cache:
            grid = np.linspace(0.0, math.pi, EVOLVE_STEPS)
            cache["abs_x0"] = np.abs(x0_values(lam, weights(), grid))
        _require(
            np.abs(np.asarray(columns["abs_x0"], dtype=float) - cache["abs_x0"]).max()
            <= tol["series_abs"],
            "|x0| column differs from the exact spectral sum",
        )
        _require(
            abs(float(columns["abs_xN"][-1]) - 1.0) <= tol["pst_modulus_abs"],
            "|xN| at T0 is not 1",
        )

    def check_evolve_csv(out):
        exit_ok(out, roundtrip=True)
        with open(csv, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
        check_series(dict(zip(header, table.T)))

    def check_evolve_json(out):
        exit_ok(out, roundtrip=True)
        with open(series_json, encoding="utf-8") as handle:
            check_series(json.load(handle))

    def check_plot(out):
        exit_ok(out, roundtrip=True)
        cert, ese = _library_analysis(cache, lam)
        root = ET.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        curves = root.findall(f"{ns}polyline")
        _require(
            len(curves) == 2 and all(len(c.get("points").split()) == 800 for c in curves),
            "expected two 800-point curves",
        )
        markers = [
            float(c.get("data-t")) for c in root.findall(f"{ns}circle")
            if c.get("class") == "ese-marker"
        ]
        check_zeros(markers, [z.time for z in ese.zeros])
        pst = [ln for ln in root.findall(f"{ns}line") if ln.get("class") == "pst-marker"]
        _require(
            len(pst) == 1
            and _close(pst[0].get("data-t"), cert.transfer_time, tol["cli_number_rel"]),
            "PST marker missing or misplaced",
        )

    evolve = ["evolve", "--in", doc, "--t0", "0", "--t1", t1, "--steps", str(EVOLVE_STEPS)]
    commands = (
        ("cli.construct", ["construct", *construct_args, "--out", doc], check_construct),
        ("cli.analyze", ["analyze", "--in", doc, "--out", report], check_analyze),
        ("cli.evolve", [*evolve, "--format", "csv", "--out", csv], check_evolve_csv),
        ("cli.evolve", [*evolve, "--format", "json", "--out", series_json], check_evolve_json),
        ("cli.plot", ["plot", "--in", doc, "--t0", "0", "--t1", t1, "--out", svg], check_plot),
    )

    def ops():
        try:
            for name, argv, check in commands:
                yield Op(name, lambda argv=argv: _run_cli(argv), check)
        finally:
            for path in (doc, report, csv, series_json, svg):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

    return Item(label, family, lam.size, ops)


def cli_pipeline(seed: int, workdir: str) -> list[Item]:
    """In-process CLI: construct, analyze, evolve (CSV, JSON) and plot per document.

    Documents are every Krawtchouk chain (N = 1..40), every surgery
    spectrum (odd N = 3..39) and every gap family (n = 2..20, m = 1..4);
    the seed sets their order.
    """
    rng = np.random.default_rng(seed)
    items = []
    for N in range(1, 41):
        items.append(_cli_item(
            f"krawtchouk N={N}", "krawtchouk", krawtchouk_spectrum(N),
            ["krawtchouk", "--N", str(N)], 0, workdir,
        ))
    for N in range(3, 40, 2):
        items.append(_cli_item(
            f"surgery N={N}", "surgery", surgery_spectrum(N),
            ["surgery", "--N", str(N)], 1, workdir,
        ))
    for n in range(2, 21):
        for m in range(1, 5):
            items.append(_cli_item(
                f"gap n={n} m={m}", "gap", gap_spectrum(n, m),
                ["gap-family", "--n", str(n), "--m", str(m)], m, workdir,
            ))
    return interleave(stratify(items), rng)


WORKLOADS = ("family_sweep", "forward_matrix", "cli_pipeline")


def build(workload: str, seed: int, workdir: str) -> list[Item]:
    if workload == "family_sweep":
        return family_sweep(seed)
    if workload == "forward_matrix":
        return forward_matrix(seed)
    if workload == "cli_pipeline":
        return cli_pipeline(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
