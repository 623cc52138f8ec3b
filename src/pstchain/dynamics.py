"""Transfer-time certification and early-exclusion search.

A wire transfers the boundary state perfectly at time T exactly when every
spectral gap is an odd multiple of pi/T.  The earliest such T corresponds
to the largest gap quantum delta with g_k = (2 n_k + 1) delta for
nonnegative integers n_k, so candidates are delta = g_min/(2j+1) for
j = 0, 1, ... and the first feasible candidate wins.

Early state exclusion (ESE) is a time strictly before the earliest
transfer at which the boundary-return amplitude x_0 vanishes.  Zeros are
minima of |x_0|^2, so the search is a uniform scan at a step fine enough
for the fastest oscillation of the spectral sum.  Interior local minima
whose neighboring grid points sit on the cancellation floor are dropped;
the rest are refined together by one batched golden-section sweep, in which
each step evaluates the new points of every open bracket in a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PstUndecidableError
from .inverse import SpectrumRequest, persymmetric_weights
from .jacobi import _NOISE_CLEARANCE, SpectralData, _frame, amplitude, amplitude_values

# Largest odd-integer index admitted in the transfer-time search.
_ODD_CAP = 10_000

# Scan step: min(T, 2*pi/spectral span) divided by this many subdivisions.
_SCAN_DIVISIONS = 256

# Golden-section bracket target, as a fraction of the scan interval scale,
# and the iteration budget after which a candidate counts as unresolved.
_REFINE_WIDTH_FRAC = 1e-12
_REFINE_MAX_ITER = 300

# |x_N| this close to 1 at a candidate zero would mean transfer before the
# certified earliest time; such candidates are quarantined, not reported.
_ANOMALY_MARGIN = 1e-6

_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class PstCertificate:
    """Outcome of the transfer-time search over a spectrum.

    When ``has_pst`` is true, ``transfer_time`` is the earliest transfer
    time, ``gap_odd_integers`` holds the n_k with
    g_k = (2 n_k + 1) pi / transfer_time, and ``phase`` is the measured
    boundary amplitude x_N(transfer_time) of the persymmetric realization.
    """

    has_pst: bool
    transfer_time: float | None
    gap_odd_integers: tuple[int, ...] | None
    phase: complex | None
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.eigenvalues) < 2:
            raise ValueError("certificate must carry the spectrum it certifies")
        if not self.has_pst:
            return
        if self.transfer_time is None or self.gap_odd_integers is None:
            raise ValueError("a positive certificate needs T0 and odd integers")
        gaps = np.diff(np.asarray(self.eigenvalues))
        target = (2 * np.asarray(self.gap_odd_integers) + 1) * (
            math.pi / self.transfer_time
        )
        # Sanity bound at the loosest detection tolerance.
        if np.any(np.abs(gaps - target) > 1e-4 * gaps):
            raise ValueError("gap structure inconsistent with the certificate")


@dataclass(frozen=True)
class EseZero:
    """One certified vanishing of the boundary-return amplitude."""

    time: float
    residual: float
    last_site_modulus: float


@dataclass(frozen=True)
class EseReport:
    """All certified early-exclusion times inside (0, T0).

    ``unresolved`` lists refined minima whose golden-section bracket did
    not converge; ``early_pst_anomalies`` lists zeros excluded because the far
    boundary was numerically saturated there (which would contradict an
    earliest-transfer certificate).  The search counters satisfy
    ``candidates == noise_floor_rejections + refined``: every interior
    minimum of the scan is either dropped because its neighboring grid
    values lie below the cancellation floor, or refined.
    """

    zeros: tuple[EseZero, ...]
    unresolved: tuple[float, ...]
    early_pst_anomalies: tuple[float, ...]
    scan_resolution: float
    tolerance: float
    candidates: int = 0
    noise_floor_rejections: int = 0
    refined: int = 0

    def __post_init__(self):
        for zero in self.zeros:
            if not zero.residual < self.tolerance:
                raise ValueError("listed zeros must beat the residual tolerance")
            if not zero.last_site_modulus < 1.0 - _ANOMALY_MARGIN:
                raise ValueError("listed zeros must not saturate the far boundary")


class MinOverlap(NamedTuple):
    """Global minimum of |x_0| over an interval and where it occurs."""

    min_value: float
    argmin: float


def detect_pst(req: SpectrumRequest, tol: float = 1e-8) -> PstCertificate:
    """Decide perfect state transfer and find the earliest transfer time.

    Candidate gap quanta are delta = g_min/(2j+1), scanned from j = 0
    upward; for each, every gap is tested against its nearest odd multiple
    of delta at relative tolerance ``tol``.  The first feasible candidate
    is the largest delta, hence the earliest T0 = pi/delta.  Odd integers
    are capped at 10^4: if even the first candidate overflows the cap the
    spectrum is undecidable at this tolerance and
    :class:`PstUndecidableError` is raised, distinct from a negative
    certificate.
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError("tol must lie in (0, 1e-4]")
    lam = req.eigenvalues
    spectrum = tuple(float(v) for v in lam)
    gaps = np.diff(lam)
    g_min = float(gaps.min())
    tested_any = False
    for j in range(_ODD_CAP + 1):
        delta = g_min / (2 * j + 1)
        ratios = gaps / delta
        odd = np.maximum(2.0 * np.round(0.5 * (ratios - 1.0)) + 1.0, 1.0)
        if odd.max() > 2 * _ODD_CAP + 1:
            break
        tested_any = True
        if np.all(np.abs(ratios - odd) <= tol * ratios):
            transfer_time = math.pi / delta
            n_k = tuple(int(v) for v in np.rint(0.5 * (odd - 1.0)))
            phase = amplitude(persymmetric_weights(req), "last", transfer_time)
            return PstCertificate(
                has_pst=True,
                transfer_time=transfer_time,
                gap_odd_integers=n_k,
                phase=phase,
                eigenvalues=spectrum,
            )
    if not tested_any:
        raise PstUndecidableError(
            "no transfer-time candidate is testable with odd integers up to "
            f"{_ODD_CAP}; the gap ratio spread is too large"
        )
    return PstCertificate(
        has_pst=False,
        transfer_time=None,
        gap_odd_integers=None,
        phase=None,
        eigenvalues=spectrum,
    )


def _x0_squared(sd: SpectralData, times) -> np.ndarray:
    return np.abs(amplitude_values(sd, times, "first")) ** 2


def _golden_minimize(
    sd: SpectralData, lo: np.ndarray, hi: np.ndarray, width_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of |x_0|^2 on every bracket [lo[k], hi[k]].

    All brackets advance together: each step moves every bracket still
    wider than ``width_tol`` to its own left or right part and evaluates
    the new interior points of all of them in one call.  Returns
    (locations, converged); converged means the bracket shrank below
    ``width_tol`` within ``_REFINE_MAX_ITER`` steps.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(_x0_squared(sd, np.concatenate([c, d])), 2)
    for _ in range(_REFINE_MAX_ITER):
        live = np.nonzero(b - a > width_tol)[0]
        if live.size == 0:
            break
        go_left = fc[live] <= fd[live]
        left, right = live[go_left], live[~go_left]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _INV_PHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _INV_PHI * (b[right] - a[right])
        fc[left], fd[right] = np.split(
            _x0_squared(sd, np.concatenate([c[left], d[right]])), [left.size]
        )
    return 0.5 * (a + b), b - a <= width_tol


def _scan_grid(sd: SpectralData, lo: float, hi: float) -> np.ndarray:
    span = float(sd.eigenvalues[-1] - sd.eigenvalues[0])
    step = min(hi - lo, 2.0 * math.pi / span) / _SCAN_DIVISIONS
    npts = max(int(math.ceil((hi - lo) / step)) + 1, 16)
    return np.linspace(lo, hi, npts)


def _interior_minima(f2: np.ndarray) -> np.ndarray:
    return np.nonzero((f2[1:-1] <= f2[:-2]) & (f2[1:-1] <= f2[2:]))[0] + 1


def detect_ese(
    sd: SpectralData, cert: PstCertificate, tol: float = 1e-10
) -> EseReport:
    """Locate every vanishing of |x_0| strictly inside (0, T0).

    The scan runs over (eps, T0 - eps) with eps = 1e-6 T0 at a step no
    coarser than the fastest oscillation of the spectral sum divided by
    256.  An interior local minimum of |x_0|^2 is dropped when |x_0| at
    both neighboring grid points lies below the noise clearance, since no
    isolated zero can be resolved there.  The surviving minima are refined
    together by one batched golden-section sweep; a refined minimum is
    certified as a zero when its residual beats ``tol``.
    """
    if not cert.has_pst:
        raise ValueError("certificate does not certify perfect state transfer")
    lam = np.asarray(cert.eigenvalues)
    limit = math.ldexp(1e-8, _frame(lam)[1])
    if sd.n_sites != lam.size or np.abs(sd.eigenvalues - lam).max() > limit:
        raise ValueError("spectral data is inconsistent with the certificate")
    transfer_time = float(cert.transfer_time)
    eps = 1e-6 * transfer_time
    times = _scan_grid(sd, eps, transfer_time - eps)
    resolution = float(times[1] - times[0])
    f2 = _x0_squared(sd, times)
    minima = _interior_minima(f2)
    edge = np.sqrt(np.maximum(f2[minima - 1], f2[minima + 1]))
    kept = minima[edge >= _NOISE_CLEARANCE]
    t_star, converged = _golden_minimize(
        sd, times[kept - 1], times[kept + 1], _REFINE_WIDTH_FRAC * transfer_time
    )
    t_conv = t_star[converged]
    residual = np.abs(amplitude_values(sd, t_conv, "first"))
    small = residual < tol
    t_zero, residual = t_conv[small], residual[small]
    last_site = np.abs(amplitude_values(sd, t_zero, "last"))
    saturated = last_site >= 1.0 - _ANOMALY_MARGIN
    clear = ~saturated
    deduped: list[EseZero] = []
    for t, r, x in zip(t_zero[clear], residual[clear], last_site[clear]):
        zero = EseZero(time=float(t), residual=float(r), last_site_modulus=float(x))
        if deduped and zero.time - deduped[-1].time < 0.5 * resolution:
            if zero.residual < deduped[-1].residual:
                deduped[-1] = zero
            continue
        deduped.append(zero)
    return EseReport(
        zeros=tuple(deduped),
        unresolved=tuple(float(t) for t in t_star[~converged]),
        early_pst_anomalies=tuple(float(t) for t in t_zero[saturated]),
        scan_resolution=resolution,
        tolerance=float(tol),
        candidates=int(minima.size),
        noise_floor_rejections=int(minima.size - kept.size),
        refined=int(kept.size),
    )


def min_overlap(sd: SpectralData, t0: float, t1: float) -> MinOverlap:
    """Global minimum of |x_0(t)| over [t0, t1] to about 1e-8.

    Dense scan at the oscillation-resolving step, then one batched
    golden-section sweep over every interior local minimum; endpoint values
    compete as they stand.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    times = _scan_grid(sd, float(t0), float(t1))
    f2 = _x0_squared(sd, times)
    minima = _interior_minima(f2)
    t_star, _ = _golden_minimize(
        sd,
        times[minima - 1],
        times[minima + 1],
        _REFINE_WIDTH_FRAC * (float(t1) - float(t0)),
    )
    # argmin takes the first of equal values, so a refined minimum replaces
    # the best grid point only when it is strictly lower
    t_all = np.concatenate([times, t_star])
    f_all = np.concatenate([f2, _x0_squared(sd, t_star)])
    best = int(np.argmin(f_all))
    return MinOverlap(min_value=math.sqrt(f_all[best]), argmin=float(t_all[best]))
