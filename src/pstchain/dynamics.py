"""Transfer-time certification and early-exclusion search.

A wire transfers the boundary state perfectly at time T exactly when every
spectral gap is an odd multiple of pi/T.  The earliest such T corresponds
to the largest gap quantum delta with g_k = (2 n_k + 1) delta for
nonnegative integers n_k, so candidates are delta = g_min/(2j+1) for
j = 0, 1, ... and the first feasible candidate wins.

Early state exclusion (ESE) is a time strictly before the earliest
transfer at which the boundary-return amplitude x_0 vanishes.  Zeros are
minima of |x_0|^2, so the search is a uniform scan at a step fine enough
for the fastest oscillation of the spectral sum.  The scan is one factored
grid sum (``jacobi._grid_sum``): one matrix product over O(sqrt(n))
exponentials per eigenvalue for n grid points, holding n values rather than
a points x sites matrix.  Interior local minima whose neighboring grid
points sit on the cancellation floor are dropped; the rest are refined
together by Newton's method on d|x_0|^2/dt, in which each step evaluates
x_0, x_0' and x_0'' at every open iterate in a single spectral sum
(``jacobi._spectral_sum``).  Every time the search evaluates lies inside
(0, T0), so it calls that kernel without ``amplitude_values``' check of
the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PstUndecidableError
from .inverse import SpectrumRequest, persymmetric_weights
from .jacobi import (
    _EPS,
    _NOISE_CLEARANCE,
    SpectralData,
    _frame,
    _grid_sum,
    _real,
    _spectral_sum,
    amplitude,
)

# Largest odd-integer index admitted in the transfer-time search.
_ODD_CAP = 10_000

# Relative gap tolerance of the transfer-time search: default and loosest.
_PST_TOL = 1e-8
_PST_TOL_CAP = 1e-4

# Transfer-time candidates tested together: the first block, and the cap on
# every later block, which grows 4-fold from the first.
_PST_FIRST_BLOCK = 8
_PST_MAX_BLOCK = 1024

# Scan step: min(T, 2*pi/spectral span) divided by this many subdivisions.
_SCAN_DIVISIONS = 256

# Newton step below which a minimum has converged, as a fraction of the
# transfer time, and the step budget (twice the most that any named
# or seeded odd-gap spectrum needs) after which it counts as unresolved.
_REFINE_WIDTH_FRAC = 1e-12
_REFINE_MAX_ITER = 8

# A refined minimum is certified as a zero when |x_0| there is below this.
_ZERO_RESIDUAL_TOL = 1e-10

# |x_N| this close to 1 at a candidate zero would mean transfer before the
# certified earliest time; such candidates are quarantined, not reported.
_ANOMALY_MARGIN = 1e-6


@dataclass(frozen=True)
class PstCertificate:
    """Outcome of the transfer-time search over spectral data.

    When ``has_pst`` is true, ``transfer_time`` is the earliest transfer
    time, ``gap_odd_integers`` holds the n_k with
    g_k = (2 n_k + 1) pi / transfer_time, and ``phase`` is the boundary
    amplitude x_N(transfer_time) of the wire that the certified spectral
    data determine.
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
        lam = np.asarray(self.eigenvalues)
        gaps = lam[1:] - lam[:-1]
        target = (2 * np.asarray(self.gap_odd_integers) + 1) * (
            math.pi / self.transfer_time
        )
        # Sanity bound at the loosest detection tolerance.
        if (np.abs(gaps - target) > _PST_TOL_CAP * gaps).any():
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

    ``unresolved`` lists, where they stopped, the Newton iterates of refined
    minima that did not settle; ``early_pst_anomalies`` lists zeros excluded
    because the far boundary was numerically saturated there (which would
    contradict an earliest-transfer certificate).  ``refined`` counts the
    interior minima of the scan that were refined, those whose neighboring
    grid values do not both lie below the cancellation floor.
    """

    zeros: tuple[EseZero, ...]
    unresolved: tuple[float, ...]
    early_pst_anomalies: tuple[float, ...]
    scan_resolution: float
    tolerance: float
    refined: int = 0

    def __post_init__(self):
        for zero in self.zeros:
            if not zero.residual < self.tolerance:
                raise ValueError("listed zeros must beat the residual tolerance")
            if not zero.last_site_modulus < 1.0 - _ANOMALY_MARGIN:
                raise ValueError("listed zeros must not saturate the far boundary")


def detect_pst(
    data: SpectralData | SpectrumRequest, tol: float = _PST_TOL
) -> PstCertificate:
    """Decide perfect state transfer of a wire and find the earliest transfer time.

    ``data`` is the wire's spectral data; a ``SpectrumRequest`` stands for
    its persymmetric wire, ``persymmetric_weights(data)``.  A wire has PST
    exactly when it is mirror-symmetric and its gaps are odd multiples of
    one quantum.  The gaps are tested first.  When a candidate passes, the
    wire's persymmetry deviation 1 - sum_s |c_s| / sqrt(sum_s w_s), over
    x_N's coefficients c, must be at most ``tol`` plus (N + 3) eps, the
    rounding bound of that expression for N + 1 sites; otherwise the
    certificate is negative.  The deviation is 0 for mirror-symmetric
    weights and positive otherwise, second order in their asymmetry.  The
    phase is the data's own x_N(T0).

    Candidate gap quanta are delta = g_min/(2j+1), scanned from j = 0
    upward; for each, every gap is tested against its nearest odd multiple
    of delta at relative tolerance ``tol``, a single real number in
    (0, 1e-4].  The first feasible candidate is the largest delta, hence
    the earliest T0 = pi/delta.  Odd integers are capped at 10^4: the scan
    stops at the first candidate that needs a larger one, and if even the
    first candidate does, the spectrum is undecidable at this tolerance and
    :class:`PstUndecidableError` is raised, distinct from a negative
    certificate.

    Candidates are tested in blocks, one row per candidate, each row with
    the floating-point operations of a test on its own.  The first block
    holds ``_PST_FIRST_BLOCK`` candidates and each later one 4 times as
    many, up to ``_PST_MAX_BLOCK``, so a spectrum with PST at j = 0 costs
    one small block, the longest scan (about 10^4 candidates) about a dozen
    blocks, and memory stays O(``_PST_MAX_BLOCK`` x sites).
    """
    tol = _real(tol, "tol")
    if not 0.0 < tol <= _PST_TOL_CAP:
        raise ValueError(f"tol must lie in (0, {_PST_TOL_CAP:g}]")
    lam = data.eigenvalues
    spectrum = tuple(lam.tolist())
    gaps = lam[1:] - lam[:-1]
    g_min = float(gaps.min())
    start, rows = 0, _PST_FIRST_BLOCK
    while start <= _ODD_CAP:
        stop = min(start + rows, _ODD_CAP + 1)
        # candidates j = start .. stop - 1, divided by 2j + 1
        delta = g_min / np.arange(2 * start + 1, 2 * stop, 2.0)
        ratios = gaps / delta[:, None]
        odd = np.maximum(2.0 * np.rint(0.5 * (ratios - 1.0)) + 1.0, 1.0)
        # the ratios grow with j, so the capped rows close the block
        capped = odd.max(axis=1) > 2 * _ODD_CAP + 1
        feasible = (np.abs(ratios - odd) <= tol * ratios).all(axis=1) & ~capped
        hits = feasible.nonzero()[0]
        if hits.size:
            row = hits[0]
            sd = persymmetric_weights(data) if isinstance(data, SpectrumRequest) else data
            # by Cauchy-Schwarz, 0 exactly when w is proportional to u
            deviation = 1.0 - float(np.abs(sd._last).sum()) / math.sqrt(float(sd.weights.sum()))
            if deviation > tol + (sd.n_sites + 2) * _EPS:
                break
            transfer_time = math.pi / float(delta[row])
            n_k = tuple(np.rint(0.5 * (odd[row] - 1.0)).astype(int).tolist())
            return PstCertificate(
                has_pst=True,
                transfer_time=transfer_time,
                gap_odd_integers=n_k,
                phase=amplitude(sd, "last", transfer_time),
                eigenvalues=spectrum,
            )
        if capped[0] and start == 0:
            raise PstUndecidableError(
                "no transfer-time candidate is testable with odd integers up to "
                f"{_ODD_CAP}; the gap ratio spread is too large"
            )
        if capped[-1]:
            break
        start = stop
        rows = min(4 * rows, _PST_MAX_BLOCK)
    return PstCertificate(
        has_pst=False,
        transfer_time=None,
        gap_odd_integers=None,
        phase=None,
        eigenvalues=spectrum,
    )


def _newton_minimize(
    sd: SpectralData, times: np.ndarray, index: np.ndarray, transfer_time: float
) -> tuple[np.ndarray, np.ndarray]:
    """Newton minima of |x_0|^2 from times[index], each kept within a grid step.

    Every iterate steps by t <- t - Re(conj(x) x') / (|x'|^2 + Re(conj(x) x''))
    in one spectral sum per step, over the coefficients (-i mu)^k w of x^(k)
    about the midpoint c, whose factor exp(-ict) cancels in both products.
    Returns (locations, converged): converged means a step of at most
    ``_REFINE_WIDTH_FRAC * transfer_time`` within ``_REFINE_MAX_ITER`` steps,
    while a non-positive curvature or a non-finite step stops an iterate,
    unconverged, in place.
    """
    _, mu = sd._centred
    width_tol = _REFINE_WIDTH_FRAC * transfer_time
    coefficients = sd.weights[:, None] * (-1j * mu[:, None]) ** np.arange(3)
    t, lo, hi = times[index], times[index - 1], times[index + 1]
    converged = np.zeros(t.size, dtype=bool)
    live = np.arange(t.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_REFINE_MAX_ITER):
            if live.size == 0:
                break
            x, dx, ddx = _spectral_sum(sd, t[live], coefficients).T
            x_bar = x.conj()
            curvature = np.abs(dx) ** 2 + (x_bar * ddx).real
            step = (x_bar * dx).real / curvature
            ok = (curvature > 0.0) & np.isfinite(step)
            moving = live[ok]
            t[moving] = np.minimum(
                np.maximum(t[moving] - step[ok], lo[moving]), hi[moving]
            )
            small = np.abs(step) <= width_tol
            converged[live[ok & small]] = True
            live = live[ok & ~small]
    return t, converged


def _scan(sd: SpectralData, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform scan grid over [lo, hi] and |x_0|^2 on it, by the factored kernel."""
    span = float(sd.eigenvalues[-1] - sd.eigenvalues[0])
    step = min(hi - lo, 2.0 * math.pi / span) / _SCAN_DIVISIONS
    npts = max(int(math.ceil((hi - lo) / step)) + 1, 16)
    times, values = _grid_sum(sd, lo, hi, npts, sd.weights)
    return times, np.abs(values) ** 2


def detect_ese(sd: SpectralData, cert: PstCertificate) -> EseReport:
    """Locate every vanishing of |x_0| strictly inside (0, T0).

    The scan runs over (eps, T0 - eps) with eps = 1e-6 T0 at a step no
    coarser than the fastest oscillation of the spectral sum divided by
    256; its values come from the factored grid kernel, which forms
    O(sqrt(n)) exponentials per eigenvalue for n grid points.  An interior
    local minimum of |x_0|^2 is dropped when |x_0| at both neighboring grid
    points lies below the noise clearance, since no isolated zero can be
    resolved there.  Each surviving minimum starts a Newton iterate on
    d|x_0|^2/dt inside its two neighboring grid intervals, and all iterates
    advance together; one that settles is certified as a zero when its
    residual, evaluated directly by the spectral sum, is below
    ``_ZERO_RESIDUAL_TOL`` (1e-10), which the report carries as ``tolerance``.

    Newton's coefficients carry (lambda - c)^2 about the midpoint c, so a
    spectrum whose squared half-span overflows, a span above about 2.7e154,
    raises ValueError naming the span before any work.
    """
    if not cert.has_pst:
        raise ValueError("certificate does not certify perfect state transfer")
    lam = np.asarray(cert.eigenvalues)
    limit = math.ldexp(1e-8, _frame(lam)[1])
    if sd.n_sites != lam.size or np.abs(sd.eigenvalues - lam).max() > limit:
        raise ValueError("spectral data is inconsistent with the certificate")
    _, mu = sd._centred
    half_span = float(max(-mu[0], mu[-1]))  # a Python float overflows to inf
    if not math.isfinite(half_span * half_span):
        span = float(lam[-1] - lam[0])
        raise ValueError(f"spectral span {span:.6g} is too wide for the ESE search")
    transfer_time = float(cert.transfer_time)
    eps = 1e-6 * transfer_time
    times, f2 = _scan(sd, eps, transfer_time - eps)
    resolution = float(times[1] - times[0])
    minima = ((f2[1:-1] <= f2[:-2]) & (f2[1:-1] <= f2[2:])).nonzero()[0] + 1
    edge = np.sqrt(np.maximum(f2[minima - 1], f2[minima + 1]))
    kept = minima[edge >= _NOISE_CLEARANCE]
    t_star, converged = _newton_minimize(sd, times, kept, transfer_time)
    t_conv = t_star[converged]
    residual = np.abs(_spectral_sum(sd, t_conv, sd.weights))
    small = residual < _ZERO_RESIDUAL_TOL
    t_zero, residual = t_conv[small], residual[small]
    last_site = np.abs(_spectral_sum(sd, t_zero, sd._last))
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
        tolerance=_ZERO_RESIDUAL_TOL,
        refined=int(kept.size),
    )

