"""Value types and spectral kinematics of finite tridiagonal quantum wires.

A wire with N+1 sites is encoded as a real symmetric tridiagonal matrix
with strictly positive couplings.  The state that starts on site 0 evolves
as exp(-iJt) e_0, and every boundary observable used here is a function of
the eigenvalues together with the squared first components of the unit
eigenvectors (the spectral weights): the site-0 amplitude is
sum_s w_s exp(-i lambda_s t), and for mirror-symmetric (persymmetric)
wires the site-N amplitude is the same sum with alternating signs.

One pivot recurrence serves the whole eigensolver: the guarded LDL^T
pivots of T - sigma I.  Eigenvalues are located by bisection on their sign
count (the Sturm count); eigenvectors come from twisted factorizations
that join the forward and backward pivots at the eigenvalue, one sweep each
way for all eigenvalues at once.  For the supported sizes (at most
``MAX_SITES`` sites) and simple, well separated spectra this gives
eigenpair residuals and weights at working precision, also for strongly
localized eigenvectors.

The kernels work in one affine frame, ``_frame``: on (lambda - c) 2^-e,
with c the midpoint and 2^e the power of two above the half-span (the
solver centres on its diagonal), or on lambda - c alone.  A shift or scale
thus leaves their results alone; symmetric spectra have c = 0 exactly.

Every amplitude, boundary or full column, is one centred spectral sum,
``_spectral_sum``.  Its values cancel down to ``_NOISE_CLEARANCE`` times the
total coefficient modulus and no further; below that floor round-off decides
the sign, and the ESE search and the sign-change count both drop such values.

A wire is solved once per ``JacobiMatrix`` instance: the spectral data and
the read-only eigenvector matrix are kept on the instance on first use and
shared by ``eigendecompose`` and every ``full_evolution_column`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import EigensolverError

# Weight hierarchies grow roughly factorially with size; 64-bit floats can
# absorb that (after normalization) only up to about 41 sites.
MAX_SITES = 41

# Computed gaps below this fraction of the spectral scale signal numerical
# trouble: couplings > 0 guarantee simple spectra in exact arithmetic.
GAP_RTOL = 1e-10

Site = Literal["first", "last"]

_UNITARITY_SLACK = 1e-9
_BISECT_MAX_ITER = 160

# Cancellation floor of a spectral sum per unit of total coefficient modulus.
_NOISE_CLEARANCE = 1e-12


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    arr.setflags(write=False)
    return arr


def _frame(spectrum) -> tuple[float, int]:
    """Midpoint c and exponent e with |lambda - c| <= 2^e on a sorted spectrum."""
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    return 0.5 * lo + 0.5 * hi, math.frexp(0.5 * hi - 0.5 * lo)[1]


def _spectrum(values) -> np.ndarray:
    """Read-only simple spectrum: 2..MAX_SITES finite, well separated values."""
    lam = _readonly(values)
    if not 2 <= lam.size <= MAX_SITES:
        raise ValueError(
            f"spectrum size must be between 2 and {MAX_SITES}, got {lam.size}"
        )
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    scale = float(np.abs(lam).max())
    if not np.all(np.diff(lam) > GAP_RTOL * scale):
        raise ValueError(
            "eigenvalues must be strictly increasing with gaps above "
            f"{GAP_RTOL} of the spectral scale"
        )
    return lam


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal wire Hamiltonian.

    ``diag`` holds the site energies a_0..a_N and ``offdiag`` the couplings
    b_0..b_{N-1}.  Couplings must be strictly positive, which keeps the
    spectrum simple.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = _readonly(self.diag)
        off = _readonly(self.offdiag)
        if not 2 <= diag.size <= MAX_SITES:
            raise ValueError(
                f"matrix order must be between 2 and {MAX_SITES}, got {diag.size}"
            )
        if off.size != diag.size - 1:
            raise ValueError("offdiag must be exactly one entry shorter than diag")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        if not np.all(off > 0.0):
            raise ValueError("all couplings must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def n_sites(self) -> int:
        return int(self.diag.size)

    @cached_property
    def _spectral(self) -> tuple[SpectralData, np.ndarray]:
        # The instance and its arrays are immutable, so one solve serves
        # every later query; the cache lives and dies with the instance.
        return _eigensystem(self)


@dataclass(frozen=True)
class SpectralData:
    """Simple ordered spectrum paired with positive first-component weights.

    ``weights[s]`` is the squared first component of the unit eigenvector
    for ``eigenvalues[s]``; the pair determines the wire uniquely.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = _spectrum(self.eigenvalues)
        w = _readonly(self.weights)
        if w.size != lam.size:
            raise ValueError("eigenvalues and weights must have equal length")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.all((w > 0.0) & (w < 1.0)):
            raise ValueError("weights must lie strictly inside (0, 1)")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "weights", w)

    @property
    def n_sites(self) -> int:
        return int(self.eigenvalues.size)

    @cached_property
    def _centred(self) -> tuple[float, np.ndarray]:
        # the frame's midpoint c and lambda - c, shared by every evaluation
        c, _ = _frame(self.eigenvalues)
        return c, self.eigenvalues - c


@dataclass(frozen=True)
class PersymmetryReport:
    """Measured deviation from mirror symmetry about the antidiagonal."""

    is_persymmetric: bool
    max_diag_asymmetry: float
    max_offdiag_asymmetry: float
    tolerance: float


@dataclass(frozen=True)
class AmplitudeSeries:
    """Boundary amplitudes x_0(t) and x_N(t) sampled on a time grid."""

    times: np.ndarray
    x0: np.ndarray
    xN: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times)
        x0 = _readonly(self.x0, dtype=complex)
        xN = _readonly(self.xN, dtype=complex)
        if times.size < 2 or x0.size != times.size or xN.size != times.size:
            raise ValueError("times, x0 and xN must share a length of at least 2")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        bound = 1.0 + _UNITARITY_SLACK
        if np.abs(x0).max() > bound or np.abs(xN).max() > bound:
            raise ValueError("amplitudes exceed the unitarity bound")
        if times[0] == 0.0 and abs(x0[0] - 1.0) > _UNITARITY_SLACK:
            raise ValueError("x0 must equal 1 at t = 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xN", xN)


def _pivots(diag, off2, shifts, pivmin) -> np.ndarray:
    """Guarded LDL^T pivots of T - sigma I, one row per site, per shift.

    A pivot smaller in magnitude than ``pivmin`` is replaced by ``-pivmin``,
    so the recurrence never divides by zero and a vanishing pivot counts as
    negative in the Sturm sequence.
    """
    piv = np.empty((diag.size,) + np.shape(shifts))
    for i in range(diag.size):
        d = diag[i] - shifts
        if i:
            d = d - off2[i - 1] / piv[i - 1]
        piv[i] = np.where(np.abs(d) < pivmin, -pivmin, d)
    return piv


def _bisect_eigenvalues(diag, off, off2, pivmin) -> np.ndarray:
    """All eigenvalues of the tridiagonal matrix, in increasing order.

    Bisection on the Sturm count halves every interval until its width is
    at most max(atol, 2 eps max(|lo|, |hi|)), with atol = eps times the
    larger Gershgorin bound (Kahan's stopping rule, as in LAPACK
    ``dstebz``).  Each eigenvalue is then accurate to about eps times the
    spectral scale, and an eigenvalue at or near zero stops after about
    as many sweeps as any other.  Intervals that can no longer be split in
    floating point also stop, and the sweep budget bounds the loop.
    """
    n = diag.size
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    glo = float(np.min(diag - radius))
    ghi = float(np.max(diag + radius))
    eps = np.finfo(float).eps
    atol = eps * max(abs(glo), abs(ghi))
    pad = 1e-3 * (ghi - glo)
    lo = np.full(n, glo - pad)
    hi = np.full(n, ghi + pad)
    want = np.arange(1, n + 1)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = np.maximum(atol, 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)))
        active = np.nonzero((hi - lo > width) & (mid > lo) & (mid < hi))[0]
        if not active.size:
            break
        shifts = mid[active]
        counts = np.count_nonzero(_pivots(diag, off2, shifts, pivmin) < 0.0, axis=0)
        go_down = counts >= want[active]
        hi[active] = np.where(go_down, shifts, hi[active])
        lo[active] = np.where(go_down, lo[active], shifts)
    return 0.5 * (lo + hi)


def _twisted_vectors(diag, off, off2, lam, pivmin) -> np.ndarray:
    """Unit eigenvectors for all eigenvalues by twisted factorization.

    The forward pivots d and backward pivots r of T - lambda I meet at the
    twist index k where |d_k + r_k - (a_k - lambda)| is smallest, which is
    where the eigenvector is largest (Dhillon & Parlett 2004).  From z_k = 1
    the components follow outward as z_i = -(b_i / d_i) z_{i+1} above the
    twist and z_i = -(b_{i-1} / r_i) z_{i-1} below it.
    """
    d = _pivots(diag, off2, lam, pivmin)
    r = _pivots(diag[::-1], off2[::-1], lam, pivmin)[::-1]
    twist = np.argmin(np.abs(d + r - (diag[:, None] - lam)), axis=0)
    up = -off[:, None] / d[:-1]
    down = -off[:, None] / r[1:]
    z = np.ones_like(d)
    for i in range(diag.size - 2, -1, -1):
        z[i] = np.where(i < twist, up[i] * z[i + 1], z[i])
    for i in range(1, diag.size):
        z[i] = np.where(i > twist, down[i - 1] * z[i - 1], z[i])
    return z / np.linalg.norm(z, axis=0)


def _eigensystem(J: JacobiMatrix) -> tuple[SpectralData, np.ndarray]:
    """Spectral data plus the full orthonormal eigenvector matrix (read-only).

    The solve runs on (J - c) 2^-e, c the diagonal's midpoint and 2^e above
    every entry of J - c: this keeps b^2 from overflowing or underflowing
    and leaves the eigenvectors, hence a shifted wire's weights, unchanged.
    """
    c, _ = _frame((J.diag.min(), J.diag.max()))
    _, e = np.frexp(max(np.abs(J.diag - c).max(), J.offdiag.max()))
    diag, off = np.ldexp(J.diag - c, -e), np.ldexp(J.offdiag, -e)
    off2 = off * off
    pivmin = np.finfo(float).tiny  # LAPACK's tiny * max(1, b^2), as b^2 < 1
    mu = _bisect_eigenvalues(diag, off, off2, pivmin)
    with np.errstate(over="ignore"):
        lam = c + np.ldexp(mu, e)
    if not np.all(np.isfinite(lam)):
        bad = int(np.nonzero(~np.isfinite(lam))[0][0])
        raise EigensolverError(
            f"eigenvalue {bad} overflows: matrix entries are too large", index=bad
        )
    scale = float(np.abs(lam).max())
    gaps = np.diff(lam)
    tight = np.nonzero(gaps <= GAP_RTOL * scale)[0]
    if tight.size:
        bad = int(tight[0]) + 1
        raise EigensolverError(
            f"eigenvalue {bad} is numerically degenerate "
            f"(gap {gaps[tight[0]]:.3e} at scale {scale:.3e})",
            index=bad,
        )
    vectors = _twisted_vectors(diag, off, off2, mu, pivmin)
    vectors.setflags(write=False)
    weights = vectors[0] ** 2
    weights = weights / weights.sum()
    if not np.all((weights > 0.0) & (weights < 1.0)):
        bad = int(np.argmin(weights))
        raise EigensolverError(
            f"weight {bad} ({weights[bad]:.3e}) is lost at working precision: "
            "the first site is too weakly coupled", index=bad
        )
    return SpectralData(eigenvalues=lam, weights=weights), vectors


def eigendecompose(J: JacobiMatrix) -> SpectralData:
    """Eigenvalues (increasing) and first-component weights of the wire.

    Eigenvalues come from Sturm bisection, eigenvectors from twisted
    factorization; weights are the squared first components, renormalized
    to sum to exactly 1.  Couplings > 0 guarantee the spectrum is simple,
    and a computed gap below the simplicity tolerance raises
    :class:`EigensolverError` with the offending index.  The wire is solved
    once per instance; later calls, and ``full_evolution_column`` on the
    same instance, reuse that solve.
    """
    return J._spectral[0]


def check_persymmetry(J: JacobiMatrix, tol: float = 1e-12) -> PersymmetryReport:
    """Measure the deviation of J from symmetry about its antidiagonal.

    The verdict holds both asymmetries to ``tol`` times the largest entry
    modulus of J, so it does not depend on the wire's scale.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    diag_asym = float(np.abs(J.diag - J.diag[::-1]).max())
    off_asym = float(np.abs(J.offdiag - J.offdiag[::-1]).max())
    bound = tol * max(float(np.abs(J.diag).max()), float(J.offdiag.max()))
    return PersymmetryReport(
        is_persymmetric=bool(diag_asym <= bound and off_asym <= bound),
        max_diag_asymmetry=diag_asym,
        max_offdiag_asymmetry=off_asym,
        tolerance=float(tol),
    )


def _boundary_coefficients(sd: SpectralData, site: Site) -> np.ndarray:
    if site == "first":
        return sd.weights
    if site == "last":
        # Valid for persymmetric wires only: the last eigenvector component
        # equals (-1)^(N+s) times the first one.
        s = np.arange(sd.n_sites)
        signs = np.where((sd.n_sites - 1 + s) % 2 == 0, 1.0, -1.0)
        return signs * sd.weights
    raise ValueError("site must be 'first' or 'last'")


def _spectral_sum(sd: SpectralData, times, coefficients) -> np.ndarray:
    """sum_s exp(-i lambda_s t) coefficients[s], one row per entry of ``times``.

    Sums exp(-i (lambda_s - c) t) about the midpoint c and applies exp(-i c t)
    once, so a shift of the spectrum costs the sum no precision.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    c, lam = sd._centred
    values = np.exp(-1j * t[:, None] * lam[None, :]) @ coefficients
    if c:
        values = (values.T * np.exp(-1j * c * t)).T
    return values


def amplitude_values(sd: SpectralData, times, site: Site = "first") -> np.ndarray:
    """Boundary amplitude at every entry of ``times`` (vectorized)."""
    return _spectral_sum(sd, times, _boundary_coefficients(sd, site))


def amplitude(sd: SpectralData, site: Site, t: float) -> complex:
    """Exact boundary amplitude from spectral data.

    site "first" returns sum_s w_s exp(-i lambda_s t); site "last" returns
    the alternating-sign sum, which equals x_N(t) when the spectral data
    comes from a persymmetric wire.
    """
    return complex(amplitude_values(sd, [float(t)], site)[0])


def amplitude_series(
    sd: SpectralData, t0: float, t1: float, steps: int
) -> AmplitudeSeries:
    """Sample both boundary amplitudes on a uniform grid over [t0, t1]."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    if steps < 2:
        raise ValueError("need steps >= 2")
    times = np.linspace(float(t0), float(t1), int(steps))
    return AmplitudeSeries(
        times=times,
        x0=amplitude_values(sd, times, "first"),
        xN=amplitude_values(sd, times, "last"),
    )


def full_evolution_column(J: JacobiMatrix, t: float) -> np.ndarray:
    """All components of exp(-iJt) e_0 via the full eigendecomposition.

    Component i is the spectral sum with coefficients v_i(s) v_0(s).  The
    eigendecomposition is computed once per instance and shared with
    ``eigendecompose``, so each further time costs one spectral sum.
    """
    sd, vectors = J._spectral
    return _spectral_sum(sd, t, (vectors * vectors[0]).T)[0]
