"""Value types and spectral kinematics of finite tridiagonal quantum wires.

A wire with N+1 sites is encoded as a real symmetric tridiagonal matrix
with strictly positive couplings.  The state that starts on site 0 evolves
as exp(-iJt) e_0, and every boundary observable used here is a function of
the eigenvalues together with the squared first components of the unit
eigenvectors (the spectral weights): the site-0 amplitude is
sum_s w_s exp(-i lambda_s t), and for mirror-symmetric (persymmetric)
wires the site-N amplitude is the same sum with alternating signs.

The eigensolver runs on the LDL^T pivots of T - sigma I.  Eigenvalues are
located by multisection on their sign count (the Sturm count), taken from
the sign bits of unguarded pivots, as IEEE-754 arithmetic allows; the
eigenvectors' twisted factorizations need the guarded pivots, which never
divide by zero.  Each eigenvalue starts from a narrow bracket about its
LAPACK value, and the bracket's ends set the last bits of the eigenvalue,
so those bits follow LAPACK's (ROADMAP item 19).  Each pass splits every
open interval into ``_SECTIONS`` equal parts and counts at all their
interior shifts in one sweep over the sites.  The first pass counts only in
a window of ``2 _WINDOW + 1`` of those shifts about the LAPACK value; as
the count never falls as the shift rises, a window whose ends bracket the
eigenvalue picks the section the whole pass would, and every other bracket
restarts from the Gershgorin interval.  About 2 passes reach working
precision.  Eigenvectors come from twisted factorizations that join the
forward and backward pivots at the eigenvalue, both from one sweep over T
and its mirror image for all eigenvalues at once, so a solve takes three
sweeps, the first one of 2 _WINDOW + 1 shifts per eigenvalue.  Each sweep
splits its pivot array into site rows once, so a site costs two ufunc calls
in a Sturm count (divide and subtract, with the squared coupling as a
Python float) and four in a guarded sweep (the guard's abs and
minimum.reduce too, plus its replacement where it fires), with no per-site
view.  A count then sums its sign bits as bytes, one add.reduce over the
pivots' sign mask viewed as uint8.  For the supported sizes (at most
``MAX_SITES`` sites) and simple, well separated spectra this gives
eigenpair residuals and weights at working precision, also for strongly
localized eigenvectors.

The kernels work in one affine frame, ``_frame``: on (lambda - c) 2^-e,
with c the midpoint and 2^e the power of two above the half-span (the
solver centres on its diagonal), or on lambda - c alone.  A shift or scale
thus leaves their results alone; symmetric spectra have c = 0 exactly.

Every amplitude, boundary or full column, is a centred spectral sum:
``_spectral_sum`` at arbitrary times, or ``_grid_sum`` on a uniform grid,
which factors the grid so that exp(-i lambda t) is formed O(sqrt(n)) times
per eigenvalue rather than n times.  Every uniform grid, the ESE scan and
every ``amplitude_series``, goes through ``_grid_sum``.  Their
values cancel down to ``_NOISE_CLEARANCE`` times the total coefficient
modulus and no further; below that floor round-off decides the sign, so the
ESE search and the sign-change count both drop such values, and
``amplitude_series`` sets such real and imaginary parts to 0.

A wire is solved once per ``JacobiMatrix`` instance: the spectral data and
the read-only eigenvector matrix are kept on the instance on first use and
shared by ``eigendecompose`` and every ``full_evolution_column`` call,
with the coefficients v_i(s) v_0(s) that those columns sum.
Likewise a ``SpectralData`` keeps, on first use, the frame's midpoint c with
the centred spectrum lambda - c, and the alternating-sign x_N coefficients,
which the transfer phase, the ESE search and every series share.  Value
types that hold arrays compare and hash by identity, as these caches do.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import EigensolverError, GridBudgetError

# Weight hierarchies grow roughly factorially with size; 64-bit floats can
# absorb that (after normalization) only up to about 41 sites.
MAX_SITES = 41

# Computed gaps below this fraction of the spectral scale signal numerical
# trouble: couplings > 0 guarantee simple spectra in exact arithmetic.
GAP_RTOL = 1e-10

Site = Literal["first", "last"]

_UNITARITY_SLACK = 1e-9

# Multisection: each pass splits every open interval into this many equal
# parts, narrowing it by 5 bits; 32 passes thus cover 160 bits.
_SECTIONS = 32
_BISECT_MAX_ITER = 32
# The first pass counts only at the guess -+ this many sections.  On two
# corpora of about 285,000 eigenvalues each (every named and benchmark wire,
# 12,000 seeded random wires of 2 to 41 sites), LAPACK's guess lay at most
# 2.72 sections from the eigenvalue, at 5 sites (2.34, at 3 sites, on the
# other corpus).
_WINDOW = 4

# The interior section fractions 1/_SECTIONS .. (_SECTIONS - 1)/_SECTIONS as
# a read-only column, and the window's 2 _WINDOW + 1 rows of it about row
# _SECTIONS // 2 - 1, the guess's; eps and tiny of float64.
_FRACTIONS = np.arange(1, _SECTIONS)[:, None] / _SECTIONS
_FRACTIONS.setflags(write=False)
_WINDOW_FRACTIONS = _FRACTIONS[_SECTIONS // 2 - 1 - _WINDOW:_SECTIONS // 2 + _WINDOW]
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Cancellation floor of a spectral sum per unit of total coefficient modulus.
_NOISE_CLEARANCE = 1e-12

# Work budget of one uniform grid (the ESE scan or a series): 2^20 points,
# about 93 MB at the peak of a 41-site series.  The largest ESE scan of a
# named family, gap family (20, 30), has 12,673 points.
_MAX_GRID_POINTS = 1 << 20


_BOOLS = frozenset((bool, np.bool_))


def _readonly(values, dtype=float) -> np.ndarray:
    """A read-only one-dimensional copy of ``values`` as ``dtype``.

    Complex values for a real ``dtype`` raise ValueError instead of losing
    their imaginary parts, as do integers beyond float range (numbers in an
    object array) instead of raising OverflowError, and strings, None or
    bools instead of converting.  A list or tuple is converted once, its copy.
    """
    # numpy reads a bool beside numbers as 0 or 1, so look for one first
    if isinstance(values, (list, tuple)) and not _BOOLS.isdisjoint(map(type, values)):
        raise ValueError("expected numbers, got bool")
    arr = np.asarray(values)
    real = np.dtype(dtype).kind != "c"
    for value in arr.ravel().tolist() if arr.dtype.kind not in "iufc" else ():
        if isinstance(value, bool) or not isinstance(value, numbers.Number):
            raise ValueError(f"expected numbers, got {type(value).__name__}")
        if real and isinstance(value, (complex, np.complexfloating)):
            raise ValueError("expected real values, got complex ones")
    if arr.dtype.kind == "c" and real:
        raise ValueError("expected real values, got complex ones")
    try:
        arr = arr.astype(dtype, copy=not isinstance(values, (list, tuple)))
    except OverflowError:
        raise ValueError("expected values within float range") from None
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    arr.setflags(write=False)
    return arr


def _real(value, name: str) -> float:
    """The time or tolerance argument ``name`` as a float, by ``_readonly``'s
    rules: an array, even of one element, raises ValueError; NaN and inf pass."""
    if isinstance(value, float):  # numpy's float64 too: already one real number
        return float(value)
    arr = np.asarray(value)
    if arr.ndim:
        raise ValueError(f"{name} must be a single real number, got shape {arr.shape}")
    return float(_readonly(arr[None])[0])


def _integer(value) -> int:
    """An integer parameter as an int: bools and floats raise ValueError, as do
    integers above float range, by ``_readonly``'s rule; one below it is left
    to the caller's lower bound, which names it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    if value > 0:
        _readonly([value])
    return int(value)


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
    if not math.isfinite(float(lam.max()) - float(lam.min())):
        raise ValueError("eigenvalues and their span must be finite")
    scale = float(np.abs(lam).max())
    if not ((lam[1:] - lam[:-1]) > GAP_RTOL * scale).all():
        raise ValueError(
            "eigenvalues must be strictly increasing with gaps above "
            f"{GAP_RTOL} of the spectral scale"
        )
    return lam


@dataclass(frozen=True, eq=False)
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
        diag_span = float(diag.max()) - float(diag.min())
        if not (math.isfinite(diag_span) and np.isfinite(off).all()):
            raise ValueError("matrix entries and the diagonal's span must be finite")
        if not (off > 0.0).all():
            raise ValueError("all couplings must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def n_sites(self) -> int:
        return int(self.diag.size)

    @cached_property
    def _spectral(self) -> tuple[SpectralData, np.ndarray, np.ndarray]:
        # The instance and its arrays are immutable, so one solve serves
        # every later query; the cache lives and dies with the instance.
        # Beside the spectral data and the eigenvectors it keeps
        # full_evolution_column's coefficients v_i(s) v_0(s), read-only,
        # one row per eigenvalue s.
        sd, vectors = _eigensystem(self)
        coefficients = vectors * vectors[0]
        coefficients.setflags(write=False)
        return sd, vectors, coefficients.T


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if not ((w > 0.0) & (w < 1.0)).all():
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

    @cached_property
    def _last(self) -> np.ndarray:
        # x_N's coefficients, for persymmetric wires only: the last
        # eigenvector component equals (-1)^(N+s) times the first one
        s = np.arange(self.n_sites)
        signs = np.where((self.n_sites - 1 + s) % 2 == 0, 1.0, -1.0)
        last = signs * self.weights
        last.setflags(write=False)
        return last


@dataclass(frozen=True)
class PersymmetryReport:
    """Measured deviation from mirror symmetry about the antidiagonal."""

    is_persymmetric: bool
    max_diag_asymmetry: float
    max_offdiag_asymmetry: float
    tolerance: float


@dataclass(frozen=True, eq=False)
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
        if not ((times[1:] - times[:-1]) > 0.0).all():
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

    ``diag`` and ``off2`` run over the sites on their first axis, and the
    rest of their shape broadcasts against ``shifts`` (``diag[:, None]``
    for a flat array of shifts), so one sweep over the sites can also
    serve several matrices at once.  A pivot smaller in magnitude than
    ``pivmin`` is replaced by ``-pivmin``, so the recurrence never divides
    by zero, which the ratios of ``_twisted_vectors`` need, and a
    vanishing pivot counts as negative in the Sturm sequence.  Bisection
    counts with ``_sturm_counts`` instead, unless a coupling is too weak
    for it.

    The pivots are laid out in C order whatever the operands' layout, and
    their rows and the coupling rows are split into lists once, so a site
    costs four ufunc calls (divide, subtract, abs and the guard's
    ``minimum.reduce``) on contiguous rows, and no view of its own.
    """
    piv = np.subtract(diag, shifts, order="C")
    rows, couplings = list(piv), list(off2)
    buf = np.empty_like(rows[0])
    for i, d in enumerate(rows):
        if i:
            np.divide(couplings[i - 1], rows[i - 1], out=buf)
            np.subtract(d, buf, out=d)
        if np.minimum.reduce(np.abs(d, out=buf), axis=None) < pivmin:
            d[buf < pivmin] = -pivmin
    return piv


def _sturm_counts(diag, off2, shifts, pivmin) -> np.ndarray:
    """Sturm counts of T - sigma I per shift, from unguarded LDL^T pivots.

    ``diag`` and ``shifts`` broadcast as in ``_pivots``; ``off2`` holds one
    squared coupling per site, for a single matrix.  Under IEEE-754 a zero
    pivot gives an infinite next one and no guard is needed (Marques, Riedy
    & Voemel 2006, as in LAPACK ``dlaneg``).  The guard counts a pivot
    below ``pivmin`` in magnitude and makes the next one large and
    positive.  The sign bit counts it only if it is negative, -0 included,
    and the next pivot is then +inf or large and positive, and otherwise
    -inf or large and negative: the pair counts once either way.  Only the
    last pivot, which has no successor, keeps the guard's rule, ``< pivmin``.

    The pivot rows are split into a list once and the squared couplings
    taken as Python floats, so a site costs two ufunc calls (divide and
    subtract) and no view of its own.  The sign bits are summed as bytes
    into int16, which holds any count far beyond ``MAX_SITES``.
    """
    piv = np.subtract(diag, shifts)
    rows = list(piv)
    buf = np.empty_like(rows[0])
    with np.errstate(divide="ignore", over="ignore"):
        for b2, before, d in zip(off2.ravel().tolist(), rows, rows[1:]):
            np.divide(b2, before, out=buf)
            np.subtract(d, buf, out=d)
    negative = np.signbit(piv[:-1]).view(np.uint8)
    return np.add.reduce(negative, axis=0, dtype=np.int16) + (piv[-1] < pivmin)


def _narrow(lo, hi, k, count, fractions=_FRACTIONS):
    """One multisection pass over brackets (lo, hi) of the indices ``k``.

    Counts at the interior shifts lo + f (hi - lo), f in ``fractions``.  The
    new hi is the first shift whose count reaches k, hi itself if none does,
    and the new lo the shift before it, so count(lo) < k <= count(hi) holds
    after the pass if it held before.  Also returns whether each interior
    count reaches k, one row per fraction.
    """
    grid = np.empty((fractions.shape[0] + 2, lo.size))
    grid[0], grid[-1] = lo, hi
    interior = grid[1:-1]
    np.multiply(fractions, hi - lo, out=interior)
    interior += lo
    reached = count(interior) >= k
    first = np.argmax(reached, axis=0) + 1
    np.copyto(first, grid.shape[0] - 1, where=(first == 1) & ~reached[0])
    columns = np.arange(lo.size)
    return grid[first - 1, columns], grid[first, columns], reached


def _bisect_eigenvalues(diag, off, off2, pivmin) -> np.ndarray:
    """All eigenvalues of the tridiagonal matrix, in increasing order.

    Each eigenvalue starts from the bracket guess -+ 8 n atol about its
    LAPACK value (``numpy.linalg.eigvalsh`` of the dense matrix), with atol
    the stopping tolerance below, or from the padded Gershgorin interval
    if the guess is not finite.

    Multisection on the Sturm count (Lo, Philippe & Sameh 1987): each pass
    evaluates every open interval (lo, hi) at ``_SECTIONS - 1`` equally
    spaced interior shifts in one ``_sturm_counts`` call (``_narrow``).  The
    new hi is the first shift whose count reaches the eigenvalue's index and
    the new lo is the shift just before it, so count(lo) < index <= count(hi)
    holds by construction and each pass narrows the interval
    ``_SECTIONS``-fold.

    The first pass counts only at the ``2 _WINDOW + 1`` shifts of each
    bracket nearest its middle, the window.  The Sturm count never falls as
    the shift rises (Kahan 1966; Demmel, Dhillon & Ren 1995), so where the
    window's ends bracket the eigenvalue, its first shift that reaches the
    index is the one the whole pass would pick, and the interval is the
    same to the bit.  Every other bracket, whose window missed or whose
    guess was wrong, restarts from the padded Gershgorin interval.  The
    Sturm count alone decides which bracket holds the eigenvalue, but
    LAPACK's guess sets the bracket's ends, and through them the final
    midpoint: a guess one ulp away can change the eigenvalue's last bits
    (ROADMAP item 19).

    An interval stops once its width is at most
    max(atol, 2 eps max(|lo|, |hi|)), with atol = eps times the larger
    Gershgorin bound (Kahan's stopping rule, as in LAPACK ``dstebz``).
    Each eigenvalue is then accurate to about eps times the spectral scale,
    and a seeded bracket, 16 n atol wide, stops after about 2 passes.
    Intervals that can no longer be split in floating point also stop, and
    the pass budget bounds the loop.  A pass on which every interval is open
    replaces lo and hi whole.

    A solve with a coupling too weak for the sign-bit count, one whose
    square underflows or nearly, takes every count from the guarded
    ``_pivots`` instead.
    """
    n = diag.size
    radius = np.concatenate((off, [0.0]))
    radius[1:] += off
    glo = float((diag - radius).min())
    ghi = float((diag + radius).max())
    atol = _EPS * max(abs(glo), abs(ghi))
    pad = 1e-3 * (ghi - glo)
    want = np.arange(1, n + 1)
    # the dense matrix by strided fills; adding 0 turns a -0 on the diagonal
    # into +0, as summing three diagonal matrices did
    dense = np.zeros((n, n))
    flat = dense.reshape(-1)
    np.add(diag, 0.0, out=flat[::n + 1])
    flat[1::n + 1] = off
    flat[n::n + 1] = off
    try:
        guess = np.linalg.eigvalsh(dense)
    except np.linalg.LinAlgError:
        guess = np.full(n, np.nan)
    lo, hi = guess - 8 * n * atol, guess + 8 * n * atol
    unseeded = ~np.isfinite(guess)
    lo[unseeded], hi[unseeded] = glo - pad, ghi + pad
    sites = diag[:, None, None], off2[:, None, None]
    # The IEEE count needs a pivot below pivmin to make the next one -b^2/d
    # to working precision, so b^2 / pivmin must exceed every |a - sigma|,
    # at most ghi - glo + 2 pad, by 1/eps.  A smaller b^2 (one that
    # underflows in the unit frame) counts with the guard, in every sweep.
    if off2.min() * _EPS < pivmin * (ghi - glo + 2 * pad):
        def count(shifts):
            negative = (_pivots(*sites, shifts, pivmin) < 0.0).view(np.uint8)
            return np.add.reduce(negative, axis=0, dtype=np.int16)
    else:
        def count(shifts):
            return _sturm_counts(*sites, shifts, pivmin)
    lo, hi, reached = _narrow(lo, hi, want, count, _WINDOW_FRACTIONS)
    missed = reached[0] | ~reached[-1]
    lo[missed], hi[missed] = glo - pad, ghi + pad
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = np.maximum(atol, 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        active = (hi - lo > width) & (mid > lo) & (mid < hi)
        if active.all():
            lo, hi, _ = _narrow(lo, hi, want, count)
        elif active.any():
            a, b, _ = _narrow(lo[active], hi[active], want[active], count)
            lo[active], hi[active] = a, b
        else:
            break
    return 0.5 * (lo + hi)


def _twisted_vectors(diag, off, off2, lam, pivmin) -> np.ndarray:
    """Unit eigenvectors for all eigenvalues by twisted factorization.

    The forward pivots d and backward pivots r of T - lambda I meet at the
    twist index k where |d_k + r_k - (a_k - lambda)| is smallest, which is
    where the eigenvector is largest (Dhillon & Parlett 2004).  One sweep
    over the sites of T and of its mirror image gives both.  From z_k = 1
    the components follow outward as z_i = -(b_i / d_i) z_{i+1} above the
    twist and z_i = -(b_{i-1} / r_i) z_{i-1} below it.
    """
    both = _pivots(
        np.array([diag, diag[::-1]]).T[..., None],
        np.array([off2, off2[::-1]]).T[..., None],
        lam,
        pivmin,
    )
    d, r = both[:, 0], both[::-1, 1]
    twist = np.argmin(np.abs(d + r - (diag[:, None] - lam)), axis=0)
    minus_off = -off[:, None]
    up = minus_off / d[:-1]
    down = minus_off / r[1:]
    # products taken outward from the twist, a factor 1 on the other side:
    # the same multiplications, in the same order, as the walk from z_k = 1
    below = np.arange(diag.size - 1)[:, None] >= twist
    np.copyto(up, 1.0, where=below)
    np.copyto(down, 1.0, where=~below)
    z = np.ones_like(d)
    z[:-1] = np.multiply.accumulate(up[::-1])[::-1]
    z[1:] *= np.multiply.accumulate(down)
    # the 2-norm of each column as numpy.linalg.norm takes it for real input
    return z / np.sqrt(np.add.reduce(z * z, axis=0))


def _eigensystem(J: JacobiMatrix) -> tuple[SpectralData, np.ndarray]:
    """Spectral data plus the full orthonormal eigenvector matrix (read-only).

    The solve runs on (J - c) 2^-e, c the diagonal's midpoint and 2^e above
    every entry of J - c: this keeps b^2 from overflowing or underflowing
    and leaves the eigenvectors, hence a shifted wire's weights, unchanged.
    """
    c, _ = _frame((J.diag.min(), J.diag.max()))
    centred = J.diag - c
    e = math.frexp(max(float(np.abs(centred).max()), float(J.offdiag.max())))[1]
    diag, off = np.ldexp(centred, -e), np.ldexp(J.offdiag, -e)
    off2 = off * off
    pivmin = _TINY  # LAPACK's tiny * max(1, b^2), as b^2 < 1
    mu = _bisect_eigenvalues(diag, off, off2, pivmin)
    # an eigenvalue or a gap that overflows is inf, refused below or, for a
    # gap, by SpectralData as a span beyond float range
    with np.errstate(over="ignore"):
        lam = c + np.ldexp(mu, e)
        gaps = lam[1:] - lam[:-1]
    if not np.isfinite(lam).all():
        bad = int(np.nonzero(~np.isfinite(lam))[0][0])
        raise EigensolverError(
            f"eigenvalue {bad} overflows: matrix entries are too large", index=bad
        )
    scale = float(np.abs(lam).max())
    tight = gaps <= GAP_RTOL * scale
    if tight.any():
        bad = int(tight.argmax()) + 1
        # the brackets of an exact double eigenvalue can stop at crossed
        # midpoints; a computed gap below 0 is reported as 0
        gap = max(0.0, float(gaps[bad - 1]))
        raise EigensolverError(
            f"eigenvalue {bad} is numerically degenerate "
            f"(gap {gap:.3e} at scale {scale:.3e})",
            index=bad,
        )
    vectors = _twisted_vectors(diag, off, off2, mu, pivmin)
    vectors.setflags(write=False)
    weights = vectors[0] ** 2
    weights = weights / weights.sum()
    if not ((weights > 0.0) & (weights < 1.0)).all():
        bad = int(np.argmin(weights))
        raise EigensolverError(
            f"weight {bad} ({weights[bad]:.3e}) is lost at working precision: "
            "the first site is too weakly coupled", index=bad
        )
    return SpectralData(eigenvalues=lam, weights=weights), vectors


def eigendecompose(J: JacobiMatrix) -> SpectralData:
    """Eigenvalues (increasing) and first-component weights of the wire.

    Eigenvalues come from multisection on the Sturm count, from brackets
    seeded by LAPACK, in about 2 sweeps over the sites: the first counts
    only in a window of 9 shifts about each LAPACK value, and a bracket
    the window misses restarts from the Gershgorin interval.  The counts
    come from the sign bits of unguarded pivots, or from guarded ones where
    a coupling's square underflows.
    Eigenvectors come from twisted factorization, on guarded pivots, in
    one more sweep; weights are the squared first components, renormalized
    to sum to exactly 1.
    Couplings > 0 guarantee the spectrum is simple, and a computed gap below
    the simplicity tolerance raises :class:`EigensolverError` with the
    offending index.  The wire is solved once per instance; later calls, and
    ``full_evolution_column`` on the same instance, reuse that solve.
    """
    return J._spectral[0]


def check_persymmetry(J: JacobiMatrix, tol: float = 1e-12) -> PersymmetryReport:
    """Measure the deviation of J from symmetry about its antidiagonal.

    The verdict holds both asymmetries to ``tol`` times the largest entry
    modulus of J - c, c the diagonal's midpoint (the frame of the solver),
    so it depends on neither the wire's scale nor a shift of its diagonal.
    ``tol`` is a single real number, positive and finite.
    """
    tol = _real(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    diag_asym = float(np.abs(J.diag - J.diag[::-1]).max())
    off_asym = float(np.abs(J.offdiag - J.offdiag[::-1]).max())
    c, _ = _frame((J.diag.min(), J.diag.max()))
    bound = tol * max(float(np.abs(J.diag - c).max()), float(J.offdiag.max()))
    return PersymmetryReport(
        is_persymmetric=bool(diag_asym <= bound and off_asym <= bound),
        max_diag_asymmetry=diag_asym,
        max_offdiag_asymmetry=off_asym,
        tolerance=tol,
    )


def _boundary_coefficients(sd: SpectralData, site: Site) -> np.ndarray:
    if site == "first":
        return sd.weights
    if site == "last":
        return sd._last
    raise ValueError("site must be 'first' or 'last'")


def _finite_phases(sd: SpectralData, t_max: float) -> bool:
    """Whether the phases (lambda - c) t and c t are finite for all |t| <= t_max.

    c is the spectrum's midpoint.  The product is formed on Python floats,
    which overflow to inf without a warning; a NaN bound gives False.
    """
    c, lam = sd._centred
    return math.isfinite(float(max(-lam[0], lam[-1], abs(c))) * t_max)


def _times(sd: SpectralData, times) -> np.ndarray:
    """``times`` read by ``_readonly``, a scalar as one time, every phase finite.

    More than one dimension raises ValueError, as does a time whose phases
    are not finite, which the message names.
    """
    t = _readonly(times if isinstance(times, (list, tuple)) else np.atleast_1d(times))
    if not _finite_phases(sd, float(np.abs(t).max(initial=0.0))):
        bad = next(x for x in t.tolist() if not _finite_phases(sd, abs(x)))
        raise ValueError(f"t = {bad!r} gives non-finite phases")
    return t


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


def _grid_sum(
    sd: SpectralData, t0: float, t1: float, n: int, coefficients
) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid from t0 to t1, n >= 2, and ``_spectral_sum`` on it.

    The grid equals ``np.linspace(t0, t1, n)`` bit for bit, built by the
    same operations (t0 + j h with h = (t1 - t0)/(n - 1), numpy's scaling by
    j/(n - 1) where h underflows to 0, and t1 itself as the last point).

    With step h, B = ceil(sqrt(n)) and j = B q + r, the centred phase factors
    as exp(-i mu t_j) = exp(-i mu (t0 + B q h)) exp(-i mu r h), so the n sums
    are one (Q x S)(S x B) matrix product over (Q + B) S exponentials in
    place of n S.  The factors round differently from exp(-i mu t_j) only by
    about eps |mu| t.  exp(-i c t) is applied once, on the grid itself.  More
    than ``_MAX_GRID_POINTS`` points raise :class:`GridBudgetError` before
    anything is allocated.
    """
    if n > _MAX_GRID_POINTS:
        raise GridBudgetError(
            f"a grid of {n} points exceeds the budget of {_MAX_GRID_POINTS}"
        )
    span = t1 - t0
    step = span / (n - 1)
    times = np.arange(n, dtype=float)
    if step == 0.0:
        times /= n - 1
        times *= span
    else:
        times *= step
    times += t0
    times[-1] = t1
    c, lam = sd._centred
    block = math.isqrt(n - 1) + 1
    rows = -(-n // block)
    outer = np.exp(-1j * np.multiply.outer(block * np.arange(rows) * step + t0, lam))
    inner = np.exp(-1j * np.multiply.outer(lam, np.arange(block) * step))
    coefficients = np.asarray(coefficients)
    columns = coefficients.reshape(lam.size, -1).T
    weighted = (outer[:, None, :] * columns).reshape(-1, lam.size)
    values = (weighted @ inner).reshape(rows, columns.shape[0], block).transpose(0, 2, 1)
    values = values.reshape((rows * block,) + coefficients.shape[1:])[:n]
    if c:
        values = (values.T * np.exp(-1j * c * times)).T
    return times, values


def amplitude_values(sd: SpectralData, times, site: Site = "first") -> np.ndarray:
    """Boundary amplitude at every entry of ``times``, a real scalar or 1-D array.

    A time whose phases are not finite (for example inf, nan or 1e308 on
    a unit-scale spectrum) raises ValueError naming it.
    """
    return _spectral_sum(sd, _times(sd, times), _boundary_coefficients(sd, site))


def amplitude(sd: SpectralData, site: Site, t: float) -> complex:
    """Exact boundary amplitude from spectral data.

    site "first" returns sum_s w_s exp(-i lambda_s t); site "last" returns
    the alternating-sign sum, which equals x_N(t) when the spectral data
    comes from a persymmetric wire.  ``t`` is a single real time.
    """
    return complex(amplitude_values(sd, _real(t, "t"), site)[0])


def amplitude_series(
    sd: SpectralData, t0: float, t1: float, steps: int
) -> AmplitudeSeries:
    """Both boundary amplitudes on ``np.linspace(t0, t1, steps)``, steps an int.

    x_0 and x_N come from one ``_grid_sum`` call over the S x 2 matrix of
    their coefficients, so a series costs O(sqrt(steps)) exponentials per
    eigenvalue and O(steps + sqrt(steps) S) memory.  A real or imaginary
    part at or below the cancellation floor, ``_NOISE_CLEARANCE`` times the
    boundary's total coefficient modulus, is round-off and is set to 0.

    Before any work, the phases (lambda - c) t and c t, with c the
    spectrum's midpoint, must be finite for |t| up to |t0| + |t1|, a bound
    on both the grid's times and its span; otherwise ValueError names the
    range.  The bound is conservative: it may reject a range whose grid
    phases are all finite, since only a two-step grid has the whole span
    as one step.  More than ``_MAX_GRID_POINTS`` steps raise
    :class:`GridBudgetError`.
    """
    t0, t1, steps = _real(t0, "t0"), _real(t1, "t1"), _integer(steps)
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    if steps < 2:
        raise ValueError("need steps >= 2")
    if not _finite_phases(sd, abs(t0) + abs(t1)):
        raise ValueError(f"t0 = {t0!r}, t1 = {t1!r} give non-finite phases")
    coefficients = np.empty((sd.n_sites, 2))
    coefficients[:, 0] = sd.weights
    coefficients[:, 1] = sd._last
    times, values = _grid_sum(sd, t0, t1, steps, coefficients)
    values = np.ascontiguousarray(values)
    floor = _NOISE_CLEARANCE * np.abs(coefficients).sum(axis=0)
    # each row of parts is Re x_0, Im x_0, Re x_N, Im x_N
    parts = values.view(float)
    parts[np.abs(parts) <= floor.repeat(2)] = 0.0
    return AmplitudeSeries(times=times, x0=values[:, 0], xN=values[:, 1])


def full_evolution_column(J: JacobiMatrix, t: float) -> np.ndarray:
    """All components of exp(-iJt) e_0 via the full eigendecomposition.

    Component i is the spectral sum with coefficients v_i(s) v_0(s).  The
    eigendecomposition and those coefficients are computed once per
    instance, the decomposition shared with ``eigendecompose``, so each
    further time costs one spectral sum.  ``t`` is a single real time: an
    array of times raises ValueError, as does a time whose phases are not
    finite, which the message names.
    """
    t = _real(t, "t")
    sd, _, coefficients = J._spectral
    return _spectral_sum(sd, _times(sd, t), coefficients)[0]
