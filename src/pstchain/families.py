"""Named polynomial families: equidistant chains, gap and surgery spectra, closed forms.

The equidistant (binomial-weight) chain has couplings
b_k = sqrt((k+1)(N-k))/2, eigenvalues s - N/2 and boundary amplitude
cos^N(t/2).  Gap-family spectra are symmetric with unit gaps except an odd
middle gap 2m+1; their boundary amplitude is a short Chebyshev series in
cos(t/2), a ``numpy.polynomial.Chebyshev``, which is where the sign-change
counting lives.  The count samples the series on an exactly antisymmetric
grid of 8194 points, 8192 interior ones and the endpoints y = +-1, by one
of two paths.  An odd series of degree up to 127, such as
``amplitude_as_chebyshev`` returns, is one matrix product with a table of
T_1, T_3, ..., T_127 at the 4097 positive samples, and is counted on that
half alone; every other series is numpy's ``chebval`` on the whole grid.
The grid and the table's abscissae are built once, at import, and the
2 MiB table on the first count; all are read-only arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .inverse import SpectrumRequest
from .jacobi import (
    _NOISE_CLEARANCE,
    MAX_SITES,
    JacobiMatrix,
    SpectralData,
    _integer,
    _readonly,
)

# Eigenvalues must sit on odd half-integers this tightly for the cosine
# polynomial form; constructed spectra are exact, so only parse noise passes.
_HALF_INTEGER_ATOL = 1e-9

_WEIGHT_SYMMETRY_ATOL = 1e-8

# The 4097 positive samples of the sign-change grid, y = (2k+1)/8193 for
# k = 0..4095 and y = 1, the abscissa x = T_2(y) of the odd-part table's
# recurrence, 2x and V_1(x) = 2x - 1, and the whole grid, ascending and
# exactly antisymmetric.  The wide gap families have their earliest zero
# beyond 8191/8193, so only the sample at 1 shows it.
_Y = _readonly(np.append(np.arange(1.0, 8193.0, 2.0) / 8193.0, 1.0))
_X = _readonly(2.0 * _Y * _Y - 1.0)
_TWO_X = _readonly(2.0 * _X)
_V1 = _readonly(2.0 * _X - 1.0)
_GRID = _readonly(np.concatenate([-_Y[::-1], _Y]))

# Odd series with at most this many terms, degree up to 127, take the table.
_TABLE_TERMS = 64


def krawtchouk_chain(N: int) -> JacobiMatrix:
    """Zero-diagonal chain with couplings sqrt((k+1)(N-k))/2 on N+1 sites, N an int."""
    N = _integer(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N + 1 > MAX_SITES:
        raise ValueError(f"N must be at most {MAX_SITES - 1}")
    k = np.arange(N)
    off = np.sqrt((k + 1.0) * (N - k)) / 2.0
    return JacobiMatrix(diag=np.zeros(N + 1), offdiag=off)


def gap_family_spectrum(n: int, m: int) -> SpectrumRequest:
    """Symmetric size-2n spectrum with unit gaps except a middle gap 2m+1.

    The positive half is (2m+2k+1)/2 for k = 0..n-1 and the negative half
    is its mirror image; n and m are ints, so the middle gap is odd.
    """
    n, m = _integer(n), _integer(m)
    if n < 2:
        raise ValueError("n must be an integer >= 2")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if 2 * n > MAX_SITES:
        raise ValueError(f"spectrum size must be at most {MAX_SITES}, got {2 * n}")
    upper = (2.0 * m + 2.0 * np.arange(n) + 1.0) / 2.0
    return SpectrumRequest(np.concatenate([-upper[::-1], upper]))


def surgery_spectrum(N: int) -> SpectrumRequest:
    """Unit-gap symmetric spectrum of size N+3 with the innermost pair removed.

    Returns {+-(2k+1)/2 : k = 1..(N+1)/2}, i.e. N+1 points: the gap family
    with n = (N+1)/2 and m = 1.  N must be an odd int, at least 3.
    """
    N = _integer(N)
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    return gap_family_spectrum((N + 1) // 2, 1)


def closed_form_krawtchouk_x0(N: int, t):
    """Boundary-return amplitude cos^N(t/2) of the equidistant chain, N an int."""
    N = _integer(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    return np.cos(0.5 * _readonly(np.ravel(t)).reshape(np.shape(t))) ** N


def closed_form_surgery_x0(N: int, t):
    """Return amplitude after removing the innermost eigenvalue pair.

    Equals (((N+1)/2 + 1) cos t - (N+1)/2) cos^N(t/2) for odd ints N >= 3.
    """
    N = _integer(N)
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    half = (N + 1) // 2
    t = _readonly(np.ravel(t)).reshape(np.shape(t))
    return ((half + 1.0) * np.cos(t) - half) * np.cos(0.5 * t) ** N


def amplitude_as_chebyshev(sd: SpectralData) -> np.polynomial.Chebyshev:
    """Cosine-polynomial form of x_0 for symmetric half-integer spectra.

    When every eigenvalue is an odd half-integer +-(2j+1)/2 and the weights
    are mirror symmetric, x_0(t) = sum 2 w T_{2j+1}(cos(t/2)); the returned
    series has coefficient A_{2j+1} = 2 w(lambda) for each positive
    eigenvalue and 0 at every other degree.  Any other spectral data raises
    ValueError.
    """
    lam = sd.eigenvalues
    w = sd.weights
    if np.abs(lam + lam[::-1]).max() > _HALF_INTEGER_ATOL:
        raise ValueError("spectrum is not symmetric about 0")
    if lam.size % 2:
        raise ValueError(
            "an odd-size spectrum contains 0, which is not an odd half-integer"
        )
    if np.abs(w - w[::-1]).max() > _WEIGHT_SYMMETRY_ATOL:
        raise ValueError("weights are not mirror symmetric")
    positive = lam[lam.size // 2 :]
    j = np.rint(positive - 0.5)
    if np.abs(positive - (j + 0.5)).max() > _HALF_INTEGER_ATOL or j.min() < 0:
        raise ValueError("eigenvalues do not sit on odd half-integers")
    coef = np.zeros(2 * int(j.max()) + 2)
    coef[2 * j.astype(int) + 1] = 2.0 * w[lam.size // 2 :]
    return np.polynomial.Chebyshev(coef)


@functools.cache
def _odd_table() -> np.ndarray:
    """Row i holds T_2i+1(y) = y V_i(x) at the 4097 positive samples, i < 64.

    Built on the first call by the third-kind recurrence V_i+1 = 2x V_i -
    V_i-1, which carries over to the rows; 2 MiB, read-only, shared.
    """
    table = np.empty((_TABLE_TERMS, _Y.size))
    table[0] = _Y
    np.multiply(_Y, _V1, out=table[1])
    for i in range(2, _TABLE_TERMS):
        np.multiply(_TWO_X, table[i - 1], out=table[i])
        table[i] -= table[i - 2]
    table.flags.writeable = False
    return table


def count_sign_changes(c: np.polynomial.Chebyshev) -> int:
    """Sign changes of the series over 8194 samples of [-1, 1].

    The samples are +-(2k+1)/8193 for k = 0..4095 and +-1, exactly
    antisymmetric; the grid is built once, at import.  The endpoints, where
    the series is sum_j A_j (+-1)^j, show a zero between the outermost
    interior sample and +-1, such as the earliest ESE zero of a wide gap
    family, near t = 0.  An odd series of degree up to 127, such as
    ``amplitude_as_chebyshev`` returns, is one product with a table of
    T_1, T_3, ..., T_127 at the positive samples, built on the first call;
    it is exactly antisymmetric on the grid and is counted on that half.
    Every other series is evaluated by numpy's ``chebval`` on the whole
    grid.  A series on another domain or window, or in another basis, is
    converted first, so the same function is sampled.

    Samples at or below the cancellation floor, the noise clearance times
    the sum of |A_j| in ascending degree, are dropped, since round-off
    decides their sign; the count covers the samples above it.  Zeros of
    even multiplicity, or closer together than the grid step, do not show.
    A coefficient that is not finite, or a sum of |A_j| that overflows,
    raises ValueError, as does an object that is not a numpy series.
    """
    if not isinstance(c, np.polynomial._polybase.ABCPolyBase):
        raise ValueError(f"expected a numpy.polynomial series, not {type(c).__name__}")
    floor = _NOISE_CLEARANCE * sum(abs(a) for a in c.coef.tolist())
    chebyshev = np.polynomial.Chebyshev
    if isinstance(c, chebyshev) and (c.domain == c.window).all():
        coef = c.coef
    else:
        coef = c.convert(kind=chebyshev).coef
    if not (np.isfinite(floor) and np.isfinite(coef).all()):
        raise ValueError("series coefficients and their sum must be finite")
    odd = coef[1::2]
    on_table = odd.size <= _TABLE_TERMS and not coef[::2].any()
    if on_table:
        values = odd @ _odd_table()[: odd.size]
    else:
        values = np.polynomial.chebyshev.chebval(_GRID, coef)
    negative = np.signbit(values[np.abs(values) > floor])
    changes = int(np.count_nonzero(negative[1:] != negative[:-1]))
    if not on_table or not negative.size:
        return changes
    # an odd series is exactly antisymmetric on the grid, so the samples kept
    # on the negative half mirror these with opposite signs, and the pair
    # nearest 0 adds one change
    return 2 * changes + 1
