"""Named polynomial families: equidistant chains, gap and surgery spectra, closed forms.

The equidistant (binomial-weight) chain has couplings
b_k = sqrt((k+1)(N-k))/2, eigenvalues s - N/2 and boundary amplitude
cos^N(t/2).  Gap-family spectra are symmetric with unit gaps except an odd
middle gap 2m+1; their boundary amplitude is a short Chebyshev series in
cos(t/2), a ``numpy.polynomial.Chebyshev``, which is where the sign-change
counting lives.
"""

from __future__ import annotations

import numpy as np

from .inverse import SpectrumRequest
from .jacobi import _NOISE_CLEARANCE, MAX_SITES, JacobiMatrix, SpectralData

# Eigenvalues must sit on odd half-integers this tightly for the cosine
# polynomial form; constructed spectra are exact, so only parse noise passes.
_HALF_INTEGER_ATOL = 1e-9

_WEIGHT_SYMMETRY_ATOL = 1e-8


def krawtchouk_chain(N: int) -> JacobiMatrix:
    """Zero-diagonal chain with couplings sqrt((k+1)(N-k))/2 on N+1 sites."""
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
    is its mirror image.
    """
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
    with n = (N+1)/2 and m = 1.  N must be odd and at least 3.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    return gap_family_spectrum((N + 1) // 2, 1)


def closed_form_krawtchouk_x0(N: int, t):
    """Boundary-return amplitude cos^N(t/2) of the equidistant chain."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return np.cos(0.5 * np.asarray(t, dtype=float)) ** N


def closed_form_surgery_x0(N: int, t):
    """Return amplitude after removing the innermost eigenvalue pair.

    Equals (((N+1)/2 + 1) cos t - (N+1)/2) cos^N(t/2) for odd N >= 3.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    half = (N + 1) // 2
    t = np.asarray(t, dtype=float)
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


def count_sign_changes(c: np.polynomial.Chebyshev) -> int:
    """Sign changes of the series over 8192 uniform samples inside (-1, 1).

    Endpoints are excluded exactly.  Samples at or below the cancellation
    floor, the noise clearance times the sum of |A_j| in ascending degree,
    are dropped, since round-off decides their sign; the count covers the
    samples above it.  Zeros of even multiplicity, or closer together than
    the grid step, do not show.
    """
    grid = np.linspace(-1.0, 1.0, 8194)[1:-1]
    values = c(grid)
    floor = _NOISE_CLEARANCE * sum(abs(a) for a in c.coef.tolist())
    signs = np.sign(values[np.abs(values) > floor])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
