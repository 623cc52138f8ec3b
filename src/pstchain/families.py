"""Named polynomial families: equidistant chains, gap and surgery spectra, closed forms.

The equidistant (binomial-weight) chain has couplings
b_k = sqrt((k+1)(N-k))/2, eigenvalues s - N/2 and boundary amplitude
cos^N(t/2).  Gap-family spectra are symmetric with unit gaps except an odd
middle gap 2m+1; their boundary amplitude is a short cosine polynomial in
cos(t/2), which is where the sign-change counting lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotChebyshevRepresentableError
from .inverse import SpectrumRequest
from .jacobi import _NOISE_CLEARANCE, MAX_SITES, JacobiMatrix, SpectralData

# Eigenvalues must sit on odd half-integers this tightly for the cosine
# polynomial form; constructed spectra are exact, so only parse noise passes.
_HALF_INTEGER_ATOL = 1e-9

_WEIGHT_SYMMETRY_ATOL = 1e-8


@dataclass(frozen=True)
class ChebyshevCombination:
    """Sparse combination sum_j A_j T_j of Chebyshev polynomials.

    The lowest-degree coefficient must be nonzero; it controls the
    guaranteed number of sign changes on (-1, 1).
    """

    coefficients: dict[int, float]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        coeffs: dict[int, float] = {}
        for degree in sorted(self.coefficients):
            value = float(self.coefficients[degree])
            if not isinstance(degree, (int, np.integer)) or degree < 0:
                raise ValueError("degrees must be nonnegative integers")
            if not np.isfinite(value):
                raise ValueError("coefficients must be finite")
            coeffs[int(degree)] = value
        if coeffs[min(coeffs)] == 0.0:
            raise ValueError("the lowest-degree coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def lowest_degree(self) -> int:
        return min(self.coefficients)

    @property
    def highest_degree(self) -> int:
        return max(self.coefficients)

    def evaluate(self, x):
        """Value of the combination at x (scalar or array)."""
        dense = np.zeros(self.highest_degree + 1)
        dense[list(self.coefficients)] = list(self.coefficients.values())
        return np.polynomial.chebyshev.chebval(np.asarray(x, dtype=float), dense)


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
    upper = (2.0 * m + 2.0 * np.arange(n) + 1.0) / 2.0
    return SpectrumRequest(np.concatenate([-upper[::-1], upper]))


def surgery_spectrum(N: int) -> SpectrumRequest:
    """Unit-gap symmetric spectrum of size N+3 with the innermost pair removed.

    Returns {+-(2k+1)/2 : k = 1..(N+1)/2}, i.e. N+1 points.  N must be odd
    and at least 3.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    upper = [(2 * k + 1) / 2 for k in range(1, (N + 1) // 2 + 1)]
    return SpectrumRequest([-v for v in reversed(upper)] + upper)


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


def amplitude_as_chebyshev(sd: SpectralData) -> ChebyshevCombination:
    """Cosine-polynomial form of x_0 for symmetric half-integer spectra.

    When every eigenvalue is an odd half-integer +-(2j+1)/2 and the weights
    are mirror symmetric, x_0(t) = sum 2 w T_{2j+1}(cos(t/2)); the returned
    coefficients are A_{2j+1} = 2 w(lambda) over the positive eigenvalues.
    """
    lam = sd.eigenvalues
    w = sd.weights
    if np.abs(lam + lam[::-1]).max() > _HALF_INTEGER_ATOL:
        raise NotChebyshevRepresentableError("spectrum is not symmetric about 0")
    if lam.size % 2:
        raise NotChebyshevRepresentableError(
            "an odd-size spectrum contains 0, which is not an odd half-integer"
        )
    if np.abs(w - w[::-1]).max() > _WEIGHT_SYMMETRY_ATOL:
        raise NotChebyshevRepresentableError("weights are not mirror symmetric")
    positive = lam[lam.size // 2 :]
    j = np.rint(positive - 0.5)
    if np.abs(positive - (j + 0.5)).max() > _HALF_INTEGER_ATOL or j.min() < 0:
        raise NotChebyshevRepresentableError(
            "eigenvalues do not sit on odd half-integers"
        )
    coeffs = {
        int(2 * jj + 1): 2.0 * float(ww)
        for jj, ww in zip(j, w[lam.size // 2 :])
    }
    return ChebyshevCombination(coeffs)


def count_sign_changes(c: ChebyshevCombination, samples: int = 8192) -> int:
    """Sign changes of the combination over a uniform grid inside (-1, 1).

    Endpoints are excluded exactly.  Samples at or below the cancellation
    floor, the noise clearance times the sum of |A_j|, are dropped, since
    round-off decides their sign; the count covers the samples above it.
    Zeros of even multiplicity, or closer together than the grid step, do
    not show.
    """
    if samples < 64:
        raise ValueError("need at least 64 samples")
    grid = np.linspace(-1.0, 1.0, samples + 2)[1:-1]
    values = c.evaluate(grid)
    floor = _NOISE_CLEARANCE * sum(abs(a) for a in c.coefficients.values())
    signs = np.sign(values[np.abs(values) > floor])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
