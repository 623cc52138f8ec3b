"""Spectrum to wire: mirror-symmetric weights and the unique reconstruction.

Valid spectral data determine exactly one wire.  A persymmetric wire is
determined by its spectrum alone: its weights (``persymmetric_weights``)
are proportional to (-1)^(N+s) / prod_{k!=s}(l_s - l_k), positive for every
s as the alternating sign cancels that of the product over an increasing
sequence.  Reconstruction is a discrete Stieltjes orthogonalization against
the measure sum_s w_s delta_{l_s}: Lanczos on diag(l) from the vector
(sqrt(w_0), ..., sqrt(w_N)), each step projecting onto the whole basis
twice (classical Gram-Schmidt) and reading a_k from the first pass.  It
runs on (l_s - c) 2^-e in the frame of ``jacobi._frame`` and maps the wire
back: no scale under- or overflows, no shift costs digits, and its
tolerances are plain constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ReconstructionError
from .jacobi import JacobiMatrix, SpectralData, _frame, _spectrum

# Lanczos residual norms (in the unit frame) at or below this mean the
# measure has effectively fewer support points than requested.
_BREAKDOWN_RTOL = 1e-12

# Offdiagonal asymmetry (in the unit frame) below this is round-off on mirror
# weights (at most 26 eps measured) and is averaged away; larger is the wire's
# own (at least 0.025 measured on seeded Dirichlet(1) weights).
_SYMMETRIZE_LIMIT = 1e-6


@dataclass(frozen=True, eq=False)
class SpectrumRequest:
    """A prescribed simple spectrum for the inverse problem.

    Its persymmetric spectral data is computed once per instance, on the
    first ``persymmetric_weights`` call, and kept on the instance.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _spectrum(self.eigenvalues))

    @cached_property
    def _persymmetric(self) -> SpectralData:
        # The instance and its array are immutable, so the weights serve
        # every later query; the cache lives and dies with the instance.
        # The products prod_{k!=s}(l_s - l_k) span a roughly factorial
        # dynamic range, so they are accumulated in log space and
        # exponentiated only after normalization.
        lam = self.eigenvalues
        diffs = lam[:, None] - lam[None, :]
        diffs.flat[:: lam.size + 1] = 1.0
        logw = -np.log(np.abs(diffs)).sum(axis=1)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        return SpectralData(eigenvalues=lam, weights=w)


def persymmetric_weights(req: SpectrumRequest) -> SpectralData:
    """Weights of the unique persymmetric wire with the requested spectrum.

    The weights are computed once per request and kept on it, so later
    calls on the same request, ``detect_pst``'s among them, return the same
    object.  Weights lost to underflow raise ValueError on every call.
    """
    return req._persymmetric


def reconstruct_jacobi(sd: SpectralData) -> JacobiMatrix:
    """The Jacobi matrix whose spectral data equals ``sd``.

    Lanczos (two Gram-Schmidt passes a step, a_k from the first) recovers
    the wire of any valid spectral data.  That of mirror-symmetric weights
    (``persymmetric_weights``) is persymmetric, so coupling asymmetry below
    ``1e-6`` of the half-span (rounded up to a power of two) is averaged
    away; larger is kept.  A measure with too few effective support points
    raises :class:`ReconstructionError`.
    """
    c, e = _frame(sd.eigenvalues)
    lam = np.ldexp(sd.eigenvalues - c, -e)
    n = lam.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    basis = np.zeros((n, n))
    q = np.sqrt(sd.weights)
    q /= math.sqrt(q @ q)
    for k in range(n):
        basis[:, k] = q
        span = basis[:, : k + 1]
        u = lam * q
        h = span.T @ u
        diag[k] = h[k]
        u -= span @ h
        u -= span @ (span.T @ u)
        if k < n - 1:
            norm = math.sqrt(u @ u)
            if not norm > _BREAKDOWN_RTOL:
                raise ReconstructionError(
                    f"orthogonalization broke down at step {k}: residual norm "
                    f"{norm:.3e} of the half-span"
                )
            off[k] = norm
            q = u / norm
    if np.abs(off - off[::-1]).max() < _SYMMETRIZE_LIMIT:
        off = 0.5 * (off + off[::-1])
    return JacobiMatrix(diag=c + np.ldexp(diag, e), offdiag=np.ldexp(off, e))
