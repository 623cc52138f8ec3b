"""Exception types for numerical failures."""

from __future__ import annotations


class ChainError(Exception):
    """Base class for numerical failures raised by this package."""


class EigensolverError(ChainError):
    """Eigendecomposition failed.  ``index`` names the offending eigenvalue."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ReconstructionError(ChainError):
    """Inverse reconstruction broke down.  ``step`` names the recursion step."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class PstUndecidableError(ChainError):
    """The transfer-time search hit its odd-integer budget before any
    candidate could be tested, so the spectrum is undecidable at the
    requested tolerance."""


class NotChebyshevRepresentableError(ChainError):
    """Spectral data is not symmetric with odd-half-integer eigenvalues, so
    the boundary amplitude has no cosine-polynomial form."""
