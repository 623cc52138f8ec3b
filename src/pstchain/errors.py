"""Exception types for numerical failures.

Every class here reports a computation that could not reach an answer on
valid input.  Unusable input, such as a malformed spectrum or spectral data
with no cosine-polynomial form, raises ``ValueError`` instead, by one rule:
integer parameters must be integers, not bools or floats; times and
tolerances are single real numbers; arrays, the closed forms' times too,
are read by ``jacobi._readonly``.  Complex values, integers beyond float
range, strings, None and bools are refused in each.
"""

from __future__ import annotations


class ChainError(Exception):
    """Base class for numerical failures raised by this package."""


class EigensolverError(ChainError):
    """Eigendecomposition failed.  ``index`` names the offending eigenvalue."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ReconstructionError(ChainError):
    """Lanczos broke down: the measure has too few effective support points."""


class PstUndecidableError(ChainError):
    """The transfer-time search hit its odd-integer budget before any
    candidate could be tested, so the spectrum is undecidable at the
    requested tolerance."""


class GridBudgetError(ChainError):
    """A uniform time grid needs more points than the work budget allows, so
    it is refused before any of it is allocated."""
