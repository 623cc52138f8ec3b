"""Tridiagonal quantum wires with perfect state transfer.

Construct the unique mirror-symmetric wire realizing a prescribed simple
spectrum, evaluate its boundary transfer amplitudes exactly from spectral
data, certify the earliest transfer time, and locate times strictly before
it at which the boundary-return amplitude vanishes (early state exclusion).
"""

from .errors import (
    ChainError,
    EigensolverError,
    GridBudgetError,
    PstUndecidableError,
    ReconstructionError,
)
from .jacobi import (
    MAX_SITES,
    AmplitudeSeries,
    JacobiMatrix,
    PersymmetryReport,
    SpectralData,
    amplitude,
    amplitude_series,
    amplitude_values,
    check_persymmetry,
    eigendecompose,
    full_evolution_column,
)
from .inverse import (
    SpectrumRequest,
    persymmetric_weights,
    reconstruct_jacobi,
)
from .dynamics import (
    EseReport,
    EseZero,
    PstCertificate,
    detect_ese,
    detect_pst,
)
from .families import (
    amplitude_as_chebyshev,
    closed_form_krawtchouk_x0,
    closed_form_surgery_x0,
    count_sign_changes,
    gap_family_spectrum,
    krawtchouk_chain,
    surgery_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_SITES",
    "AmplitudeSeries",
    "ChainError",
    "EigensolverError",
    "EseReport",
    "EseZero",
    "GridBudgetError",
    "JacobiMatrix",
    "PersymmetryReport",
    "PstCertificate",
    "PstUndecidableError",
    "ReconstructionError",
    "SpectralData",
    "SpectrumRequest",
    "amplitude",
    "amplitude_as_chebyshev",
    "amplitude_series",
    "amplitude_values",
    "check_persymmetry",
    "closed_form_krawtchouk_x0",
    "closed_form_surgery_x0",
    "count_sign_changes",
    "detect_ese",
    "detect_pst",
    "eigendecompose",
    "full_evolution_column",
    "gap_family_spectrum",
    "krawtchouk_chain",
    "persymmetric_weights",
    "reconstruct_jacobi",
    "surgery_spectrum",
]
