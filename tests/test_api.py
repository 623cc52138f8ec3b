"""The package's public names."""

import types

import numpy as np
import pytest

import pstchain


def test_all_lists_exactly_the_public_names_and_each_resolves():
    public = {
        name
        for name, value in vars(pstchain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(pstchain.__all__)) == len(pstchain.__all__)
    assert set(pstchain.__all__) == public
    namespace: dict = {}
    exec("from pstchain import *", namespace)  # fails on a name that does not resolve
    assert set(namespace) - {"__builtins__"} == public


def test_numerical_failures_share_one_base():
    for name in (
        "EigensolverError",
        "GridBudgetError",
        "PstUndecidableError",
        "ReconstructionError",
    ):
        assert issubclass(getattr(pstchain, name), pstchain.ChainError)


VALUE_TYPES = {
    "SpectrumRequest": lambda: pstchain.SpectrumRequest([0.0, 1.0, 2.0]),
    "JacobiMatrix": lambda: pstchain.krawtchouk_chain(2),
    "SpectralData": lambda: pstchain.SpectralData(
        eigenvalues=[-1.0, 1.0], weights=[0.5, 0.5]
    ),
    "AmplitudeSeries": lambda: pstchain.AmplitudeSeries(
        times=[0.0, 1.0], x0=[1.0, 0.5], xN=[0.0, 0.5j]
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_array_holding_values_compare_and_hash_by_identity(name):
    # each instance keeps its own cached results, so an equal-valued copy
    # is another value; numpy fields would make == ambiguous and hash fail
    value, copy = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert type(value).__name__ == name
    assert value == value
    assert not value == copy and value != copy
    assert hash(value) == hash(value)
    assert len({value, copy}) == 2


COMPLEX_INPUTS = {
    "SpectrumRequest": lambda: pstchain.SpectrumRequest(
        np.array([0.0, 1.0 + 0.5j, 2.0])
    ),
    "JacobiMatrix": lambda: pstchain.JacobiMatrix(
        diag=np.array([1.0 + 2.0j, 0.0]), offdiag=[1.0]
    ),
    "SpectralData": lambda: pstchain.SpectralData(
        eigenvalues=[-1.0, 1.0], weights=np.array([0.5 + 0.1j, 0.5])
    ),
}


@pytest.mark.parametrize("name", COMPLEX_INPUTS)
def test_complex_input_to_a_real_field_is_rejected(name):
    # it used to lose its imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        COMPLEX_INPUTS[name]()


HUGE = 10**400  # a Python integer beyond float range

OVERFLOWING_INPUTS = {
    "SpectrumRequest": lambda: pstchain.SpectrumRequest([-HUGE, HUGE]),
    "JacobiMatrix": lambda: pstchain.JacobiMatrix(diag=[0.0, 0.0], offdiag=[HUGE]),
    "SpectralData": lambda: pstchain.SpectralData(
        eigenvalues=[-1.0, 1.0], weights=[HUGE, 0.5]
    ),
    "gap_family_spectrum": lambda: pstchain.gap_family_spectrum(2, HUGE),
}


@pytest.mark.parametrize("name", OVERFLOWING_INPUTS)
def test_integer_beyond_float_range_is_rejected(name):
    # it used to raise OverflowError, which no caller expects of bad input
    with pytest.raises(ValueError, match="float range"):
        OVERFLOWING_INPUTS[name]()
