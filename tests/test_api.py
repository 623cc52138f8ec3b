"""The package's public names, and the unusable input each entry point refuses."""

import math
import types

import numpy as np
import pytest

import pstchain
from pstchain import cli


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


HUGE = 10**400  # a Python integer beyond float range

# The wire, spectral data and spectrum each row passes beside its unusable value.
WIRE = pstchain.krawtchouk_chain(3)
DATA = pstchain.eigendecompose(WIRE)
REQUEST = pstchain.surgery_spectrum(3)

# Each public scalar argument, as a call of the value under test.
TIMES = {
    "amplitude": lambda v: pstchain.amplitude(DATA, "first", v),
    "amplitude_series.t0": lambda v: pstchain.amplitude_series(DATA, v, 1.0, 4),
    "amplitude_series.t1": lambda v: pstchain.amplitude_series(DATA, -1.0, v, 4),
    "full_evolution_column": lambda v: pstchain.full_evolution_column(WIRE, v),
}
TOLERANCES = {
    "check_persymmetry": lambda v: pstchain.check_persymmetry(WIRE, v),
    "detect_pst": lambda v: pstchain.detect_pst(REQUEST, v),
}
INTEGERS = {
    "amplitude_series.steps": lambda v: pstchain.amplitude_series(DATA, 0.0, 1.0, v),
    "krawtchouk_chain": pstchain.krawtchouk_chain,
    "gap_family_spectrum.n": lambda v: pstchain.gap_family_spectrum(v, 1),
    "gap_family_spectrum": lambda v: pstchain.gap_family_spectrum(2, v),  # m
    "surgery_spectrum": pstchain.surgery_spectrum,
    "closed_form_krawtchouk_x0": lambda v: pstchain.closed_form_krawtchouk_x0(v, 1.0),
    "closed_form_surgery_x0": lambda v: pstchain.closed_form_surgery_x0(v, 1.0),
}
REALS = {**TIMES, **TOLERANCES}
# the argument that each scalar's error message names
ARGUMENT = {
    "amplitude": "t",
    "amplitude_series.t0": "t0",
    "amplitude_series.t1": "t1",
    "full_evolution_column": "t",
    "check_persymmetry": "tol",
    "detect_pst": "tol",
}
# the closed forms' t, a time or an array of times, read by the same rules
CLOSED_FORMS = {
    "closed_form_krawtchouk_x0.t": lambda v: pstchain.closed_form_krawtchouk_x0(3, v),
    "closed_form_surgery_x0.t": lambda v: pstchain.closed_form_surgery_x0(3, v),
}
NOT_INTEGERS = {"2.5": 2.5, "3.0": 3.0, "True": True, "1j": 1j, "array": np.array([3])}
# Each public array argument, as a call of the value under test.
ARRAYS = {
    "SpectrumRequest": pstchain.SpectrumRequest,
    "JacobiMatrix.diag": lambda v: pstchain.JacobiMatrix(diag=v, offdiag=[1.0]),
    "JacobiMatrix.offdiag": lambda v: pstchain.JacobiMatrix(diag=[0.0, 0.0], offdiag=v),
    "SpectralData.eigenvalues": lambda v: pstchain.SpectralData(eigenvalues=v, weights=[0.5, 0.5]),
    "SpectralData.weights": lambda v: pstchain.SpectralData(eigenvalues=[-1.0, 1.0], weights=v),
    "AmplitudeSeries.times": lambda v: pstchain.AmplitudeSeries(
        times=v, x0=[1.0, 0.5], xN=[0.0, 0.5]
    ),
    "AmplitudeSeries.x0": lambda v: pstchain.AmplitudeSeries(times=[0.0, 1.0], x0=v, xN=[0.0, 0.5]),
    "AmplitudeSeries.xN": lambda v: pstchain.AmplitudeSeries(times=[0.0, 1.0], x0=[1.0, 0.5], xN=v),
    "amplitude_values": lambda v: pstchain.amplitude_values(DATA, v),
}
# a bool in every form an array can hold one
BOOL_ARRAYS = {
    "bool-array": np.array([False, True]),
    "list": [-1.5, True, 2.5],
    "tuple-of-numpy-bool": (-1.5, np.True_, 2.5),
    "object-array": np.array([HUGE, True], dtype=object),
}


def _with(call, value):
    return lambda: call(value)


# Unusable input: value -> entry point -> (call, the ValueError's match).
# Warnings are errors in this suite, so no row may warn on its way there.
REJECTED = {
    # it used to lose its imaginary part with only a ComplexWarning, or
    # raise TypeError
    "complex": {
        "SpectrumRequest": (
            lambda: pstchain.SpectrumRequest(np.array([0.0, 1.0 + 0.5j, 2.0])),
            "complex",
        ),
        "JacobiMatrix": (
            lambda: pstchain.JacobiMatrix(diag=np.array([1.0 + 2.0j, 0.0]), offdiag=[1.0]),
            "complex",
        ),
        "SpectralData": (
            lambda: pstchain.SpectralData(
                eigenvalues=[-1.0, 1.0], weights=np.array([0.5 + 0.1j, 0.5])
            ),
            "complex",
        ),
        "AmplitudeSeries": (
            lambda: pstchain.AmplitudeSeries(times=[0.0, 1j], x0=[1.0, 0.5], xN=[0.0, 0.5]),
            "complex",
        ),
        "amplitude_values": (lambda: pstchain.amplitude_values(DATA, [0.0, 1j]), "complex"),
        # beside an integer beyond float range (an object array), in either
        # order: it used to raise TypeError, or "float range" when it came last
        **{
            f"{name}-{order}": (_with(call, values), "expected real values, got complex")
            for name, call in (
                ("SpectrumRequest", pstchain.SpectrumRequest),
                ("amplitude_values", lambda v: pstchain.amplitude_values(DATA, v)),
            )
            for order, values in (("first", [1j, HUGE]), ("last", [HUGE, 1j]))
        },
        **{
            name: (_with(call, 1j), "complex")
            for name, call in {**REALS, **CLOSED_FORMS}.items()
        },
    },
    # it used to raise OverflowError, which no caller expects of bad input
    "beyond-float-range": {
        "SpectrumRequest": (lambda: pstchain.SpectrumRequest([-HUGE, HUGE]), "float range"),
        "JacobiMatrix": (
            lambda: pstchain.JacobiMatrix(diag=[0.0, 0.0], offdiag=[HUGE]), "float range"
        ),
        "SpectralData": (
            lambda: pstchain.SpectralData(eigenvalues=[-1.0, 1.0], weights=[HUGE, 0.5]),
            "float range",
        ),
        "amplitude_values": (
            lambda: pstchain.amplitude_values(DATA, [0.0, HUGE]), "float range"
        ),
        **{
            name: (_with(call, HUGE), "float range")
            for name, call in {**REALS, **CLOSED_FORMS}.items()
        },
        # odd, so that the surgery rules see it; -HUGE fails each lower bound
        **{name: (_with(call, HUGE + 1), "float range") for name, call in INTEGERS.items()},
    },
    "array": {
        **{
            name: (
                _with(call, value),
                rf"^{ARGUMENT[name]} must be a single real number, got shape \(1,\)$",
            )
            for calls, value in ((TIMES, np.array([1.0])), (TOLERANCES, [1e-9]))
            for name, call in calls.items()
        },
        "JacobiMatrix": (
            lambda: pstchain.JacobiMatrix(diag=[[0.0, 0.0]], offdiag=[1.0]), "one-dimensional"
        ),
    },
    # numeric strings used to convert, and None to become NaN
    "not-a-number": {
        **{
            f"{name}-{kind}": (_with(call, value), f"expected numbers, got {kind}")
            for name, call in {**REALS, **CLOSED_FORMS}.items()
            for kind, value in (("str", "1.5"), ("NoneType", None))
        },
        "SpectrumRequest": (
            lambda: pstchain.SpectrumRequest(["-1.5", "-0.5", "0.5", "1.5"]), "got str"
        ),
        "SpectralData": (
            lambda: pstchain.SpectralData(eigenvalues=[-1.0, 1.0], weights=[None, 0.5]),
            "got NoneType",
        ),
        "amplitude_values": (
            lambda: pstchain.amplitude_values(DATA, ["0.0", "1.0"]), "got str"
        ),
    },
    # numpy reads a bool as 0 or 1, beside numbers too: [False, True] used to
    # be a spectrum, and a tolerance of True to be 1.0
    "bool": {
        **{
            f"{name}-{kind}": (_with(call, value), "^expected numbers, got bool$")
            for name, call in {**REALS, **CLOSED_FORMS}.items()
            for kind, value in (("True", True), ("numpy-True", np.True_))
        },
        **{
            f"{name}-{kind}": (_with(call, value), "^expected numbers, got bool$")
            for name, call in {**ARRAYS, **CLOSED_FORMS}.items()
            for kind, value in BOOL_ARRAYS.items()
        },
        # the closed forms' t may have any shape
        **{
            f"{name}-nested-list": (_with(call, [[0.5, True]]), "^expected numbers, got bool$")
            for name, call in CLOSED_FORMS.items()
        },
    },
    # 2.5 steps used to run 2, and m = 1.5 to give an even middle gap
    "not-an-integer": {
        f"{name}-{label}": (_with(call, value), "expected an integer")
        for name, call in INTEGERS.items()
        for label, value in NOT_INTEGERS.items()
    },
    # an infinite tolerance used to pass every wire as mirror-symmetric
    "non-finite": {
        f"{name}-{value}": (_with(call, value), match)
        for name, call, match in [
            ("check_persymmetry", TOLERANCES["check_persymmetry"], "positive and finite"),
            ("detect_pst", TOLERANCES["detect_pst"], "tol must lie"),
        ]
        for value in (math.nan, math.inf)
    },
    "out-of-range": {
        "check_persymmetry-0": (lambda: pstchain.check_persymmetry(WIRE, 0.0), "positive"),
        "detect_pst-1e-3": (lambda: pstchain.detect_pst(REQUEST, tol=1e-3), "tol"),
        "detect_pst-0": (lambda: pstchain.detect_pst(REQUEST, tol=0.0), "tol"),
        "krawtchouk_chain-0": (lambda: pstchain.krawtchouk_chain(0), "positive integer"),
        "krawtchouk_chain-41": (lambda: pstchain.krawtchouk_chain(41), "at most 40"),
        # below float range, named by the lower bound as the CLI's --N is
        "krawtchouk_chain-minus-huge": (
            lambda: pstchain.krawtchouk_chain(-HUGE), "positive integer"
        ),
        "gap_family_spectrum-n1": (lambda: pstchain.gap_family_spectrum(1, 1), "n must be"),
        "gap_family_spectrum-m0": (lambda: pstchain.gap_family_spectrum(3, 0), "m must be"),
        "closed_form_krawtchouk_x0-0": (
            lambda: pstchain.closed_form_krawtchouk_x0(0, 1.0), "positive integer"
        ),
        "closed_form_surgery_x0-4": (
            lambda: pstchain.closed_form_surgery_x0(4, 1.0), "odd integer"
        ),
        "closed_form_surgery_x0-1": (
            lambda: pstchain.closed_form_surgery_x0(1, 1.0), "odd integer"
        ),
    },
    # values whose spread overflows used to warn, then fail late or not at all
    "span-beyond-float-range": {
        "SpectrumRequest": (lambda: pstchain.SpectrumRequest([-1e308, 1e308]), "span"),
        "SpectralData": (
            lambda: pstchain.SpectralData(eigenvalues=[-1e308, 1e308], weights=[0.5, 0.5]),
            "span",
        ),
        "JacobiMatrix": (
            lambda: pstchain.JacobiMatrix(diag=[-1e308, 1e308], offdiag=[1.0]), "span"
        ),
        "eigendecompose": (
            lambda: pstchain.eigendecompose(
                pstchain.JacobiMatrix(diag=[0.0, 0.0], offdiag=[1e308])
            ),
            "span",
        ),
    },
    "malformed": {
        "SpectrumRequest-nan": (lambda: pstchain.SpectrumRequest([0.0, math.nan]), "finite"),
        "JacobiMatrix-inf": (
            lambda: pstchain.JacobiMatrix(diag=[0.0, 0.0], offdiag=[math.inf]), "finite"
        ),
        "JacobiMatrix-nan": (
            lambda: pstchain.JacobiMatrix(diag=[math.nan, 0.0], offdiag=[1.0]), "finite"
        ),
        "SpectralData-length": (
            lambda: pstchain.SpectralData(eigenvalues=[-1.0, 1.0], weights=[1.0]),
            "equal length",
        ),
        "SpectralData-nan": (
            lambda: pstchain.SpectralData(eigenvalues=[-1.0, 1.0], weights=[math.nan, 0.5]),
            "weights must be finite",
        ),
        "AmplitudeSeries-length": (
            lambda: pstchain.AmplitudeSeries(times=[0.0], x0=[1.0], xN=[0.0]),
            "share a length",
        ),
        "AmplitudeSeries-order": (
            lambda: pstchain.AmplitudeSeries(times=[1.0, 0.0], x0=[0.5, 0.5], xN=[0.0, 0.0]),
            "strictly increasing",
        ),
        "count_sign_changes": (
            lambda: pstchain.count_sign_changes([0.0, 1.0]), "numpy.polynomial series"
        ),
        "count_sign_changes-array": (
            lambda: pstchain.count_sign_changes(np.array([0.0, 1.0])),
            "numpy.polynomial series",
        ),
        "cli-document": (
            lambda: cli._spectral_data_from_document({"weights": [0.5, 0.5]}),
            "spectrum/weights or matrix",
        ),
    },
}


def check_rejected(value, name):
    call, match = REJECTED[value][name]
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("name", REJECTED["complex"])
def test_complex_input_to_a_real_field_is_rejected(name):
    check_rejected("complex", name)


@pytest.mark.parametrize("name", REJECTED["beyond-float-range"])
def test_integer_beyond_float_range_is_rejected(name):
    check_rejected("beyond-float-range", name)


@pytest.mark.parametrize(
    "value, name",
    [
        pytest.param(value, name, id=f"{value}-{name}")
        for value, rows in REJECTED.items()
        if value not in ("complex", "beyond-float-range")
        for name in rows
    ],
)
def test_unusable_input_is_rejected(value, name):
    check_rejected(value, name)
