"""The package's public names."""

import types

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
