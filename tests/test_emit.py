"""Output contract of the JSON and CSV emitters.

``dumps`` writes the layout of ``json.dumps(indent=2)`` with every float at
12 significant digits; ``csv_text`` writes one row per sample.  The random
structures below hold no floats, so the standard module is their oracle.
"""

import json
import math
import random

import numpy as np
import pytest

from pstchain.emit import csv_text, dumps, fmt


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice('ab "\\\n\t\u00e9\u20ac') for _ in range(rng.randrange(6)))


def random_structure(rng: random.Random, depth: int = 0):
    kinds = ["str", "int", "bool", "none"]
    if depth < 4:
        kinds += ["dict", "list"] * 2
    kind = rng.choice(kinds)
    if kind == "str":
        return random_text(rng)
    if kind == "int":
        return rng.randint(-(10**20), 10**20)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    size = rng.randrange(4)
    if kind == "dict":
        return {random_text(rng): random_structure(rng, depth + 1) for _ in range(size)}
    return [random_structure(rng, depth + 1) for _ in range(size)]


@pytest.mark.parametrize("seed", range(5))
def test_float_free_layout_matches_json_module(seed):
    rng = random.Random(seed)
    for _ in range(600):
        value = random_structure(rng)
        assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "0"),
        (0.0, "0"),
        (1 / 3, "0.333333333333"),
        (1e300, "1e+300"),
        (-2.5e-7, "-2.5e-07"),
        (np.float64(0.1), "0.1"),
        (np.float32(0.5), "0.5"),
        (np.int64(-7), "-7"),
        (np.uint8(200), "200"),
        (True, "true"),
        (None, "null"),
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        (np.array([]), "[]"),
    ],
)
def test_scalars_and_empty_containers(value, text):
    assert dumps(value) == text + "\n"


def test_fmt_is_the_float_format():
    for x in (1 / 3, -0.0, 1e300, math.pi * 1e-20, 123456789012345.0):
        assert dumps([x]) == f"[\n  {fmt(x)}\n]\n"
    assert fmt(-0.0) == "0"
    assert fmt(123456789012345.0) == "1.23456789012e+14"


def test_nested_arrays_and_tuples():
    value = {"a": np.array([[1.0, -0.0], [0.25, 2.0]]), "b": (1, 2.5, "z")}
    expected = json.dumps(
        {"a": [[1, 0], [0.25, 2]], "b": [1, 2.5, "z"]}, indent=2
    )
    assert dumps(value) == expected + "\n"


def test_keys_keep_insertion_order():
    assert dumps({"b": 1, "a": 2}) == '{\n  "b": 1,\n  "a": 2\n}\n'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": [bad]})
    with pytest.raises(ValueError, match="non-finite"):
        csv_text(["x"], [np.array([bad])])


@pytest.mark.parametrize("bad", [{1, 2}, 1 + 2j, np.bool_(True), np.array([1j])])
def test_unsupported_types_raise(bad):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": bad})


class TestCsv:
    def test_rows(self):
        text = csv_text(
            ["t", "v"], [np.array([0.0, 0.5]), np.array([-0.0, 1 / 3])]
        )
        assert text == "t,v\n0,0\n0.5,0.333333333333\n"

    def test_no_rows(self):
        assert csv_text(["t", "v"], [np.array([]), np.array([])]) == "t,v\n"

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError, match="header"):
            csv_text(["t"], [np.zeros(2), np.zeros(2)])

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            csv_text(["t", "v"], [np.zeros(2), np.zeros(3)])
