"""Output contract of the JSON, CSV and SVG emitters.

``dumps`` writes the layout of ``json.dumps(indent=2)`` with every float at
12 significant digits; ``csv_text`` writes one row per sample.  The random
structures below hold no floats, so the standard module is their oracle.
Float arrays must read exactly as their values do one at a time: the
per-value formats are kept inline below as the reference.
"""

import json
import math
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pstchain.emit import (
    _Y_MAX,
    _points_template,
    _polyline,
    _px,
    _py,
    amplitude_svg,
    csv_text,
    dumps,
    fmt,
)


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


@pytest.mark.parametrize(
    "bad", [{1, 2}, 1 + 2j, np.bool_(True), np.array([1j]), np.array([True, False])]
)
def test_unsupported_types_raise(bad):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": bad})


def awkward_floats(n: int = 100_000, seed: int = 0) -> np.ndarray:
    """Finite doubles that stress 12-digit formatting, in seeded order."""
    rng = np.random.default_rng(seed)
    share = n // 6
    bits = rng.integers(0, 2**64, size=2 * share, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)][:share]  # any bit pattern
    signs = rng.choice([-1.0, 1.0], size=share)
    subnormal = signs * rng.integers(1, 2**52, size=share, dtype=np.uint64).view(np.float64)
    spread = signs * 10.0 ** rng.uniform(-320, 308, size=share)
    ties = rng.integers(10**11, 10**12, size=share) + 0.5  # exact 12-digit halves
    near_ties = ties * 10.0 ** rng.integers(-20, 20, size=share)
    specials = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, 1 / 3, 0.5, 123456789012.5, 999999999999.5])
    values = np.concatenate([bits, subnormal, spread, ties, near_ties, specials])
    values = np.concatenate([values, rng.uniform(-1, 1, size=n - values.size)])
    rng.shuffle(values)
    return values


def test_array_text_is_fmt_of_each_value():
    values = awkward_floats()
    texts = [fmt(x) for x in values]
    assert texts == [format(float(x) + 0.0, ".12g") for x in values]
    assert dumps(values) == "[\n" + ",\n".join("  " + text for text in texts) + "\n]\n"
    rows = "".join(f"{a},{b}\n" for a, b in zip(texts, reversed(texts)))
    assert csv_text(["a", "b"], [values, values[::-1]]) == "a,b\n" + rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "values", [[], [-0.0], [0.0], [1 / 3], [0.5, -0.0, 1 / 3, -2.5e-7, 1e30, 7.0, 0.1]]
)
def test_array_reads_as_its_list(values, dtype):
    array = np.array(values, dtype=dtype)
    assert dumps(array) == dumps(array.tolist())
    nested = {"a": [array, {"b": array}], "c": array}
    assert dumps(nested) == dumps(
        {"a": [array.tolist(), {"b": array.tolist()}], "c": array.tolist()}
    )


@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_anywhere_in_an_array_raises(bad, where):
    values = np.linspace(-1.0, 1.0, 7)
    values[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": values})
    with pytest.raises(ValueError, match="non-finite"):
        csv_text(["t", "x"], [np.zeros(7), values])
    times = np.linspace(0.0, 1.0, 7)
    with pytest.raises(ValueError, match="non-finite"):
        _points_template(values, -1.0, 1.0)
    if bad != math.inf:  # an amplitude of +inf is clipped to the top of the plot
        with pytest.raises(ValueError, match="non-finite"):
            _polyline(_points_template(times, 0.0, 1.0), values, "c", "s")
        with pytest.raises(ValueError, match="non-finite"):
            amplitude_svg(times, values, np.zeros(7), [], None)


def zero_column(rng: np.random.Generator, kind: str, rows: int) -> np.ndarray:
    """A column of ``rows`` cells that is all zero, or all zero but one cell."""
    if kind == "zero":
        return np.zeros(rows)
    if kind == "minus-zero":
        return np.full(rows, -0.0)
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0], size=rows)
    column = rng.choice([0.0, -0.0], size=rows)  # "one-cell": zero but for one
    column[rng.integers(rows)] = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-320, 308)
    return column


ZERO_KINDS = ["zero", "minus-zero", "signed-zeros", "one-cell"]


def reference_csv(header, columns) -> str:
    """CSV formatted one cell at a time."""
    rows = "".join(",".join(fmt(x) for x in row) + "\n" for row in zip(*columns))
    return ",".join(header) + "\n" + rows


@pytest.mark.parametrize("seed", range(8))
def test_zero_columns_read_as_fmt_of_each_cell(seed):
    # all-zero columns are written without formatting; each cell must still
    # read as its fmt, beside columns of any other values
    rng = np.random.default_rng(seed)
    values = awkward_floats(20_000, seed=seed)
    for rows in (1, 2, 7, 2001):
        kinds = rng.choice(ZERO_KINDS + ["values"], size=int(rng.integers(1, 9)))
        columns = [
            rng.choice(values, size=rows) if kind == "values" else zero_column(rng, kind, rows)
            for kind in kinds
        ]
        header = [f"c{j}" for j in range(len(columns))]
        assert csv_text(header, columns) == reference_csv(header, columns)


@pytest.mark.parametrize("kind", ZERO_KINDS)
@pytest.mark.parametrize("rows", [1, 3, 2001])
def test_all_zero_tables(kind, rows):
    rng = np.random.default_rng(rows)
    for width in (1, 2, 7):
        columns = [zero_column(rng, kind, rows) for _ in range(width)]
        header = [f"c{j}" for j in range(width)]
        assert csv_text(header, columns) == reference_csv(header, columns)


@pytest.mark.parametrize("kind", ZERO_KINDS)
@pytest.mark.parametrize("size", [1, 2, 2001])
def test_zero_arrays_read_as_fmt_of_each_item(kind, size):
    zeros, minus = zero_column(np.random.default_rng(size), kind, size), np.full(size, -0.0)
    assert dumps(zeros) == "[\n" + ",\n".join("  " + fmt(x) for x in zeros) + "\n]\n"
    # nested in dicts and lists; a list of floats is written through fmt item by item
    nested = {"a": [zeros, {"b": minus, "c": [minus, 1.5]}], "d": zeros}
    assert dumps(nested) == dumps(
        {"a": [zeros.tolist(), {"b": minus.tolist(), "c": [minus.tolist(), 1.5]}],
         "d": zeros.tolist()}
    )


@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_non_finite_in_a_zero_array_raises(bad, where, zero):
    values = np.full(7, zero)
    values[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": [values]})
    with pytest.raises(ValueError, match="non-finite"):
        csv_text(["t", "x", "z"], [np.zeros(7), values, np.zeros(7)])


RANGES = [(0.0, math.pi), (0.0, 1e-9), (-3.5, 2.0), (1e6, 1e6 + 7.25), (0.0, 1e300)]


def reference_points(times, values, t0, t1) -> str:
    """Polyline points formatted one point at a time."""
    return " ".join(
        f"{_px(float(t), t0, t1):.2f},{_py(min(float(v), _Y_MAX)):.2f}"
        for t, v in zip(times, values)
    )


def awkward_amplitudes(seed: int) -> np.ndarray:
    # some above the clipping height
    values = np.random.default_rng(seed).uniform(0.0, 1.2, size=800)
    values[:4] = [0.0, -0.0, _Y_MAX, 1e-300]
    return values


@pytest.mark.parametrize("t0, t1", RANGES)
def test_polyline_points_match_per_point_format(t0, t1):
    times = np.linspace(t0, t1, 800)
    values = awkward_amplitudes(7)
    points = reference_points(times, values, t0, t1)
    assert _polyline(_points_template(times, t0, t1), values, "c", "s") == (
        f'<polyline class="c" points="{points}" fill="none" s/>'
    )


@pytest.mark.parametrize(
    "times", [[0.5], [1.0, 1.0], [1.0, 0.5, 0.0]], ids=["one-point", "zero-span", "decreasing"]
)
def test_svg_time_axis_must_increase(times):
    # a one-point or zero-span axis used to raise ZeroDivisionError
    values = np.full(len(times), 0.5)
    with pytest.raises(ValueError, match="times must increase from first to last"):
        amplitude_svg(np.array(times), values, values, [], None)


@pytest.mark.parametrize("t0, t1", RANGES)
def test_both_figure_curves_match_per_point_format(t0, t1):
    # distinct x_0 and x_N: a curve drawn with the other's or a stale y shows
    times = np.linspace(t0, t1, 800)
    abs_x0, abs_xN = awkward_amplitudes(7), awkward_amplitudes(8)[::-1]
    figure = ET.fromstring(amplitude_svg(times, abs_x0, abs_xN, [], None).encode())
    points = {
        element.get("class"): element.get("points")
        for element in figure.iter("{http://www.w3.org/2000/svg}polyline")
    }
    assert points == {
        "x0-curve": reference_points(times, abs_x0, t0, t1),
        "xN-curve": reference_points(times, abs_xN, t0, t1),
    }


class TestCsv:
    def test_rows(self):
        text = csv_text(
            ["t", "v"], [np.array([0.0, 0.5]), np.array([-0.0, 1 / 3])]
        )
        assert text == "t,v\n0,0\n0.5,0.333333333333\n"

    def test_no_rows(self):
        assert csv_text(["t", "v"], [np.array([]), np.array([])]) == "t,v\n"
        assert csv_text(["t"] * 7, [np.array([])] * 7) == ",".join(["t"] * 7) + "\n"
        assert csv_text([], []) == "\n"

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError, match="header"):
            csv_text(["t"], [np.zeros(2), np.zeros(2)])

    def test_complex_column_raises(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            csv_text(["t", "z"], [np.zeros(2), np.array([1.0, 1 + 2j])])

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            csv_text(["t", "v"], [np.zeros(2), np.zeros(3)])
