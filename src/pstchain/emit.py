"""Deterministic emitters: 12-significant-digit JSON and CSV, hand-built SVG.

JSON text has the layout of ``json.dumps(value, indent=2)`` and keeps
dictionary insertion order, but every number is written by ``fmt`` with 12
significant digits: the standard module's shortest round-trip floats are
not the fixed decimal contract that byte-stable, human-diffable artifacts
need.  CSV cells use the same format.  Float arrays, CSV tables and SVG
curves are formatted a whole array at a time, in one ``%`` call on a
repeated template, with the same text that ``fmt`` gives each number (an
all-zero array or CSV column is written as ``0`` unformatted, the same
bytes).  The two SVG curves share their abscissae, which are printed once
into a points template; each curve then fills in only its own ordinates.
"""

from __future__ import annotations

import json

import numpy as np

_NUMBER = "%.12g"  # the number format; '%' gives the text of format(x, ".12g")


def _finite(values):
    """``values`` (a float or a float array) with -0.0 as 0.0; NaN or inf raise."""
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize non-finite numbers")
    return values + 0.0  # -0.0 + 0.0 is 0.0


def fmt(x: float) -> str:
    """Decimal form of a float with 12 significant digits."""
    return _NUMBER % _finite(float(x))


def _emit(value, indent: int) -> str:
    """JSON text of one value whose closing line is indented ``indent`` levels."""
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    pad = "  " * indent
    inner = pad + "  "
    if isinstance(value, dict):
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_emit(item, indent + 1)}"
            for key, item in value.items()
        )
        return f"{{\n{items}\n{pad}}}" if items else "{}"
    if isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
            value = _finite(value)
            if value.any():
                numbers = tuple(value.tolist())
                items = ",\n".join([inner + _NUMBER] * len(numbers)) % numbers
            else:  # "%.12g" % 0.0 is "0"
                items = ",\n".join([inner + "0"] * value.size)
        else:
            items = ",\n".join(inner + _emit(item, indent + 1) for item in value)
        return f"[\n{items}\n{pad}]" if items else "[]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """JSON text with fixed key order and 12-significant-digit floats."""
    return _emit(value, 0) + "\n"


def csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV with the given column order, floats at 12 significant digits."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    table = np.array(columns).T  # rows of cells; unequal columns raise ValueError
    if table.dtype.kind == "c":  # a float cast would drop the imaginary part
        raise TypeError(f"cannot serialize {table.dtype}")
    table = _finite(table.astype(float)).reshape(len(table), len(columns))
    nonzero = table.any(axis=0)  # an all-zero column reads "0" in every row
    numbers = tuple(table[:, nonzero].ravel().tolist())
    row = ",".join([_NUMBER if keep else "0" for keep in nonzero]) + "\n"
    return ",".join(header) + "\n" + (row * len(table)) % numbers


_WIDTH, _HEIGHT = 800, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 20, 20, 50
_Y_MAX = 1.05


def _px(t: float, t0: float, t1: float) -> float:
    return _LEFT + (t - t0) / (t1 - t0) * (_WIDTH - _LEFT - _RIGHT)


def _py(y: float) -> float:
    return _TOP + (1.0 - y / _Y_MAX) * (_HEIGHT - _TOP - _BOTTOM)


def _points_template(times, t0: float, t1: float) -> str:
    """Polyline points at ``times`` with each y left as a ``%.2f`` field."""
    x = _finite(_px(np.asarray(times, dtype=float), t0, t1))
    return " ".join(["%.2f,%%.2f"] * x.size) % tuple(x.tolist())


def _polyline(template: str, values, cls: str, style: str) -> str:
    y = _finite(_py(np.minimum(np.asarray(values, dtype=float), _Y_MAX)))
    points = template % tuple(y.tolist())
    return f'<polyline class="{cls}" points="{points}" fill="none" {style}/>'


def amplitude_svg(
    times,
    abs_x0,
    abs_xN,
    ese_times,
    transfer_time: float | None,
) -> str:
    """Standalone SVG: |x0| solid, |xN| dashed, markers at zeros and T0."""
    t0, t1 = float(times[0]), float(times[-1])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis = 'stroke="black" stroke-width="1"'
    x_axis_y = _py(0.0)
    parts.append(
        f'<line x1="{_LEFT}" y1="{x_axis_y:.2f}" x2="{_WIDTH - _RIGHT}" '
        f'y2="{x_axis_y:.2f}" {axis}/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_py(_Y_MAX):.2f}" x2="{_LEFT}" '
        f'y2="{x_axis_y:.2f}" {axis}/>'
    )
    for tick in np.linspace(t0, t1, 6):
        x = _px(float(tick), t0, t1)
        parts.append(
            f'<line x1="{x:.2f}" y1="{x_axis_y:.2f}" x2="{x:.2f}" '
            f'y2="{x_axis_y + 6:.2f}" {axis}/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{x_axis_y + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{format(float(tick), ".4g")}</text>'
        )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _py(tick)
        parts.append(
            f'<line x1="{_LEFT - 6}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" {axis}/>'
        )
        parts.append(
            f'<text x="{_LEFT - 10}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{format(tick, ".3g")}</text>'
        )
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.2f}" y="{_HEIGHT - 8}" '
        'font-size="13" text-anchor="middle">t</text>'
    )
    # both curves share their abscissae: print them once
    template = _points_template(times, t0, t1)
    parts.append(
        _polyline(template, abs_x0, "x0-curve", 'stroke="#1f3b70" stroke-width="1.5"')
    )
    parts.append(
        _polyline(
            template,
            abs_xN,
            "xN-curve",
            'stroke="#b3442c" stroke-width="1.5" stroke-dasharray="6 4"',
        )
    )
    parts.append(
        f'<text x="{_WIDTH - 180}" y="{_TOP + 16}" font-size="13" '
        'fill="#1f3b70">|x0| (solid)</text>'
    )
    parts.append(
        f'<text x="{_WIDTH - 180}" y="{_TOP + 34}" font-size="13" '
        'fill="#b3442c">|xN| (dashed)</text>'
    )
    for t_zero in ese_times:
        if not t0 <= t_zero <= t1:
            continue
        x = _px(float(t_zero), t0, t1)
        parts.append(
            f'<line class="ese-guide" x1="{x:.2f}" y1="{_py(_Y_MAX):.2f}" '
            f'x2="{x:.2f}" y2="{x_axis_y:.2f}" stroke="#777777" '
            'stroke-width="0.8" stroke-dasharray="2 3"/>'
        )
        parts.append(
            f'<circle class="ese-marker" data-t="{fmt(float(t_zero))}" '
            f'cx="{x:.2f}" cy="{x_axis_y:.2f}" r="4" fill="#1f3b70"/>'
        )
    if transfer_time is not None and t0 <= transfer_time <= t1:
        x = _px(float(transfer_time), t0, t1)
        parts.append(
            f'<line class="pst-marker" data-t="{fmt(float(transfer_time))}" '
            f'x1="{x:.2f}" y1="{_py(_Y_MAX):.2f}" x2="{x:.2f}" '
            f'y2="{x_axis_y:.2f}" stroke="#b3442c" stroke-width="1" '
            'stroke-dasharray="4 3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
