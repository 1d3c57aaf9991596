"""Tiny deterministic SVG plot writer.

Plots are a reporting convenience, not an analysis tool, so this stays
minimal on purpose: line plots (optionally log-log) and histograms with
overlay curves.  Output is a self-contained SVG string with fixed number
formatting and no timestamps, fonts, or external assets, so repeated runs
are byte-identical and the files diff cleanly in CI.
"""

from __future__ import annotations

import math

from .errors import ValidationError

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 18
MARGIN_TOP = 30
MARGIN_BOTTOM = 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#7f7f7f")
BAR_FILL = "#c9d9ec"


def _coord(x: float) -> str:
    return f"{x:.2f}"


def _axis(values, log: bool, pad: float = 0.04) -> tuple:
    """The (lo, hi, log) range of an axis over `values`: a linear axis is
    padded by `pad` of its width, and a zero-width axis is widened."""
    if not values:
        raise ValidationError("a plot axis needs at least one value")
    lo, hi = min(values), max(values)
    if not log:
        pad = (hi - lo) * pad
        lo, hi = lo - pad, hi + pad
    if log and (lo <= 0 or hi <= 0):
        raise ValidationError("log axis needs positive data")
    if hi <= lo and log:
        # a decade each way: a factor keeps both bounds positive
        lo, hi = lo / 10.0, hi * 10.0
    elif hi <= lo:
        pad = abs(lo) * 0.5 + 1.0
        lo, hi = lo - pad, hi + pad
    return lo, hi, log


def _ticks(lo: float, hi: float, log: bool) -> list:
    """The decades within a log axis, or five evenly spaced values."""
    if log:
        lo_dec = math.floor(math.log10(lo) - 1e-9)
        hi_dec = math.ceil(math.log10(hi) + 1e-9)
        marks = [10.0 ** d for d in range(lo_dec, hi_dec + 1)]
        return [x for x in marks if lo * 0.999 <= x <= hi * 1.001]
    step = (hi - lo) / 4
    return [lo + k * step for k in range(5)]


def _unit(lo: float, hi: float, log: bool):
    """The map of an axis's data values to [0, 1]."""
    if log:
        return lambda x: (math.log(x) - math.log(lo)) / (math.log(hi) - math.log(lo))
    return lambda x: (x - lo) / (hi - lo)


def _render(title, x_label, y_label, x_axis, y_axis, series, bars=None) -> str:
    """One plot panel as SVG text: frame, ticks, labels, the (edges,
    heights) `bars`, one polyline per (label, xs, ys) of `series` and
    their legend."""
    x_unit, y_unit = _unit(*x_axis), _unit(*y_axis)

    def x_pix(x: float) -> float:
        return MARGIN_LEFT + x_unit(x) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y_pix(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - y_unit(y) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for x in _ticks(*x_axis):
        px = x_pix(x)
        out.append(
            f'<line x1="{_coord(px)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{_coord(px)}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{_coord(px)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">{x:.4g}</text>'
        )
    for y in _ticks(*y_axis):
        py = y_pix(y)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_coord(py)}" '
            f'x2="{MARGIN_LEFT}" y2="{_coord(py)}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_coord(py + 4)}" '
            f'text-anchor="end" font-family="monospace" font-size="11">{y:.4g}</text>'
        )
    out.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label}</text>'
    )
    mid_y = (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2
    out.append(
        f'<text x="16" y="{mid_y}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 16 {mid_y})">{y_label}</text>'
    )
    if bars is not None:
        edges, heights = bars
        base = y_pix(max(y_axis[0], 0.0))
        for left, right, h in zip(edges[:-1], edges[1:], heights):
            x0, x1, y1 = x_pix(left), x_pix(right), y_pix(h)
            out.append(
                f'<rect x="{_coord(x0)}" y="{_coord(min(y1, base))}" '
                f'width="{_coord(x1 - x0)}" height="{_coord(abs(base - y1))}" '
                f'fill="{BAR_FILL}" stroke="none"/>'
            )
    for rank, (_, xs, ys) in enumerate(series):
        points = " ".join(f"{_coord(x_pix(x))},{_coord(y_pix(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{PALETTE[rank % len(PALETTE)]}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
    for rank, (label, _, _) in enumerate(series):
        ly = MARGIN_TOP + 16 + 16 * rank
        lx = WIDTH - MARGIN_RIGHT - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{PALETTE[rank % len(PALETTE)]}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="monospace" font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_plot(series, title: str, x_label: str, y_label: str, log: bool = False) -> str:
    """Render labelled (xs, ys) series to an SVG string, on log-log axes
    if `log`.

    `series` is an iterable of (label, xs, ys); colors cycle through a
    fixed palette in input order.
    """
    series = list(series)
    if not series:
        raise ValidationError("line_plot needs at least one series")
    x_axis = _axis([float(x) for _, xs, _ in series for x in xs], log)
    y_axis = _axis([float(y) for _, _, ys in series for y in ys], log)
    return _render(title, x_label, y_label, x_axis, y_axis, series)


def histogram_plot(edges, heights, overlays, title: str, x_label: str, y_label: str) -> str:
    """Render histogram bars plus overlay curves to an SVG string."""
    edges = [float(e) for e in edges]
    heights = [float(h) for h in heights]
    overlays = list(overlays)
    all_y = heights + [float(y) for _, _, ys in overlays for y in ys] + [0.0]
    return _render(title, x_label, y_label, _axis(edges, False, pad=0.0), _axis(all_y, False),
                   overlays, bars=(edges, heights))
