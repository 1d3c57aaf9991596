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


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


class _Axis:
    def __init__(self, lo: float, hi: float, log: bool):
        if log and (lo <= 0 or hi <= 0):
            raise ValidationError("log axis needs positive data")
        if hi <= lo and log:
            # a decade each way: a factor keeps both bounds positive
            lo, hi = lo / 10.0, hi * 10.0
        elif hi <= lo:
            pad = abs(lo) * 0.5 + 1.0
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi, self.log = lo, hi, log

    def unit(self, x: float) -> float:
        """Map a data value to [0, 1]."""
        if self.log:
            return (math.log(x) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        return (x - self.lo) / (self.hi - self.lo)

    def ticks(self, count: int = 5) -> list:
        if self.log:
            lo_dec = math.floor(math.log10(self.lo) - 1e-9)
            hi_dec = math.ceil(math.log10(self.hi) + 1e-9)
            marks = [10.0 ** d for d in range(int(lo_dec), int(hi_dec) + 1)]
            return [x for x in marks if self.lo * 0.999 <= x <= self.hi * 1.001]
        step = (self.hi - self.lo) / (count - 1)
        return [self.lo + k * step for k in range(count)]


def _axis_for(values, log: bool, pad_frac: float = 0.04) -> _Axis:
    lo = min(values)
    hi = max(values)
    if not log:
        pad = (hi - lo) * pad_frac
        lo, hi = lo - pad, hi + pad
    return _Axis(lo=lo, hi=hi, log=log)


class Figure:
    """Accumulates SVG elements for one plot panel."""

    def __init__(self, title: str, x_label: str, y_label: str, x_axis: _Axis, y_axis: _Axis):
        self.title, self.x_label, self.y_label = title, x_label, y_label
        self.x_axis, self.y_axis = x_axis, y_axis
        self.parts, self.legend = [], []

    def x_pix(self, x: float) -> float:
        return MARGIN_LEFT + self.x_axis.unit(x) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y_pix(self, y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - self.y_axis.unit(y) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def add_polyline(self, xs, ys, color: str, label: str | None = None) -> None:
        points = " ".join(
            f"{_coord(self.x_pix(x))},{_coord(self.y_pix(y))}" for x, y in zip(xs, ys)
        )
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        if label is not None:
            self.legend.append((label, color))

    def add_bars(self, edges, heights) -> None:
        base = self.y_pix(max(self.y_axis.lo, 0.0))
        for left, right, h in zip(edges[:-1], edges[1:], heights):
            x0 = self.x_pix(left)
            x1 = self.x_pix(right)
            y1 = self.y_pix(h)
            self.parts.append(
                f'<rect x="{_coord(x0)}" y="{_coord(min(y1, base))}" '
                f'width="{_coord(x1 - x0)}" height="{_coord(abs(base - y1))}" '
                f'fill="{BAR_FILL}" stroke="none"/>'
            )

    def render(self) -> str:
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{self.title}</text>',
        ]
        frame = (
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
            f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
            f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
            f'fill="none" stroke="#000000" stroke-width="1"/>'
        )
        out.append(frame)
        for x in self.x_axis.ticks():
            px = self.x_pix(x)
            out.append(
                f'<line x1="{_coord(px)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
                f'x2="{_coord(px)}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#000000"/>'
            )
            out.append(
                f'<text x="{_coord(px)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
                f'text-anchor="middle" font-family="monospace" font-size="11">{_tick_label(x)}</text>'
            )
        for y in self.y_axis.ticks():
            py = self.y_pix(y)
            out.append(
                f'<line x1="{MARGIN_LEFT - 5}" y1="{_coord(py)}" '
                f'x2="{MARGIN_LEFT}" y2="{_coord(py)}" stroke="#000000"/>'
            )
            out.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{_coord(py + 4)}" '
                f'text-anchor="end" font-family="monospace" font-size="11">{_tick_label(y)}</text>'
            )
        out.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{self.x_label}</text>'
        )
        mid_y = (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2
        out.append(
            f'<text x="16" y="{mid_y}" text-anchor="middle" font-family="monospace" '
            f'font-size="12" transform="rotate(-90 16 {mid_y})">{self.y_label}</text>'
        )
        out.extend(self.parts)
        for rank, (label, color) in enumerate(self.legend):
            ly = MARGIN_TOP + 16 + 16 * rank
            lx = WIDTH - MARGIN_RIGHT - 150
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{lx + 28}" y="{ly}" font-family="monospace" font-size="11">{label}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"


def line_plot(
    series,
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render labelled (xs, ys) series to an SVG string.

    `series` is an iterable of (label, xs, ys); colors cycle through a
    fixed palette in input order.
    """
    series = list(series)
    if not series:
        raise ValidationError("line_plot needs at least one series")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    fig = Figure(
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_axis=_axis_for(all_x, log_x),
        y_axis=_axis_for(all_y, log_y),
    )
    for rank, (label, xs, ys) in enumerate(series):
        fig.add_polyline(xs, ys, PALETTE[rank % len(PALETTE)], label)
    return fig.render()


def histogram_plot(edges, heights, overlays, title: str, x_label: str, y_label: str) -> str:
    """Render histogram bars plus overlay curves to an SVG string."""
    edges = [float(e) for e in edges]
    heights = [float(h) for h in heights]
    overlays = list(overlays)
    all_y = heights + [float(y) for _, _, ys in overlays for y in ys] + [0.0]
    fig = Figure(
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_axis=_axis_for(edges, log=False, pad_frac=0.0),
        y_axis=_axis_for(all_y, log=False),
    )
    fig.add_bars(edges, heights)
    for rank, (label, xs, ys) in enumerate(overlays):
        fig.add_polyline(xs, ys, PALETTE[rank % len(PALETTE)], label)
    return fig.render()
