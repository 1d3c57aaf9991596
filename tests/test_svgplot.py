"""The bespoke SVG renderer: structure, determinism and recorded bytes."""

import re
from pathlib import Path

import numpy as np
import pytest

from hschain.errors import ValidationError
from hschain.svgplot import histogram_plot, line_plot

# full SVG bytes of the three plots below, recorded from an earlier version
# of the renderer, so a change to it cannot move a byte unnoticed
PINNED = Path(__file__).parent / "pinned" / "svgplot"


def _line():
    x = np.linspace(1.0, 100.0, 20)
    return line_plot(
        [("decay", x, 1.0 / x), ("slower", x, 1.0 / np.sqrt(x))],
        title="two curves",
        x_label="n",
        y_label="value",
        log=True,
    )


def _histogram():
    edges = np.linspace(0.0, 4.0, 9)
    heights = np.array([0.1, 0.4, 0.5, 0.3, 0.2, 0.1, 0.05, 0.0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    return histogram_plot(
        edges,
        heights,
        [("reference", centers, np.exp(-centers))],
        title="spacings",
        x_label="s",
        y_label="p(s)",
    )


def _one_point():
    return line_plot([("one", [16], [0.0135])], title="one point", x_label="N",
                     y_label="distance", log=True)


PLOTS = {"line": _line, "histogram": _histogram, "one_point": _one_point}


def test_line_plot_is_wellformed_svg():
    svg = _line()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "two curves" in svg and "value" in svg
    assert "NaN" not in svg and "nan" not in svg


def test_render_is_deterministic():
    assert _line() == _line()


def test_histogram_plot_draws_bars_and_overlays():
    svg = _histogram()
    assert svg.startswith("<svg ")
    assert svg.count("<rect") >= 7  # one bar per nonzero bin, plus the frame
    assert svg.count("<polyline") == 1


def test_one_point_log_log_plot_stays_on_positive_axes():
    # a zero-width log axis widens by a factor, never below zero
    svg = _one_point()
    assert svg.count("<polyline") == 1
    assert ">10</text>" in svg and ">0.01</text>" in svg


def test_an_empty_series_is_refused():
    with pytest.raises(ValidationError, match="at least one value"):
        line_plot([("a", [], [])], title="empty", x_label="x", y_label="y")


def test_line_plot_needs_a_series():
    with pytest.raises(ValidationError, match="at least one series"):
        line_plot([], title="none", x_label="x", y_label="y")


def test_a_log_axis_refuses_a_zero_value():
    with pytest.raises(ValidationError, match="log axis needs positive data"):
        line_plot([("a", [1, 2], [0.0, 1.0])], title="zero", x_label="x", y_label="y", log=True)


def test_a_constant_linear_series_widens_its_axis():
    # y = 2 everywhere: the zero-width axis widens by |2| / 2 + 1 each way, to
    # 0..4, and the line is drawn flat
    svg = line_plot([("flat", [1, 2, 3], [2.0, 2.0, 2.0])], title="flat", x_label="x",
                    y_label="y")
    assert all(f">{tick}</text>" in svg for tick in range(5))
    (points,) = re.findall(r'points="([^"]*)"', svg)
    assert len({point.split(",")[1] for point in points.split()}) == 1


@pytest.mark.parametrize("name", sorted(PLOTS))
def test_plots_match_recorded_bytes(name):
    assert PLOTS[name]().encode("utf-8") == (PINNED / f"{name}.svg").read_bytes()
