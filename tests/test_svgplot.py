"""The bespoke SVG renderer: structure and determinism only."""

import numpy as np

from hschain.svgplot import histogram_plot, line_plot


def _line():
    x = np.linspace(1.0, 100.0, 20)
    return line_plot(
        [("decay", x, 1.0 / x), ("slower", x, 1.0 / np.sqrt(x))],
        title="two curves",
        x_label="n",
        y_label="value",
        log_x=True,
        log_y=True,
    )


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
    edges = np.linspace(0.0, 4.0, 9)
    heights = np.array([0.1, 0.4, 0.5, 0.3, 0.2, 0.1, 0.05, 0.0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    svg = histogram_plot(
        edges,
        heights,
        [("reference", centers, np.exp(-centers))],
        title="spacings",
        x_label="s",
        y_label="p(s)",
    )
    assert svg.startswith("<svg ")
    assert svg.count("<rect") >= 7  # one bar per nonzero bin, plus the frame
    assert svg.count("<polyline") == 1


def test_one_point_log_log_plot_stays_on_positive_axes():
    # a zero-width log axis widens by a factor, never below zero
    svg = line_plot([("one", [16], [0.0135])], title="one point", x_label="N",
                    y_label="distance", log_x=True, log_y=True)
    assert svg.count("<polyline") == 1
    assert ">10</text>" in svg and ">0.01</text>" in svg
