"""End-to-end runs of the command-line front end."""

import argparse
import json
import shlex
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hschain.cli
import hschain.table
from hschain import ANTIFERRO, ChainSpec, closed_form_moments
from hschain.cli import main
from hschain.density import density_dp
from hschain.levelstats import spacing_distribution
from hschain.table import csv_pieces, format_cell, format_rational, json_pieces
from hschain.transfer import charfn_series, default_t_grid
from small_tables import table_of


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def test_density_brute_csv(tmp_path):
    rc = run(tmp_path, "density", "--family", "pf", "--N", "3", "--m", "2",
             "--ferro", "--backend", "brute")
    assert rc == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    assert header[0].startswith("# hschain ")
    assert "# backend = brute" in header
    assert "# family = PF" in header
    body = [line for line in lines if not line.startswith("#")]
    assert body == ["energy,degeneracy", "0,4", "1,2", "2,2"]


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_csv_pieces_write_each_cell_as_format_cell_does(rows):
    assert hschain.table._PIECE_LEVELS == 4096
    floats = [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0, float("inf"),
              float("-inf"), float("nan"), 2.0 / 3.0]
    cycled = [floats[k % len(floats)] for k in range(rows)]
    columns = (np.array(cycled), cycled, np.arange(rows), list(range(-5, rows - 5)),
               [Fraction(k, 3) for k in range(rows)], [f"{k}%s%%" for k in range(rows)])
    pieces = list(csv_pieces(["50% done", "%s"], "a,b,c,d,e,f", columns))
    assert len(pieces) == 1 + -(-rows // 4096)
    lines = [",".join(map(format_cell, row)) + "\n" for row in zip(*columns)]
    assert "".join(pieces) == "".join(["# 50% done\n# %s\na,b,c,d,e,f\n", *lines])


def test_density_json_and_fractional_energies(tmp_path):
    rc = run(tmp_path, "density", "--family", "fi", "--N", "3", "--m", "2",
             "--alpha", "3/2", "--format", "json")
    assert rc == 0
    payload = json.loads((tmp_path / "density.json").read_text())
    assert payload["config"]["alpha"] == "3/2"
    assert payload["density"]["levels"]["0"] == 4
    assert "3/2" in payload["density"]["levels"]
    assert sum(payload["density"]["levels"].values()) == 8


def test_density_spec_file_input(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "HS", "N": 4, "m": 2, "epsilon": 1}')
    rc = run(tmp_path, "density", "--spec", str(spec_path))
    assert rc == 0
    body = [line for line in (tmp_path / "density.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert body == ["energy,degeneracy", "0,5", "3,6", "4,4", "6,1"]


def test_moments_csv(tmp_path):
    rc = run(tmp_path, "moments", "--family", "hs", "--N", "4", "--m", "2", "--ferro")
    assert rc == 0
    text = (tmp_path / "moments.csv").read_text()
    assert "mu,5/2" in text
    assert "sigma2,27/8" in text


def test_charfn_csv_columns(tmp_path):
    rc = run(tmp_path, "charfn", "--family", "pf", "--N", "6", "--m", "2",
             "--t-max", "4", "--t-points", "17", "--format", "csv,svg")
    assert rc == 0
    lines = (tmp_path / "charfn.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t,re_exact,im_exact,re_asym,im_asym,gauss_ref"
    assert len(body) == 1 + 17
    middle = body[1 + 8].split(",")  # t = 0 row
    assert float(middle[0]) == 0.0
    assert float(middle[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(middle[2]) == pytest.approx(0.0, abs=1e-12)
    assert (tmp_path / "charfn.svg").read_text().startswith("<!--")


def test_convergence_csv_and_svg(tmp_path):
    rc = run(tmp_path, "convergence", "--family", "hs", "--m", "2",
             "--n-sweep", "8:32:geometric", "--t-points", "41")
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert any(line.startswith("# gauss_slope = ") for line in lines)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "N,gauss_deviation,asym_deviation"
    assert [row.split(",")[0] for row in body[1:]] == ["8", "16", "32"]
    assert "<svg " in (tmp_path / "convergence.svg").read_text()


def test_spacings_csv_reference_columns(tmp_path):
    rc = run(tmp_path, "spacings", "--family", "hs", "--N", "16", "--m", "2",
             "--bins", "20", "--s-max", "3")
    assert rc == 0
    lines = (tmp_path / "spacings.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "bin_center,density,poisson_ref,wigner_ref"
    assert len(body) == 1 + 20


def test_spacings_at_the_benchmark_size_have_no_zero_spacing(tmp_path, monkeypatch, capsys):
    histograms = []

    def keep(*args, **kwargs):
        histograms.append(spacing_distribution(*args, **kwargs))
        return histograms[-1]

    monkeypatch.setattr(hschain.cli, "spacing_distribution", keep)
    assert main(["spacings", "--family", "hs", "--N", "192", "--m", "2", "--format", "csv",
                 "--out", str(tmp_path)]) == 0
    (histogram,) = histograms
    assert histogram.spacings.size == 583_983
    assert np.count_nonzero(histogram.spacings == 0.0) == 0
    assert abs(histogram.spacings.mean() - 1.0) < 1e-9
    out = capsys.readouterr().out.splitlines()
    assert "spacings = 583983, mean = 1" in out
    assert "underflow = 0" in out


def test_kscan_csv(tmp_path):
    rc = run(tmp_path, "kscan", "--family", "pf", "--m", "2", "--n-sweep", "8:16:geometric")
    assert rc == 0
    body = [line for line in (tmp_path / "kscan.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert body[0] == "N,ks_distance"
    first = float(body[1].split(",")[1])
    last = float(body[2].split(",")[1])
    assert 0 < last < first < 1


def test_one_point_kscan_draws_its_log_log_plot(tmp_path):
    rc = run(tmp_path, "kscan", "--family", "hs", "--m", "2", "--n-sweep", "16:16:geometric",
             "--format", "csv,svg")
    assert rc == 0
    body = [line for line in (tmp_path / "kscan.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert body[0] == "N,ks_distance" and len(body) == 2 and body[1].startswith("16,")
    assert (tmp_path / "kscan.svg").read_text().count("<polyline") == 1


def test_oracle_json(tmp_path):
    rc = run(tmp_path, "oracle", "--family", "hs", "--N", "2", "--m", "2", "--ferro")
    assert rc == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    report = payload["report"]
    assert report["direct_deviation"] < 1e-10
    assert report["multiplicities_match"] is True


def test_oracle_prints_a_one_line_summary(tmp_path, capsys):
    assert run(tmp_path, "oracle", "--family", "hs", "--N", "4", "--m", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == f"wrote {tmp_path / 'oracle.json'}"
    assert lines[1].startswith("states = 16, affine deviation = ")
    assert lines[1].endswith(", multiplicities match = True")


def test_crosscheck_passes_and_writes_csv(tmp_path):
    rc = run(tmp_path, "crosscheck", "--max-N", "6")
    assert rc == 0
    lines = (tmp_path / "crosscheck.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "check,family,N,m,epsilon,alpha,deviation,passed"
    assert all(row.endswith(",1") for row in body[1:])


def test_repeated_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["charfn", "--family", "fi", "--N", "8", "--m", "2",
                     "--alpha", "3/2", "--t-points", "33", "--format", "csv,svg",
                     "--out", str(out)]) == 0
    assert (first / "charfn.csv").read_bytes() == (second / "charfn.csv").read_bytes()
    assert (first / "charfn.svg").read_bytes() == (second / "charfn.svg").read_bytes()


@pytest.mark.parametrize("payload", [
    {},
    [],
    {"config": {"family": "FI", "m": 4, "alpha": "3/2"}, "empty": {}, "none": [],
     "density": {"total": 4 ** 64, "levels": {"9/2": 3, "0": 1, "-1/2": 2 ** 70}}},
    {"report": {"eigenvalues": [0.1, -2.5e-300, float("inf"), float("nan")], "pairs": [[1, 2], (3,)],
                "nested": [{"b": [], "a": {"y": None, "x": True}}, "text\nwith \"quotes\" \u00e9"]}},
    [[], [{}], [[1]], 7],
    "a scalar",
    # float arrays, an oracle's spectra, as their float lists: 4,096 values a piece
    *(pytest.param(values, id=f"floats-{values.size}") for values in (
        np.random.default_rng(size).normal(size=size)
        * 10.0 ** np.random.default_rng(size).integers(-300, 300, size)
        for size in (0, 1, 4096, 4097, 3 * 4096 + 5))),
    pytest.param(np.array([-0.0, 5e-324, 0.0, 2.5e-310]), id="floats-signed-zero-subnormal"),
    pytest.param({"eigenvalues": np.linspace(-1.0, 2.0, 4097), "multiplicities": [1, 2]},
                 id="floats-nested"),
    pytest.param({"eigenvalues": np.array([0.5, -1.0])}, id="floats-only-value"),
])
def test_json_text_equals_the_indented_sorted_encoder_byte_for_byte(payload):
    assert "".join(json_pieces(payload)) == json.dumps(payload, indent=2, sort_keys=True,
                                                       default=np.ndarray.tolist)


@pytest.mark.parametrize("sign", ["ferro", "antiferro"])
@pytest.mark.parametrize("chain", [
    pytest.param(["--family", "hs", "--N", "9"], id="hs"),
    pytest.param(["--family", "pf", "--N", "9"], id="pf"),
    pytest.param(["--family", "fi", "--alpha", "3/2", "--N", "9"], id="fi-3_2"),
    pytest.param(["--family", "fi", "--alpha", "5/3", "--N", "9"], id="fi-5_3"),
    # 6,675 levels: more than one written piece
    pytest.param(["--family", "hs", "--N", "40"], id="hs-N40"),
])
def test_density_json_equals_the_indented_sorted_encoder(tmp_path, chain, sign):
    assert run(tmp_path, "density", *chain, "--m", "3", f"--{sign}", "--format", "json") == 0
    text = (tmp_path / "density.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if "40" in chain:
        assert len(json.loads(text)["density"]["levels"]) > hschain.table._PIECE_LEVELS


WRITTEN_CHAINS = {
    "fi-N64": (["--family", "fi", "--alpha", "3/2", "--N", "64", "--m", "4", "--antiferro"],
               ChainSpec("FI", 64, 4, ANTIFERRO, Fraction(3, 2))),
    "hs-N40": (["--family", "hs", "--N", "40", "--m", "3"], ChainSpec("HS", 40, 3)),
}


def write_peak(tmp_path, monkeypatch, name, fmt):
    """The table of the chain `name` and the tracemalloc peak of the CLI
    writing its `fmt` artifact once the table is built and its energy
    texts, which both artifacts share, are made."""
    chain, spec = WRITTEN_CHAINS[name]
    table = density_dp(spec)
    table.to_csv()
    monkeypatch.setattr(hschain.cli, "density_dp", lambda _: table)
    tracemalloc.start()
    try:
        rc = run(tmp_path, "density", *chain, "--format", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return table, peak


@pytest.mark.parametrize("name, bound", [pytest.param("fi-N64", 30, id="fi-N64"),
                                         pytest.param("hs-N40", 160, id="hs-N40")])
def test_density_json_write_peak_per_level(tmp_path, monkeypatch, name, bound):
    # measured: 17 and 94 bytes a level; 56 and 120 while the key order was
    # a list of Python ints, 168 and 241 while the levels went through a
    # dict and one json.dumps call
    table, peak = write_peak(tmp_path, monkeypatch, name, "json")
    assert peak <= bound * len(table), peak / len(table)


@pytest.mark.parametrize("name", WRITTEN_CHAINS)
def test_density_csv_write_peak(tmp_path, monkeypatch, name):
    # measured: 0.87 and 0.50 MB; 17.5 and 0.70 MB while the whole text was
    # joined before it was written
    _, peak = write_peak(tmp_path, monkeypatch, name, "csv")
    assert peak <= 1.5 * 2 ** 20, peak


def test_charfn_csv_write_peak(tmp_path, monkeypatch):
    # measured: 3.3 MiB, set by the write (building the t grid peaks at 3.2);
    # 6.3 MiB while the printed max |charfn - gaussian| held the complex
    # difference and its modulus over the whole grid, 52.3 MiB while the
    # whole text was joined before it was written
    spec = ChainSpec("HS", 5, 2)
    series = charfn_series(spec, closed_form_moments(spec), default_t_grid(6.0, 200_001))
    monkeypatch.setattr(hschain.cli, "charfn_series", lambda *_: series)
    tracemalloc.start()
    try:
        rc = run(tmp_path, "charfn", "--family", "hs", "--N", "5", "--m", "2",
                 "--t-points", "200001", "--format", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("levels", [0, 1, 4095, 4096, 4097, 8193])
def test_density_artifacts_join_their_pieces_seamlessly(tmp_path, monkeypatch, levels):
    assert hschain.table._PIECE_LEVELS == 4096
    table = table_of({3 * k - levels: 2 ** 70 + k for k in range(levels)}, energy_scale=2)
    monkeypatch.setattr(hschain.cli, "density_dp", lambda _: table)
    assert run(tmp_path, "density", "--family", "hs", "--N", "2", "--m", "2",
               "--format", "csv,json") == 0
    text = (tmp_path / "density.csv").read_text()
    header = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    lines = [f"{format_rational(Fraction(int(e), 2))},{d}"
             for e, d in zip(table.levels(), table.degeneracies)]
    assert text == "".join([*(f"# {line}\n" for line in header), "energy,degeneracy\n",
                            *(f"{line}\n" for line in lines)])
    text = (tmp_path / "density.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert json.loads(text)["density"]["levels"] == {
        line.split(",")[0]: int(line.split(",")[1]) for line in lines}


def test_missing_spec_options_exit_one(tmp_path, capsys):
    assert run(tmp_path, "density", "--family", "pf") == 1
    assert "missing required options" in capsys.readouterr().err


def test_bad_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["density", "--family", "xy", "--N", "3", "--m", "2"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv", [
    ["density", "--family", "hs", "--N", "3", "--m", "2", "--enumeration-cap", "10"],
    ["density", "--family", "hs", "--N", "3", "--m", "2", "--composition-cap", "30"],
    ["oracle", "--family", "hs", "--N", "3", "--m", "2", "--dense-cap", "8"],
    ["crosscheck", "--brute-cap", "10"],
])
def test_removed_cap_flags_exit_one(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1


def test_capacity_violation_exits_one(tmp_path, capsys):
    rc = run(tmp_path, "density", "--family", "pf", "--N", "30", "--m", "2",
             "--backend", "brute")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["spacings", "--family", "hs", "--N", "8", "--m", "2", "--s-max", "-1"], "--s-max"),
    (["spacings", "--family", "hs", "--N", "8", "--m", "2", "--s-max", "inf"], "--s-max"),
    (["spacings", "--family", "hs", "--N", "8", "--m", "2", "--bins", "0"], "--bins"),
    (["charfn", "--family", "hs", "--N", "8", "--m", "2", "--t-max", "inf"], "--t-max"),
    (["charfn", "--family", "hs", "--N", "8", "--m", "2", "--t-max", "nan"], "--t-max"),
    (["convergence", "--family", "hs", "--m", "2", "--n-sweep", "16:16:geometric"], "one N"),
    (["crosscheck", "--max-N", "1"], "max_n"),
])
def test_out_of_range_numbers_exit_one(tmp_path, capsys, args, message):
    assert run(tmp_path, *args) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SPEC = '{"family": "HS", "N": 4, "m": 2}'


@pytest.mark.parametrize("args, message", [
    (["kscan", "--n-sweep", "16:32"], "sweep must look like a:b:geometric or a:b:step"),
    (["kscan", "--n-sweep", "a:32:geometric"], "bad sweep bounds"),
    (["kscan", "--n-sweep", "1:32:geometric"], "sweep bounds must satisfy 2 <= a <= b"),
    (["kscan", "--n-sweep", "32:16:geometric"], "sweep bounds must satisfy 2 <= a <= b"),
    (["kscan", "--n-sweep", "16:32:x"], "bad sweep step"),
    (["kscan", "--n-sweep", "16:32:0"], "sweep step must be positive"),
    (["charfn", "--N", "8", "--t-points", "1"], "--t-points must be at least 2"),
    (["density", "--N", "4", "--format", ","], "at least one output format is required"),
    (["density", "--spec", "{"], "invalid JSON chain spec"),
    # sigma2 past the float range; alpha = 1e150 at N = 4 still runs
    (["moments", "--family", "fi", "--alpha", "1e160", "--N", "4"], "sigma2 is past the float"),
    (["charfn", "--family", "fi", "--alpha", "1e200", "--N", "4"], "sigma2 is past the float"),
    (["spacings", "--family", "fi", "--alpha", "1e200", "--N", "4"], "sigma2 is past the float"),
    (["convergence", "--family", "fi", "--alpha", "1e200"], "sigma2 is past the float"),
    # the kernels' phases overflow, and then linspace's own span
    (["charfn", "--N", "8", "--t-max", "8e307"], "not finite on a t grid"),
    (["convergence", "--n-sweep", "16:32:geometric", "--t-max", "1e308"], "not finite on a t grid"),
    # a chain given by --spec takes none of the chain options
    (["moments", "--spec", SPEC, "--N", "99"], "cannot be combined with --N"),
    (["density", "--spec", SPEC, "--family", "pf"], "cannot be combined with --family"),
    (["charfn", "--spec", SPEC, "--m", "3"], "cannot be combined with --m"),
    (["spacings", "--spec", SPEC, "--alpha", "2"], "cannot be combined with --alpha"),
    (["oracle", "--spec", SPEC, "--ferro"], "cannot be combined with --ferro"),
    (["density", "--spec", SPEC, "--antiferro"], "cannot be combined with --antiferro"),
    (["moments", "--spec", SPEC, "--family", "hs", "--m", "2", "--ferro"],
     "cannot be combined with --family, --m, --ferro"),
    # linspace's span overflows, so the grid itself is NaN
    (["charfn", "--N", "5", "--t-max", "1e308"], "--t-max 1e+308 and --t-points 241"),
    # a misspelt key would leave its field at the default
    (["moments", "--spec", '{"family": "HS", "N": 8, "m": 2, "eps": -1}'],
     "unknown chain spec key 'eps'"),
    (["density", "--spec", '{"family": "FI", "N": 4, "m": 2, "Alpha": 2, "n": 5}'],
     "unknown chain spec keys 'Alpha', 'n'"),
    # m = 1 has one level, so its spectral width is 0
    (["charfn", "--N", "8", "--m", "1"], "needs a positive spectral width"),
    (["convergence", "--family", "pf", "--m", "1", "--n-sweep", "8:16:geometric"],
     "needs a positive spectral width"),
])
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, args, message):
    # every row but those of --spec names the chain by its options
    chain = () if "--spec" in args else ("--family", "hs", "--m", "2")
    assert run(tmp_path, *args[:1], *chain, *args[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, points", [
    (["convergence", "--family", "hs", "--m", "3", "--n-sweep", "8:16:geometric", "--t-points"],
     200_001),
    # the csv and svg text of a point is formatted at about 40 us under tracemalloc, so the
    # artifacts run at a tenth of the size; their bytes per point do not depend on it
    (["charfn", "--family", "hs", "--N", "8", "--m", "2", "--format", "csv,svg", "--t-points"],
     20_001),
    (["spacings", "--family", "hs", "--N", "10", "--m", "2", "--format", "csv,svg", "--bins"],
     20_000),
    # at m = 40 the kernels hold more than the text
    (["charfn", "--family", "hs", "--N", "8", "--m", "40", "--format", "csv,svg", "--t-points"],
     20_001),
    # here the kernels' fixed chunks outweigh the bytes a point
    (["convergence", "--family", "hs", "--m", "2", "--n-sweep", "8:16:geometric", "--t-points"],
     20_001),
])
def test_grid_peaks_stay_within_the_prediction(tmp_path, monkeypatch, capsys, args, points):
    # measured: 149, 388, 590, 1,300 and 197 bytes a point, against 193, 650, 600, 1,714 and
    # 346 counted, the fixed 4 MiB of the t grids included
    _assert_the_run_stays_within_its_grid_prediction(tmp_path, monkeypatch, capsys,
                                                     *args, str(points))


def _assert_the_run_stays_within_its_grid_prediction(tmp_path, monkeypatch, capsys, *args):
    """Run the CLI under tracemalloc: it succeeds, and its peak stays within
    the bytes of its one t or bin grid prediction, which are returned.  The
    prediction of an --n-sweep list, a few hundred bytes here, is not it."""
    checks = []
    check = hschain.cli.check_grid_budget
    monkeypatch.setattr(hschain.cli, "check_grid_budget",
                        lambda *a: checks.append(a) or check(*a))
    tracemalloc.start()
    try:
        rc = run(tmp_path, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    (prediction, nbytes), = [c for c in checks if not c[0].startswith("--n-sweep")]
    assert peak <= nbytes, (prediction, peak)
    return nbytes


@pytest.mark.parametrize("args", [
    ["charfn", "--family", "hs", "--N", "8", "--m", "2", "--t-points", str(10 ** 9)],
    ["convergence", "--family", "hs", "--m", "2", "--t-points", str(10 ** 9)],
    ["spacings", "--family", "hs", "--N", "8", "--m", "2", "--bins", str(10 ** 9)],
])
def test_huge_grids_are_refused_before_any_allocation(tmp_path, monkeypatch, capsys, args):
    # were the gate to let them through, these grids would take gigabytes:
    # building one fails the test instead
    def never(*_):
        raise AssertionError("a refused grid was built")

    monkeypatch.setattr(hschain.cli, "default_t_grid", never)
    monkeypatch.setattr(hschain.cli, "default_spacing_bins", never)
    tracemalloc.start()
    try:
        rc = run(tmp_path, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over the budget" in err, err
    assert len(err.splitlines()) == 1
    assert peak < 1 << 20
    assert not any(tmp_path.iterdir())


def test_convergence_runs_grids_that_the_charfn_count_refuses(tmp_path, monkeypatch, capsys):
    # against a budget of 32 MiB, charfn's count at m = 3, the 440 bytes of
    # its text a point, refuses 100,001 points; convergence writes no text a
    # point, and its own count, 36 x 3 + 64 a point and 4 MiB of chunks,
    # admits them and holds its measured peak
    points, budget = 100_001, 32 << 20
    assert 440 * points > budget
    monkeypatch.setattr(hschain.table, "DEFAULT_MEMORY_BUDGET", budget)
    assert _assert_the_run_stays_within_its_grid_prediction(
        tmp_path, monkeypatch, capsys, "convergence", "--family", "hs", "--m", "3",
        "--n-sweep", "8:16:geometric", "--t-points", str(points)) <= budget


class _SweepAdmitted(Exception):
    pass


def _admit_no_sweep(*_, **__):
    raise _SweepAdmitted


@pytest.mark.parametrize("args", [
    # the README's, the benchmark's and the tier-1 tests' sweeps
    ["--family", "hs", "--m", "3", "--n-sweep", "16:16384:geometric"],
    ["--family", "hs", "--m", "3", "--n-sweep", "16:4096:geometric", "--antiferro"],
    ["--family", "pf", "--m", "2", "--n-sweep", "16:1024:geometric"],
    ["--family", "pf", "--m", "2", "--n-sweep", "16:256:geometric", "--t-points", "81"],
    ["--family", "fi", "--alpha", "5/2", "--m", "2", "--n-sweep", "8:24:8", "--t-max", "3.5"],
    ["--family", "hs", "--m", "3", "--n-sweep", "8:16:geometric", "--t-points", "200001"],
    ["--family", "hs", "--m", "40", "--n-sweep", "16:1024:geometric"],
])
def test_the_sweep_work_gate_admits_the_sweeps_people_run(tmp_path, monkeypatch, args):
    monkeypatch.setattr(hschain.cli, "convergence_report", _admit_no_sweep)
    with pytest.raises(_SweepAdmitted):
        run(tmp_path, "convergence", *args)


def test_a_sweep_past_the_work_ceiling_exits_one_before_its_first_n(tmp_path, monkeypatch,
                                                                       capsys):
    # each N passes its own gates and the list the memory gate (149 MB
    # predicted), but one transfer product per N would run practically forever;
    # the sum passes the ceiling at N = 2005
    monkeypatch.setattr(hschain.cli, "convergence_report", _admit_no_sweep)
    start = time.perf_counter()
    rc = run(tmp_path, "convergence", "--family", "pf", "--m", "2", "--n-sweep", "2:1000000:1")
    elapsed = time.perf_counter() - start
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --n-sweep 2:1000000:1 runs transfer products"), err
    assert "summed up to N = 2005:" in err and "over the ceiling" in err
    assert len(err.splitlines()) == 1
    assert elapsed < 1.0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    # the README's, the benchmark's and the tier-1 tests' kscan sweeps
    ["--family", "hs", "--m", "2", "--n-sweep", "16:128:geometric"],
    ["--family", "hs", "--m", "3", "--n-sweep", "24:192:geometric"],
    ["--family", "pf", "--m", "2", "--n-sweep", "64:64:geometric"],
    ["--family", "hs", "--m", "3", "--n-sweep", "24:96:24"],
    ["--family", "pf", "--m", "2", "--n-sweep", "8:16:geometric"],
    ["--family", "hs", "--m", "2", "--n-sweep", "16:16:geometric"],
])
def test_the_mass_sweep_gate_admits_the_sweeps_people_run(tmp_path, monkeypatch, args):
    monkeypatch.setattr(hschain.cli, "level_masses", _admit_no_sweep)
    with pytest.raises(_SweepAdmitted):
        run(tmp_path, "kscan", *args)


@pytest.mark.parametrize("sweep, reached", [
    # each N passes its own gates and the list the memory gate, but one
    # mass DP per N would run for hours; the sum passes the ceiling at N = 448
    ("2:1000000:1", 448),
    # one chain, 2.7e11 units: by extrapolation from PF N=3000 (29 s), minutes
    ("6500:6500:1", 6500),
])
def test_a_kscan_past_the_mass_ceiling_exits_one_before_its_first_n(tmp_path, monkeypatch,
                                                                    capsys, sweep, reached):
    monkeypatch.setattr(hschain.cli, "level_masses", _admit_no_sweep)
    start = time.perf_counter()
    rc = run(tmp_path, "kscan", "--family", "pf", "--m", "2", "--n-sweep", sweep)
    elapsed = time.perf_counter() - start
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --n-sweep {sweep} runs one mass DP per N"), err
    assert f"summed up to N = {reached}:" in err and "over the ceiling" in err
    assert len(err.splitlines()) == 1
    assert elapsed < 1.0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, resolved", [
    (["kscan", "--family", "pf", "--m", "2", "--n-sweep", "24:96:24"], 4),
    (["convergence", "--family", "pf", "--m", "2", "--n-sweep", "16:64:geometric"], 3),
])
def test_a_sweep_resolves_each_chain_once(tmp_path, monkeypatch, args, resolved):
    calls = []
    resolve = hschain.cli._resolve_spec
    monkeypatch.setattr(hschain.cli, "_resolve_spec", lambda *a: calls.append(a) or resolve(*a))
    assert run(tmp_path, *args) == 0
    assert len(calls) == resolved


_ABSURD = ["--family", "pf", "--N", str(10 ** 9), "--m", "2"]
_ABSURD_SWEEP = ["--family", "pf", "--m", "2", "--n-sweep", f"{10 ** 9}:{2 * 10 ** 9}:geometric"]


_GATED = "dispersion of 999999999 bonds"


@pytest.mark.parametrize("args, message", [
    pytest.param(["density", *_ABSURD, "--backend", "dp"], _GATED, id="density-dp"),
    pytest.param(["density", *_ABSURD, "--backend", "composition"], _GATED,
                 id="density-composition"),
    pytest.param(["density", *_ABSURD, "--backend", "brute"], _GATED, id="density-brute"),
    pytest.param(["moments", *_ABSURD], _GATED, id="moments"),
    pytest.param(["charfn", *_ABSURD], _GATED, id="charfn"),
    pytest.param(["convergence", *_ABSURD_SWEEP], _GATED, id="convergence"),
    pytest.param(["spacings", *_ABSURD], _GATED, id="spacings"),
    pytest.param(["kscan", *_ABSURD_SWEEP], _GATED, id="kscan"),
    pytest.param(["kscan", "--family", "pf", "--m", "2", "--n-sweep", f"2:{10 ** 10}:1"],
                 f"--n-sweep 2:{10 ** 10}:1 has {10 ** 10 - 1} values", id="kscan-step-sweep"),
    pytest.param(["oracle", *_ABSURD], _GATED, id="oracle"),
    # m**N has 4,516 digits, past the 4,300 that Python converts to text
    pytest.param(["density", "--family", "hs", "--N", "15000", "--m", "2", "--backend", "brute"],
                 "m**N = 2**15000 states", id="density-brute-HS-N15000"),
])
def test_an_absurd_chain_exits_one_with_one_error_line(tmp_path, capsys, args, message):
    tracemalloc.start()
    try:
        rc = run(tmp_path, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert len(err.splitlines()) == 1
    assert peak < 1 << 20
    assert not any(tmp_path.iterdir())


def test_rejected_format_exits_one(tmp_path, capsys):
    rc = run(tmp_path, "moments", "--family", "pf", "--N", "4", "--m", "2",
             "--format", "svg")
    assert rc == 1
    assert "not available" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


@pytest.mark.parametrize("backend", ["brute", "composition"])
def test_over_budget_grid_exits_one(tmp_path, capsys, backend):
    rc = run(tmp_path, "density", "--family", "fi", "--alpha", str(10 ** 15), "--N", "3",
             "--m", "2", "--backend", backend)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unavailable_format_is_rejected_before_any_work(tmp_path, capsys):
    rc = run(tmp_path, "oracle", "--family", "hs", "--N", "3", "--m", "2", "--format", "csv")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not available" in captured.err
    assert not any(tmp_path.iterdir())


def test_unreadable_spec_path_exits_one(tmp_path, capsys):
    folder = tmp_path / "spec-dir"
    folder.mkdir()
    assert run(tmp_path, "density", "--spec", str(folder)) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("taken", ["file", "artifact"])
def test_unwritable_out_exits_one_with_one_error_line(tmp_path, capsys, taken):
    # --out names a file, or a folder holding a folder where the artifact goes
    out = tmp_path / "out"
    if taken == "file":
        out.write_text("")
    else:
        (out / "moments.csv").mkdir(parents=True)
    assert main(["moments", "--family", "hs", "--N", "4", "--m", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.fixture
def parsers_used(monkeypatch):
    """The parser of each parse_args call, in call order."""
    used = []
    parse_args = hschain.cli._ArgumentParser.parse_args
    monkeypatch.setattr(hschain.cli._ArgumentParser, "parse_args",
                        lambda self, *args: used.append(self) or parse_args(self, *args))
    return used


def test_one_parser_serves_every_main_call_in_a_process(tmp_path, parsers_used):
    assert hschain.cli.build_parser() is hschain.cli.build_parser()
    charfn = ["charfn", "--family", "hs", "--N", "64", "--m", "3", "--antiferro",
              "--format", "csv,svg"]
    assert main(charfn + ["--out", str(tmp_path / "first")]) == 0
    assert main(["convergence", "--family", "pf", "--m", "2", "--n-sweep", "8:32:geometric",
                 "--t-points", "41", "--out", str(tmp_path / "between")]) == 0
    # the first call's --antiferro stays with its own namespace
    assert "# epsilon = +1\n" in (tmp_path / "between" / "convergence.csv").read_text()
    assert main(charfn + ["--out", str(tmp_path / "again")]) == 0
    for name in ("charfn.csv", "charfn.svg"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
    # a repeated command parses with its cached parser, another with its own
    first, between, again = parsers_used
    assert first is again is hschain.cli._command_parser("charfn")
    assert between is hschain.cli._command_parser("convergence") is not first


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(hschain.cli._COMMANDS))
def test_a_command_parser_prints_the_full_parsers_help(name, capsys):
    full = _help_text(hschain.cli.build_parser(), [name, "--help"], capsys)
    assert full.startswith(f"usage: hschain {name} ")
    assert _help_text(hschain.cli._command_parser(name), [name, "--help"], capsys) == full


README_COMMANDS = [shlex.split(line)[1:] for line in
                   (Path(__file__).parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("hschain ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_commands_parse_alike_under_both_parsers(argv):
    full = hschain.cli.build_parser().parse_args(argv)
    assert hschain.cli._command_parser(argv[0]).parse_args(argv) == full


def test_a_bad_option_value_reads_the_same_under_both_parsers(capsys):
    argv = ["density", "--N", "x"]
    errors = []
    for parse in (hschain.cli.build_parser().parse_args,
                  hschain.cli._command_parser("density").parse_args, main):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: argument --N: invalid int value: 'x'\n"] * 3


def test_main_without_argv_reads_the_command_from_sys_argv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["hschain", "moments", "--family", "pf", "--N", "4",
                                     "--m", "2", "--out", str(tmp_path)])
    assert main() == 0
    assert (tmp_path / "moments.csv").exists()
    assert "mu = " in capsys.readouterr().out


def test_the_oracle_parses_with_a_parser_of_one_subcommand(tmp_path, parsers_used):
    assert run(tmp_path, "oracle", "--family", "hs", "--N", "3", "--m", "2") == 0
    [parser] = parsers_used
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert list(subparsers.choices) == ["oracle"]
