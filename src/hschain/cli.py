"""Command-line front end.

Every subcommand resolves its configuration, computes, writes artifact
files into the output directory, and prints a one-line summary.  Output
files are deterministic: they begin with a comment header recording the
resolved configuration, floats are printed with 17 significant digits,
rationals as p/q strings, and nothing in the pipeline depends on time,
locale, or environment.

Exit codes: 0 success, 1 invalid configuration or capacity violation,
2 internal inconsistency detected by `crosscheck`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from itertools import chain
from typing import NamedTuple

import numpy as np

from .chains import ANTIFERRO, FERRO, ChainSpec, scaled_dispersion_total
from .crosscheck import run_crosscheck
from .density import composition_density, density_dp, level_masses, level_support
from .errors import CapacityError, ConvergenceError, ValidationError
from .hamiltonian import oracle_compare
from .levelstats import default_spacing_bins, ks_distance, spacing_distribution, unfold
from .moments import closed_form_moments
from .motifs import brute_force_density
from .svgplot import histogram_plot, line_plot
from .table import (_CHUNK_BYTES, _PIECE_LEVELS, MASS_CEILING, TRANSFER_CEILING,
                    check_grid_budget, csv_pieces, format_cell, format_rational)
from .transfer import charfn_series, convergence_report, default_t_grid
from . import __version__

_FAMILY_BY_FLAG = {"hs": "HS", "pf": "PF", "fi": "FI"}
_FORMATS = ("csv", "json", "svg")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this CLI reserves 2 for
    crosscheck inconsistencies, so parse errors exit 1 instead."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_sweep(text: str) -> list:
    """Parse an N sweep given as a:b:geometric (doubling) or a:b:step.

    The values are counted from the bounds and gated before the list is
    built.  Measured with tracemalloc, the list takes 40 bytes a value and
    the ``n_sweep`` header, joined from the values' texts, up to 78 more
    plus twice their digits, counted as 128 + 3 x digits.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"sweep must look like a:b:geometric or a:b:step, got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValidationError(f"bad sweep bounds in {text!r}") from exc
    if start < 2 or stop < start:
        raise ValidationError(f"sweep bounds must satisfy 2 <= a <= b, got {text!r}")
    if parts[2] == "geometric":
        step, count = None, (stop // start).bit_length()
    else:
        try:
            step = int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad sweep step in {text!r}") from exc
        if step < 1:
            raise ValidationError("sweep step must be positive")
        count = (stop - start) // step + 1
    per_value = 128 + 3 * len(str(stop))
    check_grid_budget(f"--n-sweep {text} has {count} values, {per_value} bytes each = "
                      f"{count * per_value} bytes", count * per_value)
    if step is None:
        return [start << k for k in range(count)]
    return list(range(start, stop + 1, step))


def _resolve_spec(args, n=None) -> ChainSpec:
    """The chain named by --spec or by the chain options, never both; the
    sweep subcommands pass each swept N as `n` in place of --N.  Only a
    given --ferro or --antiferro sets the sign, so that --spec can refuse
    it; without either the sign is ferromagnetic."""
    if getattr(args, "spec", None):
        given = [flag for flag, value in (
            ("--family", args.family), ("--N", args.n_spins), ("--m", args.m),
            ("--alpha", args.alpha)
        ) if value is not None]
        if args.epsilon is not None:
            given.append("--ferro" if args.epsilon == FERRO else "--antiferro")
        if given:
            raise ValidationError(f"--spec names the whole chain and cannot be combined with "
                                  f"{', '.join(given)}")
        text = args.spec
        if os.path.exists(text):
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ValidationError(f"cannot read chain spec {text!r}: {exc}") from exc
        return ChainSpec.from_json(text)
    n = args.n_spins if n is None else n
    missing = [flag for flag, value in (
        ("--family", args.family), ("--N", n), ("--m", args.m)
    ) if value is None]
    if missing:
        raise ValidationError(f"missing required options: {', '.join(missing)} (or pass --spec)")
    epsilon = FERRO if args.epsilon is None else args.epsilon
    return ChainSpec(_FAMILY_BY_FLAG[args.family], n, args.m, epsilon, args.alpha)


def _config(spec: ChainSpec, sweep=None, **extra) -> dict:
    """The resolved configuration recorded in every artifact: the chain,
    its N or the swept N values, and the subcommand's own settings."""
    config = {"family": spec.family, "m": spec.m, "epsilon": f"{spec.epsilon:+d}", **extra}
    if sweep is None:
        config["N"] = spec.n_spins
    else:
        config["n_sweep"] = ",".join(str(n) for n in sweep)
    if spec.alpha is not None:
        config["alpha"] = format_rational(spec.alpha)
    return config


def _json_text(payload, pad: str = ""):
    """The pieces of ``json.dumps(payload, indent=2, sort_keys=True)``, byte
    for byte, for payloads with string keys, nested `pad` deep, where a 1-d
    float array is written as its list of floats.

    An indent sends the whole payload through json's pure-Python encoder.
    Here a value given as a function of its indent (the levels of
    :meth:`DensityTable.to_json_dict`) yields its own pieces, and each other
    dict or list without containers or such functions in it goes through
    the C encoder in one call, with the newline and indent of its items as
    the item separator; only containers of containers recurse in Python.
    The pieces are yielded, not joined, so no text of the whole payload is
    built: a flat list (an oracle's multiplicities) or float array (its
    spectra) is encoded ``_PIECE_LEVELS`` items at a time, each text sliced
    once to drop its brackets, an array's items taken as Python floats from
    one slice at a time.
    """
    if callable(payload):
        yield from payload(pad)
        return
    array = isinstance(payload, np.ndarray)
    if not array and not isinstance(payload, (dict, list, tuple)):
        yield json.dumps(payload)
        return
    opening, closing = "{}" if isinstance(payload, dict) else "[]"
    if not len(payload):
        yield opening + closing
        return
    inner = pad + "  "
    values = payload.values() if isinstance(payload, dict) else payload
    if array or not any(issubclass(kind, (dict, list, tuple, Callable))
                        for kind in set(map(type, values))):
        separators = (f",\n{inner}", ": ")
        pieces = ([payload] if isinstance(payload, dict) else
                  (payload[start:start + _PIECE_LEVELS]
                   for start in range(0, len(payload), _PIECE_LEVELS)))
        lead = f"{opening}\n{inner}"
        for piece in pieces:
            yield lead
            yield json.dumps(piece.tolist() if array else piece, sort_keys=True,
                             separators=separators)[1:-1]
            lead = separators[0]
    else:
        if isinstance(payload, dict):
            items = [(f"{json.dumps(key)}: ", value) for key, value in sorted(payload.items())]
        else:
            items = [("", value) for value in payload]
        separator = f"{opening}\n{inner}"
        for key, value in items:
            yield separator + key
            yield from _json_text(value, inner)
            separator = f",\n{inner}"
    yield f"\n{pad}{closing}"


def _requested_formats(args) -> list:
    """The formats --format names, in artifact order, checked against
    those the subcommand offers before it computes anything."""
    formats = [part.strip() for part in args.format.split(",") if part.strip()]
    for fmt in formats:
        if fmt not in args.offered:
            raise ValidationError(
                f"format {fmt!r} is not available for this subcommand; choose from {args.offered}"
            )
    if not formats:
        raise ValidationError("at least one output format is required")
    return [fmt for fmt in _FORMATS if fmt in formats]


def _emit(args, command: str, config: dict, **artifacts) -> None:
    """Write the artifacts that --format asks for as <out>/<command>.<format>.

    Each keyword is a format the subcommand offers (``args.offered``, as
    declared in ``_COMMANDS``): ``csv`` is (column line, columns of
    cells), whose text :func:`csv_pieces` yields in pieces, each written
    as it comes; ``json`` and ``svg`` return the payload (the config is
    added to it) and the plot, and are called only when requested.
    """
    header = [f"hschain {__version__} {command}"]
    header.extend(f"{key} = {format_cell(config[key])}" for key in sorted(config))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out!r}: {exc}") from exc
    for fmt in args.formats:
        artifact = artifacts[fmt]
        if fmt == "csv":
            pieces = csv_pieces(header, *artifact)
        elif fmt == "json":
            pieces = chain(_json_text({"config": config, **artifact()}), ["\n"])
        else:
            pieces = ["<!--\n", "\n".join(header), "\n-->\n", artifact()]
        path = os.path.join(args.out, f"{command}.{fmt}")
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ValidationError(f"cannot write {path!r}: {exc}") from exc
        del pieces  # a density artifact is megabytes; free it before rendering the next
        print(f"wrote {path}")


def _t_grid_from(args, m: int, text: int) -> np.ndarray:
    """The t grid of --t-max and --t-points, for a chain of m spin values.

    Measured with tracemalloc at m = 2 to 40, the kernels hold up to 32 m + 53
    bytes a t point, counted as 36 m + 64, and the artifacts, written after
    them, `text` bytes: charfn's csv and svg up to 397, counted as 440.  On
    top of that the kernels' chunks of ``_CHUNK_BYTES`` and their temporaries
    take up to 6.8 chunks more, whatever the grid (HS m = 5, N up to 4096, 101
    points), counted as 8.  Past half the float range linspace's span
    overflows and the grid is NaN, so a grid that is not finite is refused.
    """
    if args.t_points < 2:
        raise ValidationError("--t-points must be at least 2")
    if not 0 < args.t_max < math.inf:
        raise ValidationError("--t-max must be positive and finite")
    fixed = 8 * _CHUNK_BYTES
    nbytes = fixed + args.t_points * max(36 * m + 64, text)
    check_grid_budget(f"--t-points {args.t_points} needs {fixed} + {args.t_points} x "
                      f"max(36 x {m} + 64, {text}) = {nbytes} bytes", nbytes)
    grid = default_t_grid(args.t_max, args.t_points)
    if not np.isfinite(grid).all():
        raise ValidationError(f"the t values are not finite on a t grid of --t-max "
                              f"{format_cell(args.t_max)} and --t-points {args.t_points}: "
                              f"2 x --t-max passes the float range")
    return grid


def _spacing_bins_from(args) -> np.ndarray:
    """The bin edges of --s-max and --bins.  Measured with tracemalloc, a
    bin's histogram entries and its csv or svg text take up to 590 bytes."""
    if args.bins < 1:
        raise ValidationError("--bins must be at least 1")
    if not 0 < args.s_max < math.inf:
        raise ValidationError("--s-max must be positive and finite")
    check_grid_budget(f"--bins {args.bins} needs 600 bytes per bin = {args.bins * 600} bytes",
                      args.bins * 600)
    return default_spacing_bins(args.s_max, args.bins)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_density(args) -> int:
    spec = _resolve_spec(args)
    backends = {"dp": density_dp, "composition": composition_density, "brute": brute_force_density}
    density = backends[args.backend](spec)
    _emit(args, "density", _config(spec, backend=args.backend),
          csv=("energy,degeneracy", (density._energy_texts, density.degeneracies)),
          json=lambda: {"density": density.to_json_dict()})
    print(f"levels = {len(density)}, states = {density.total}")
    return 0


def _cmd_moments(args) -> int:
    spec = _resolve_spec(args)
    stats = closed_form_moments(spec)
    mu_text = format_rational(stats.mu)
    sigma2_text = format_rational(stats.sigma2)
    _emit(
        args, "moments", _config(spec),
        csv=("quantity,value",
             (("mu", "sigma2", "sigma"), (mu_text, sigma2_text, format_cell(stats.sigma)))),
        json=lambda: {"mu": mu_text, "sigma2": sigma2_text, "sigma": stats.sigma},
    )
    print(f"mu = {mu_text}, sigma2 = {sigma2_text}")
    return 0


def _cmd_charfn(args) -> int:
    spec = _resolve_spec(args)
    grid = _t_grid_from(args, spec.m, 440)
    series = charfn_series(spec, closed_form_moments(spec), grid)
    exact, asym = series.exact_values, series.asymptotic_values
    _emit(
        args, "charfn", _config(spec, t_max=args.t_max, t_points=args.t_points),
        csv=("t,re_exact,im_exact,re_asym,im_asym,gauss_ref",
             (series.t_grid, exact.real, exact.imag, asym.real, asym.imag, series.gaussian_ref)),
        svg=lambda: line_plot(
            [
                ("|charfn exact|", series.t_grid, np.abs(exact)),
                ("|charfn asymptotic|", series.t_grid, np.abs(asym)),
                ("gaussian", series.t_grid, series.gaussian_ref),
            ],
            title=f"characteristic function, {spec.family} N={spec.n_spins} m={spec.m}",
            x_label="t",
            y_label="modulus",
        ),
    )
    gap = float(np.abs(exact - series.gaussian_ref).max())
    print(f"max |charfn - gaussian| = {format_cell(gap)}")
    return 0


def _check_sweep_work(args, sweep, spec: ChainSpec, grid) -> None:
    """Refuse a convergence sweep whose transfer products would run too
    long, before its first N.  Each chain runs its N - 1 bonds once per
    distinct |t| (the upper half of the antisymmetric grid) in both
    kernels.  Measured per bond, the time is a fixed cost for the numpy
    calls, 1.7 to 2.8 us at m <= 8, plus 7 to 19 ns for each of the m
    values at each |t|; the work is counted as bonds x (m x |t| + 256).
    The first chain's own gates speak first."""
    scaled_dispersion_total(spec)
    bonds, points = sum(sweep) - len(sweep), grid.size - grid.size // 2
    work = bonds * (spec.m * points + 256)
    check_grid_budget(f"--n-sweep {args.n_sweep} runs {bonds} bonds at {points} |t| values: "
                      f"{bonds} x ({spec.m} x {points} + 256) = {work} units of work", 0,
                      work, TRANSFER_CEILING)


def _cmd_convergence(args) -> int:
    sweep = _parse_sweep(args.n_sweep)
    spec = _resolve_spec(args, sweep[0])
    grid = _t_grid_from(args, spec.m, 0)
    _check_sweep_work(args, sweep, spec, grid)
    report = convergence_report(
        spec.family, spec.m, spec.epsilon, n_values=sweep, t_grid=grid, alpha=spec.alpha
    )
    config = _config(spec, sweep, t_max=args.t_max, t_points=args.t_points,
                     gauss_slope=report.gauss_slope, asym_slope=report.asym_slope)
    _emit(
        args, "convergence", config,
        csv=("N,gauss_deviation,asym_deviation",
             (report.n_values, report.gauss_deviation, report.asym_deviation)),
        svg=lambda: line_plot(
            [
                ("sup distance to gaussian", report.n_values, report.gauss_deviation),
                ("sup distance to asymptotic", report.n_values, report.asym_deviation),
            ],
            title=f"convergence, {spec.family} m={spec.m}",
            x_label="N",
            y_label="sup distance",
            log_x=True,
            log_y=True,
        ),
    )
    print(
        f"gauss_slope = {format_cell(report.gauss_slope)}, "
        f"asym_slope = {format_cell(report.asym_slope)}"
    )
    return 0


def _cmd_spacings(args) -> int:
    spec = _resolve_spec(args)
    bins = _spacing_bins_from(args)
    stats = closed_form_moments(spec)
    unfolded = unfold(level_support(spec), stats)
    histogram = spacing_distribution(unfolded, bins=bins)
    centers = histogram.bin_centers
    _emit(
        args, "spacings", _config(spec, bins=args.bins, s_max=args.s_max),
        csv=("bin_center,density,poisson_ref,wigner_ref",
             (centers, histogram.density, histogram.poisson_ref, histogram.wigner_ref)),
        svg=lambda: histogram_plot(
            histogram.bin_edges,
            histogram.density,
            [
                ("poisson exp(-s)", centers, histogram.poisson_ref),
                ("wigner surmise", centers, histogram.wigner_ref),
            ],
            title=f"spacing distribution, {spec.family} N={spec.n_spins} m={spec.m}",
            x_label="s",
            y_label="p(s)",
        ),
    )
    mean = float(histogram.spacings.mean())
    print(f"spacings = {histogram.spacings.size}, mean = {format_cell(mean)}")
    print(f"underflow = {unfolded.underflow}")
    return 0


def _check_mass_sweep_work(args, sweep) -> None:
    """Refuse a kscan sweep whose mass DPs would run too long, before its
    first N.  Each N runs one mass DP over its N - 1 bonds, and a bond
    updates polynomials of up to its chain's top energy + 1 cells for each
    of the m spin values; the work is counted as the sum over the sweep of
    (N - 1) x cells x m.  The sum stops at the first N that takes it past
    ``MASS_CEILING``, so an absurd sweep is refused after a few values, and
    each chain's own gates speak before its work is counted."""
    work = 0
    for n in sweep:
        spec = _resolve_spec(args, n)
        work += (n - 1) * (scaled_dispersion_total(spec) + 1) * spec.m
        if work > MASS_CEILING:
            break
    check_grid_budget(f"--n-sweep {args.n_sweep} runs one mass DP per N, (N - 1) x cells x m "
                      f"summed up to N = {n}: {work} units of work", 0, work, MASS_CEILING)


def _cmd_kscan(args) -> int:
    sweep = _parse_sweep(args.n_sweep)
    _check_mass_sweep_work(args, sweep)
    distances = []
    for n in sweep:
        spec = _resolve_spec(args, n)
        distances.append(ks_distance(level_masses(spec), closed_form_moments(spec)))
    _emit(
        args, "kscan", _config(spec, sweep),
        csv=("N,ks_distance", (sweep, distances)),
        svg=lambda: line_plot(
            [("ks distance", sweep, distances)],
            title=f"gaussian fit distance, {spec.family} m={spec.m}",
            x_label="N",
            y_label="ks distance",
            log_x=True,
            log_y=True,
        ),
    )
    print(f"ks distance: first = {format_cell(distances[0])}, last = {format_cell(distances[-1])}")
    return 0


def _cmd_oracle(args) -> int:
    spec = _resolve_spec(args)
    report = oracle_compare(spec)
    _emit(args, "oracle", _config(spec), json=lambda: {"report": report.to_json_dict()})
    print(f"states = {spec.n_states}, affine deviation = {format_cell(report.affine_deviation)}, "
          f"multiplicities match = {report.multiplicities_match}")
    return 0


def _cmd_crosscheck(args) -> int:
    report = run_crosscheck(max_n=args.max_n)
    rows = [
        (result.name, result.spec.family, result.spec.n_spins, result.spec.m,
         f"{result.spec.epsilon:+d}", "" if result.spec.alpha is None else result.spec.alpha,
         result.deviation, int(result.passed))
        for result in report.results
    ]
    _emit(args, "crosscheck", {"max_N": args.max_n},
          csv=("check,family,N,m,epsilon,alpha,deviation,passed", [*zip(*rows)]))
    print(f"checks = {len(report.results)}, failed = {len(report.failures)}")
    for result in report.failures[:10]:
        print(f"FAIL {result.name} {result.spec}", file=sys.stderr)
    return 2 if report.failures else 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_chain_options(parser, sweep=None) -> None:
    """Options naming the chain.  Given a default `sweep`, the subcommand
    runs over an N sweep: --n-sweep replaces --N and --spec, and --family
    and --m become required."""
    parser.add_argument("--family", choices=sorted(_FAMILY_BY_FLAG), type=str.lower,
                        required=sweep is not None, help="chain family")
    if sweep is None:
        parser.add_argument("--N", dest="n_spins", type=int, help="number of spins")
    parser.add_argument("--m", type=int, required=sweep is not None,
                        help="internal states per spin")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ferro", dest="epsilon", action="store_const", const=FERRO,
                       help="ferromagnetic sign (default)")
    group.add_argument("--antiferro", dest="epsilon", action="store_const", const=ANTIFERRO,
                       help="antiferromagnetic sign")
    parser.add_argument("--alpha", default=None,
                        help="hyperbolic-chain parameter, integer or p/q")
    if sweep is None:
        parser.add_argument("--spec", default=None,
                            help="chain spec as inline JSON or a path to a JSON file")
    else:
        parser.add_argument("--n-sweep", default=sweep,
                            help="N sweep as a:b:geometric (doubling) or a:b:step")


def _add_grid_options(parser) -> None:
    parser.add_argument("--t-max", type=float, default=6.0)
    parser.add_argument("--t-points", type=int, default=241)


def _add_backend_option(parser) -> None:
    parser.add_argument("--backend", choices=("dp", "composition", "brute"), default="dp",
                        help="density backend")


def _add_bin_options(parser) -> None:
    parser.add_argument("--bins", type=int, default=40)
    parser.add_argument("--s-max", type=float, default=4.0)


def _add_crosscheck_options(parser) -> None:
    parser.add_argument("--max-N", dest="max_n", type=int, default=12)


class _Command(NamedTuple):
    """One subcommand as both parsers declare it."""

    name: str
    help: str
    handler: Callable
    offered: str  # the formats it writes, comma-separated
    default_format: str
    options: tuple  # functions that add its own options to its parser


_COMMANDS = {command.name: command for command in (
    _Command("density", "exact level density", _cmd_density, "csv,json", "csv",
             (_add_chain_options, _add_backend_option)),
    _Command("moments", "closed-form mean and variance", _cmd_moments, "csv,json", "csv",
             (_add_chain_options,)),
    _Command("charfn", "characteristic function on a t grid", _cmd_charfn, "csv,svg", "csv",
             (_add_chain_options, _add_grid_options)),
    _Command("convergence", "sup-norm distance to the gaussian over N", _cmd_convergence,
             "csv,svg", "csv,svg",
             (functools.partial(_add_chain_options, sweep="16:1024:geometric"),
              _add_grid_options)),
    _Command("spacings", "unfolded spacing histogram", _cmd_spacings, "csv,svg", "csv,svg",
             (_add_chain_options, _add_bin_options)),
    _Command("kscan", "gaussian fit distance over an N sweep", _cmd_kscan, "csv,svg", "csv",
             (functools.partial(_add_chain_options, sweep="16:128:geometric"),)),
    _Command("oracle", "dense-Hamiltonian check of the motif spectrum", _cmd_oracle,
             "json", "json", (_add_chain_options,)),
    _Command("crosscheck", "full internal consistency suite", _cmd_crosscheck, "csv", "csv",
             (_add_crosscheck_options,)),
)}


def _parser(commands) -> argparse.ArgumentParser:
    """The CLI's parser with the subcommands `commands`, in their order."""
    parser = _ArgumentParser(
        prog="hschain",
        description="Exact spectra and level statistics of spin chains of Haldane-Shastry type.",
    )
    parser.add_argument("--version", action="version", version=f"hschain {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command in commands:
        sub = subparsers.add_parser(command.name, help=command.help)
        sub.set_defaults(handler=command.handler, offered=command.offered.split(","))
        sub.add_argument("--out", default="hschain-out", help="output directory")
        sub.add_argument("--format", default=command.default_format,
                         help=f"comma-separated output formats, out of {command.offered}")
        for add_options in command.options:
            add_options(sub)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand, built once per process:
    parsing leaves it as it was, and each parse returns a fresh namespace,
    so every ``main`` call in one process that needs it shares it."""
    return _parser(_COMMANDS.values())


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The CLI's parser with the one subcommand `name`, built once per
    process.  It parses that subcommand's arguments as :func:`build_parser`
    does, with the same help and errors, and builds none of the other
    subcommands' options."""
    return _parser([_COMMANDS[name]])


def main(argv=None) -> int:
    """Run the subcommand that `argv` (``sys.argv[1:]`` when None) names.

    When its first token names a subcommand, only that subcommand's parser
    is built; ``--help``, ``--version`` and a missing or unknown subcommand
    go through the full parser, for its listing and its errors.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _command_parser(argv[0]) if argv and argv[0] in _COMMANDS else build_parser()
    args = parser.parse_args(argv)
    try:
        args.formats = _requested_formats(args)
        return args.handler(args)
    except (ValidationError, CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
