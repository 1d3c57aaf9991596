"""Correctness checks on the artifacts of one CLI job.

Every check takes the job's output directory and the text the job printed,
and returns a list of problems (empty when the output is correct).  Checks
run outside the timed region and never look at timings.

Exact artifacts are held to exact arithmetic and to the sha256 recorded
from the unmodified program (``digests.json``), because the CSV/JSON of an
exact density must stay byte-identical.  Float artifacts are held to their
invariants only: ``spacings.csv`` and ``kscan.csv`` are not pinned, since
fixing the unfolding of the spectral tails changes them legitimately.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction

import numpy as np

from hschain.density import density_dp
from hschain.moments import closed_form_moments
from hschain.transfer import charfn_exact, charfn_from_density, default_t_grid

FLOAT_TOL = 1e-9
CHARFN_TOL = 1e-12
CHARFN_AGREEMENT_TOL = 1e-10
AFFINE_TOL = 1e-8


def read_table(path: str) -> tuple[dict, list, list]:
    """Split a CLI CSV artifact into its header config, column names and rows."""
    config, body = {}, []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for line in lines:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                config[key] = value
        else:
            body.append(line)
    return config, body[0].split(","), [line.split(",") for line in body[1:]]


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _missing(outdir: str, names) -> list:
    return [f"missing artifact {name}" for name in names
            if not os.path.isfile(os.path.join(outdir, name))]


def density(spec, digests: dict, outdir: str, stdout: str) -> list:
    """density.csv and density.json: degeneracies sum to m**N, the
    empirical moments equal the closed form exactly, the two artifacts
    list the same levels, and both match their recorded sha256."""
    problems = _missing(outdir, ("density.csv", "density.json"))
    if problems:
        return problems
    csv_path = os.path.join(outdir, "density.csv")
    json_path = os.path.join(outdir, "density.json")
    for name, path in (("density.csv", csv_path), ("density.json", json_path)):
        if sha256_of(path) != digests[name]:
            problems.append(f"{name} differs from its recorded sha256")
    _, columns, rows = read_table(csv_path)
    if columns != ["energy", "degeneracy"]:
        return problems + [f"density.csv columns are {columns}"]
    levels = {energy: int(degeneracy) for energy, degeneracy in rows}
    total = spec.m ** spec.n_spins
    if sum(levels.values()) != total:
        problems.append("density.csv degeneracies do not sum to m**N")
    if any(d < 1 for d in levels.values()):
        problems.append("density.csv has a non-positive degeneracy")
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)["density"]
    if payload["total"] != total or sum(payload["levels"].values()) != total:
        problems.append("density.json degeneracies do not sum to m**N")
    if payload["levels"] != levels:
        problems.append("density.json and density.csv list different levels")
    # Exact moments on the common integer grid of the energies.
    energies = [Fraction(text) for text in levels]
    scale = math.lcm(*(e.denominator for e in energies))
    first = second = 0
    for energy, degeneracy in zip(energies, levels.values()):
        scaled = energy.numerator * (scale // energy.denominator)
        first += scaled * degeneracy
        second += scaled * scaled * degeneracy
    mu = Fraction(first, scale * total)
    sigma2 = Fraction(second, scale * scale * total) - mu * mu
    stats = closed_form_moments(spec)
    if (mu, sigma2) != (stats.mu, stats.sigma2):
        problems.append("density.csv moments differ from the closed form")
    return problems


def kscan(sweep, outdir: str, stdout: str) -> list:
    """kscan.csv: one finite distance in (0, 1] per swept N."""
    problems = _missing(outdir, ("kscan.csv",))
    if problems:
        return problems
    _, _, rows = read_table(os.path.join(outdir, "kscan.csv"))
    if [int(n) for n, _ in rows] != list(sweep):
        return [f"kscan.csv rows are not the sweep {list(sweep)}"]
    for n, value in rows:
        if not 0.0 < float(value) <= 1.0:
            problems.append(f"kscan.csv distance at N={n} is {value}")
    return problems


def _svg_problems(outdir: str, name: str) -> list:
    with open(os.path.join(outdir, name), "r", encoding="utf-8") as handle:
        text = handle.read()
    if "<svg" not in text or not text.rstrip().endswith("</svg>"):
        return [f"{name} is not a complete svg document"]
    return []


def spacings(count: int, outdir: str, stdout: str) -> list:
    """The job printed `count` spacings, that is, one per pair of adjacent
    distinct levels; its mean spacing is 1 and spacings.csv integrates to 1.
    The last two hold by construction of the normalisation, so only the
    count can see levels dropped, merged or invented."""
    problems = _missing(outdir, ("spacings.csv", "spacings.svg"))
    if problems:
        return problems
    config, _, rows = read_table(os.path.join(outdir, "spacings.csv"))
    edges = np.linspace(0.0, float(config["s_max"]), int(config["bins"]) + 1)
    heights = np.array([float(row[1]) for row in rows])
    if heights.size != edges.size - 1:
        problems.append(f"spacings.csv has {heights.size} bins, expected {edges.size - 1}")
    elif abs(float((heights * np.diff(edges)).sum()) - 1.0) > FLOAT_TOL:
        problems.append("spacing histogram does not integrate to 1")
    match = re.search(r"spacings = (\d+), mean = (\S+)", stdout)
    if match is None:
        problems.append("spacings summary line not printed")
    else:
        if int(match.group(1)) != count:
            problems.append(f"{match.group(1)} spacings, expected {count}")
        if abs(float(match.group(2)) - 1.0) > FLOAT_TOL:
            problems.append(f"mean spacing is {match.group(2)}, expected 1")
    return problems + _svg_problems(outdir, "spacings.svg")


def convergence(sweep, outdir: str, stdout: str) -> list:
    """convergence.csv: one finite positive deviation pair per swept N."""
    problems = _missing(outdir, ("convergence.csv", "convergence.svg"))
    if problems:
        return problems
    _, _, rows = read_table(os.path.join(outdir, "convergence.csv"))
    if [int(row[0]) for row in rows] != list(sweep):
        return [f"convergence.csv rows are not the sweep {list(sweep)}"]
    for row in rows:
        if not all(0.0 < float(v) < math.inf for v in row[1:]):
            problems.append(f"convergence.csv deviations at N={row[0]} are {row[1:]}")
    return problems + _svg_problems(outdir, "convergence.svg")


def charfn(small_spec, outdir: str, stdout: str) -> list:
    """charfn.csv: phi(0) = 1 and |phi| <= 1 for both curves; and the
    transfer product agrees with the density transform on a small chain."""
    problems = _missing(outdir, ("charfn.csv", "charfn.svg"))
    if problems:
        return problems
    _, _, rows = read_table(os.path.join(outdir, "charfn.csv"))
    table = np.array(rows, dtype=float)
    t = table[:, 0]
    exact = table[:, 1] + 1j * table[:, 2]
    asym = table[:, 3] + 1j * table[:, 4]
    zero = int(np.argmin(np.abs(t)))
    if abs(t[zero]) > CHARFN_TOL or abs(exact[zero] - 1.0) > CHARFN_TOL:
        problems.append(f"charfn at t=0 is {exact[zero]}, expected 1")
    if np.abs(exact).max() > 1.0 + CHARFN_TOL or np.abs(asym).max() > 1.0 + CHARFN_TOL:
        problems.append("|charfn| exceeds 1")
    stats = closed_form_moments(small_spec)
    grid = default_t_grid()
    gap = np.abs(
        charfn_exact(small_spec, stats, grid)
        - charfn_from_density(density_dp(small_spec), stats, grid)
    ).max()
    if gap > CHARFN_AGREEMENT_TOL:
        problems.append(f"charfn_exact and charfn_from_density differ by {gap:.3e}")
    return problems + _svg_problems(outdir, "charfn.svg")


def oracle(spec, outdir: str, stdout: str) -> list:
    """oracle.json: every eigenvalue present, multiplicities match, and the
    affine deviation is below 1e-8."""
    problems = _missing(outdir, ("oracle.json",))
    if problems:
        return problems
    with open(os.path.join(outdir, "oracle.json"), "r", encoding="utf-8") as handle:
        report = json.load(handle)["report"]
    if len(report["eigenvalues"]) != spec.n_states:
        problems.append(f"oracle found {len(report['eigenvalues'])} eigenvalues, expected {spec.n_states}")
    if not report["multiplicities_match"]:
        problems.append("oracle multiplicities do not match")
    if not report["affine_deviation"] < AFFINE_TOL:
        problems.append(f"oracle affine deviation is {report['affine_deviation']}")
    return problems
