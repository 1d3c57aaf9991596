"""The benchmark's workloads: fixed hschain CLI jobs, run one after another.

Why each exists, and which layer it stresses or bypasses, is recorded in
BENCHMARK.json and README.md next to this file.

The program is deterministic and its cost follows its inputs, so the seed
picks only what leaves the cost unchanged: the sign of the `charfn`
workload's chains, which changes no array shape and no operation count of
the transfer products.  Everywhere else the sign is fixed, because the
DP's cost depends on it (at m=2 the antiferro rule shifts 3 of the 4
source and destination pairs, the ferro rule 1; the HS N=192 m=2 spacings
job took 12.3-13.7 s antiferro against 7.0-7.8 s ferro), and so is the FI
alpha (each step of alpha by 1 grows the DP grid and the level count by
about 2.4 %).
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hschain.chains import ANTIFERRO, FERRO, ChainSpec

import checks

NAMES = ("spacings", "density", "charfn", "oracle")
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

DENSITY_ALPHA = "3/2"
KSCAN_SWEEP = (24, 48, 72, 96)
CONVERGENCE_SWEEP = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
# HS N=192 m=2 has 583,984 distinct levels, so 583,983 spacings (recorded
# from the unmodified program).  Changing the unfolding leaves this count
# alone; a DP that drops, merges or invents levels does not.
SPACINGS_COUNT = 583983


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable  # (outdir, stdout) -> list of problems


def jobs(workload: str, seed: int) -> list:
    if workload == "spacings":
        return [Job(("spacings", "--family", "hs", "--N", "192", "--m", "2",
                     "--format", "csv,svg"),
                    functools.partial(checks.spacings, SPACINGS_COUNT))]
    if workload == "density":
        spec = ChainSpec("FI", 64, 4, ANTIFERRO, Fraction(DENSITY_ALPHA))
        with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
            digests = json.load(handle)  # sha256 of this job's density.csv and density.json
        return [
            Job(("density", "--family", "fi", "--alpha", DENSITY_ALPHA, "--N", "64", "--m", "4",
                 "--antiferro", "--format", "csv,json"),
                functools.partial(checks.density, spec, digests)),
            Job(("kscan", "--family", "hs", "--m", "3", "--n-sweep", "24:96:24"),
                functools.partial(checks.kscan, KSCAN_SWEEP)),
        ]
    if workload == "charfn":
        epsilon = random.Random(seed).choice((FERRO, ANTIFERRO))
        sign = "--ferro" if epsilon == FERRO else "--antiferro"
        return [
            Job(("convergence", "--family", "hs", "--m", "3", "--n-sweep", "16:4096:geometric",
                 sign), functools.partial(checks.convergence, CONVERGENCE_SWEEP)),
            Job(("charfn", "--family", "hs", "--N", "16384", "--m", "3", sign,
                 "--format", "csv,svg"),
                functools.partial(checks.charfn, ChainSpec("HS", 12, 3, epsilon))),
        ]
    if workload == "oracle":
        return [
            Job(("oracle", "--family", "hs", "--N", "7", "--m", "2"),
                functools.partial(checks.oracle, ChainSpec("HS", 7, 2, FERRO))),
            Job(("oracle", "--family", "fi", "--alpha", "2", "--N", "5", "--m", "3"),
                functools.partial(checks.oracle, ChainSpec("FI", 5, 3, FERRO, Fraction(2)))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
