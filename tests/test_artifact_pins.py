"""CLI artifacts against bytes recorded from an earlier version of the
program, so a change to the artifact writer cannot alter them unnoticed.

Exact artifacts are pinned in full.  Float artifacts are pinned only up
to their column line (CSV), the plot title after the comment block (SVG)
or the end of the config object (JSON): their bodies may change
legitimately, for instance when the unfolding of the spectral tails is
corrected.

The files under ``pinned/<case>/`` are the recorded bytes; a case whose
recording holds only a prefix is marked ``full=False`` below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hschain.cli import main

PINNED = Path(__file__).parent / "pinned"
# sha256 of the benchmark's FI N=64 density artifacts, recorded by the benchmark
WORKLOAD_DIGESTS = Path(__file__).parent.parent / "perfbench" / "digests.json"

FI_DENSITY = ["density", "--family", "fi", "--alpha", "3/2", "--N", "5", "--m", "2",
              "--antiferro", "--format", "csv,json"]

# case -> (argv, full)
CASES = {
    "density_dp": (FI_DENSITY, True),
    "density_composition": (FI_DENSITY + ["--backend", "composition"], True),
    "density_brute": (FI_DENSITY + ["--backend", "brute"], True),
    "moments": (["moments", "--family", "hs", "--N", "6", "--m", "3", "--format", "csv,json"],
                True),
    "crosscheck": (["crosscheck", "--max-N", "4"], True),
    "charfn": (["charfn", "--family", "pf", "--N", "6", "--m", "2", "--t-max", "4",
                "--t-points", "17", "--format", "csv,svg"], False),
    "convergence": (["convergence", "--family", "fi", "--alpha", "5/2", "--m", "2",
                     "--n-sweep", "8:24:8", "--antiferro", "--t-max", "3.5"], False),
    "spacings": (["spacings", "--family", "hs", "--N", "12", "--m", "2", "--bins", "10",
                  "--s-max", "3"], False),
    "kscan": (["kscan", "--family", "pf", "--m", "2", "--n-sweep", "8:16:geometric"], False),
    "oracle": (["oracle", "--family", "fi", "--alpha", "2", "--N", "3", "--m", "2",
                "--antiferro"], False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_recorded_bytes(tmp_path, case):
    argv, full = CASES[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    recorded = sorted((PINNED / case).iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == [path.name for path in recorded]
    for path in recorded:
        produced, expected = (tmp_path / path.name).read_bytes(), path.read_bytes()
        if full:
            assert produced == expected, path.name
        else:
            assert produced.startswith(expected), path.name


def test_density_artifacts_at_the_benchmark_size_match_its_digests(tmp_path):
    # FI N=64 m=4: 132,342 levels, 6.2 MB of JSON, where the writer streams its pieces
    argv = ["density", "--family", "fi", "--alpha", "3/2", "--N", "64", "--m", "4",
            "--antiferro", "--format", "csv,json", "--out", str(tmp_path)]
    assert main(argv) == 0
    digests = json.loads(WORKLOAD_DIGESTS.read_text(encoding="utf-8"))
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
