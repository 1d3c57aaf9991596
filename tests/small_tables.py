"""The one way the tests build a small exact density table by hand."""

import numpy as np

from hschain import DensityTable


def table_of(counts: dict, energy_scale: int = 1) -> DensityTable:
    """Table from a {scaled energy: degeneracy} map; zero counts drop out."""
    pairs = sorted((e, d) for e, d in counts.items() if d)
    degeneracies = [d for _, d in pairs]
    return DensityTable(np.array([e for e, _ in pairs], dtype=np.int64), degeneracies,
                        energy_scale, sum(degeneracies))
