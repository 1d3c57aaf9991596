"""Motif encoding of spin configurations and brute-force spectra.

A spin configuration is a tuple (n_1, ..., n_N) with entries in 1..m.  Its
motif is the bit vector of length N-1 obtained by applying the pairing rule
of the chain's sign to consecutive entries, :func:`delta_bits`: the bit
of n_i, n_(i+1) is set iff n_i < n_(i+1) for the ferromagnetic chain and
iff n_i >= n_(i+1) for the antiferromagnetic one.  The chain energy is the dispersion-weighted sum of those bits.  Enumerating all
m**N configurations therefore yields the exact level density, which is what
:func:`brute_force_density` does (vectorised, in blocks).  It is
deliberately independent of the transfer-matrix dynamic program in
:mod:`hschain.density`, and applies the antiferromagnetic rule itself
where that program reflects the ferromagnetic levels, so it serves as its
oracle at small sizes.
"""

from __future__ import annotations

import numpy as np

from .chains import FERRO, ChainSpec, dispersion, scaled_dispersion_total
from .table import ENUMERATION_CEILING, DensityTable, check_grid_budget

# Degeneracies are exact Python integers throughout; numpy counts are only
# used below the 2**63 overflow line and converted on the way out.

_BLOCK = 1 << 18


def delta_bits(epsilon: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pairing rule of the sign `epsilon` over left and right spin
    values a and b, scalars or arrays, which broadcast: a < b for the
    ferromagnetic chain, a >= b for the antiferromagnetic one.  The one
    definition of the motif bit."""
    return a < b if epsilon == FERRO else a >= b


def brute_force_density(spec: ChainSpec) -> DensityTable:
    """Exact level density by enumerating all m**N spin configurations.

    Configurations are the base-m digit expansions of the codes 0..m**N - 1,
    taken in blocks of ``_BLOCK`` codes.  A block peels the digits off its
    codes from the last spin to the first, carrying each spin's right-hand
    neighbour, adds the dispersion value of every set motif bit to the
    codes' energies and counts them on the scaled integer energy grid.
    The result is independent of the block size.

    Raises
    ------
    CapacityError
        If m**N exceeds ``ENUMERATION_CEILING``; density_dp handles large N
        in polynomial time.  Also if the count grid, one block's counts (two
        int64 grids) and a block's five int64 arrays and its motif bits (41
        bytes a code, whatever N is) exceed the memory budget.
    """
    n, m = spec.n_spins, spec.m
    top = scaled_dispersion_total(spec)
    # m**min(N, 64) is m**N wherever it is within the ceiling, and refused
    # like it elsewhere, without forming a number of N digits
    check_grid_budget(f"enumeration needs 2 grids of {top + 1} cells x 8 bytes and 41 bytes "
                      f"for each of a block's {_BLOCK} codes, and visits m**N = {m}**{n} "
                      "states (density_dp takes larger chains)",
                      16 * (top + 1) + 41 * _BLOCK, m ** min(n, 64), ENUMERATION_CEILING)
    total = spec.n_states
    disp = dispersion(spec)
    weights = np.array(disp.scaled, dtype=np.int64)
    counts = np.zeros(top + 1, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        right = codes % m + 1  # the last spin's value
        energies = np.zeros(len(codes), dtype=np.int64)
        for i in range(n - 2, -1, -1):
            codes //= m
            left = codes % m + 1
            np.add(energies, weights[i], out=energies, where=delta_bits(spec.epsilon, left, right))
            right = left
        counts += np.bincount(energies, minlength=top + 1)
    occupied = np.flatnonzero(counts)
    return DensityTable(occupied, counts[occupied].tolist(), disp.energy_scale, total)
