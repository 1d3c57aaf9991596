"""Motif encoding of spin configurations and brute-force spectra.

A spin configuration is a tuple (n_1, ..., n_N) with entries in 1..m.  Its
motif is the bit vector of length N-1 obtained by applying a pairing rule
to consecutive entries; the chain energy is the dispersion-weighted sum of
those bits.  Enumerating all m**N configurations therefore yields the exact
level density, which is what :func:`brute_force_density` does (vectorised,
in blocks).  It is deliberately independent of the transfer-matrix dynamic
program in :mod:`hschain.density` and serves as its oracle at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chains import FERRO, ChainSpec, DispersionTable, dispersion
from .errors import CapacityError, ValidationError
from .table import DensityTable, check_grid_budget

# Degeneracies are exact Python integers throughout; numpy counts are only
# used below the 2**63 overflow line and converted on the way out.

DEFAULT_ENUMERATION_CAP = 10 ** 8
_BLOCK = 1 << 18


@dataclass(frozen=True)
class DeltaRule:
    """Pairing rule turning two neighbouring spin values into a motif bit.

    kind "ferro":      bit = 1 iff j < k
    kind "antiferro":  bit = 1 iff j >= k   (0 and 1 exchanged)
    kind "susy":       bit = 1 iff j > k or j = k > boundary, for a graded
                       chain with `boundary` bosonic values out of
                       m = boundary + fermionic values in total.

    The susy rule is exposed for spectrum generation only; none of the
    transfer-matrix analysis applies to it.
    """

    kind: str
    boundary: int | None = None
    fermionic: int | None = None

    def __post_init__(self):
        if self.kind not in ("ferro", "antiferro", "susy"):
            raise ValidationError(f"unknown delta rule kind {self.kind!r}")
        if self.kind == "susy":
            n, np_ = self.boundary, self.fermionic
            if n is None or np_ is None or n < 0 or np_ < 0 or n + np_ < 1:
                raise ValidationError(
                    f"susy rule needs boundary >= 0 and fermionic >= 0, got ({n}, {np_})"
                )
        elif self.boundary is not None or self.fermionic is not None:
            raise ValidationError(f"{self.kind} rule takes no boundary parameters")

    @classmethod
    def ferro(cls) -> "DeltaRule":
        return cls("ferro")

    @classmethod
    def antiferro(cls) -> "DeltaRule":
        return cls("antiferro")

    @classmethod
    def susy(cls, boundary: int, fermionic: int) -> "DeltaRule":
        return cls("susy", boundary, fermionic)

    def implied_m(self) -> int | None:
        """Internal dimension fixed by the rule, if any (susy only)."""
        if self.kind == "susy":
            return self.boundary + self.fermionic
        return None


def rule_for(spec: ChainSpec) -> DeltaRule:
    """Default pairing rule of a spec: ferro for epsilon=+1, else antiferro."""
    return DeltaRule.ferro() if spec.epsilon == FERRO else DeltaRule.antiferro()


def _check_rule_m(rule: DeltaRule, m: int):
    implied = rule.implied_m()
    if implied is not None and implied != m:
        raise ValidationError(
            f"susy rule fixes m = {implied}, but m = {m} was requested"
        )


def delta(rule: DeltaRule, j: int, k: int, m: int) -> int:
    """Motif bit for the ordered pair of spin values (j, k), 1 <= j, k <= m."""
    if not (1 <= j <= m and 1 <= k <= m):
        raise ValidationError(f"spin values ({j}, {k}) out of range 1..{m}")
    return int(delta_bits(rule, j, k, m))


def delta_bits(rule: DeltaRule, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The pairing rule over left and right spin values: scalars or
    arrays, which broadcast.  The one definition of every rule."""
    _check_rule_m(rule, m)
    if rule.kind == "ferro":
        return a < b
    if rule.kind == "antiferro":
        return a >= b
    return (a > b) | ((a == b) & (a > rule.boundary))


def motif_of(rule: DeltaRule, config, m: int) -> tuple:
    """Motif bit vector of one spin configuration."""
    config = tuple(int(v) for v in config)
    if len(config) < 2:
        raise ValidationError("configurations need at least two spins")
    return tuple(delta(rule, config[i], config[i + 1], m) for i in range(len(config) - 1))


def motif_energy(motif, disp: DispersionTable) -> Fraction:
    """Energy of a motif: sum of dispersion values over the set bits."""
    motif = tuple(int(b) for b in motif)
    if len(motif) != len(disp):
        raise ValidationError(
            f"motif length {len(motif)} does not match dispersion length {len(disp)}"
        )
    if any(b not in (0, 1) for b in motif):
        raise ValidationError("motif entries must be 0 or 1")
    return sum((v for b, v in zip(motif, disp.values) if b), Fraction(0))


def brute_force_density(
    spec: ChainSpec,
    rule: DeltaRule | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DensityTable:
    """Exact level density by enumerating all m**N spin configurations.

    Configurations are generated in blocks as base-m digit expansions and
    their motif energies accumulated on the scaled integer energy grid.
    The result is independent of the block size.

    Raises
    ------
    CapacityError
        If m**N exceeds `cap` (default 1e8); use density_dp instead,
        which handles large N in polynomial time.  Also if the count grid
        and one block's counts, two int64 grids, exceed the memory budget.
    """
    if rule is None:
        rule = rule_for(spec)
    _check_rule_m(rule, spec.m)
    n, m = spec.n_spins, spec.m
    total = spec.n_states
    if total > cap:
        raise CapacityError(
            f"m**N = {total} exceeds the enumeration cap {cap}; "
            "use density_dp for chains of this size"
        )
    disp = dispersion(spec)
    weights = np.array(disp.scaled, dtype=np.int64)
    top = disp.scaled_total
    check_grid_budget("enumeration", top + 1, 2)
    counts = np.zeros(top + 1, dtype=np.int64)
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        digits = (codes[:, None] // place[None, :]) % m + 1
        energies = np.zeros(len(codes), dtype=np.int64)
        for i in range(n - 1):
            bits = delta_bits(rule, digits[:, i], digits[:, i + 1], m)
            energies += bits * weights[i]
        counts += np.bincount(energies, minlength=top + 1)
    return DensityTable.from_grid(counts, disp.energy_scale, total)
