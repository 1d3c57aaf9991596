"""Exact level-density tables and the cell and CSV text format of every
artifact."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ValidationError

# Bytes a density backend may hold at once: the predicted peak of the bond
# recursion in hschain.density, or the dense grids of the other backends.
DEFAULT_MEMORY_BUDGET = 1 << 30


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or plain "p" when integral."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_cell(value) -> str:
    """Render one artifact cell: floats with 17 significant digits,
    rationals as "p/q", anything else (ints, strings) as str does."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def check_grid_budget(backend: str, cells: int, grids: int) -> None:
    """Raise CapacityError, before any is allocated, if `grids` arrays of
    `cells` energy cells at 8 bytes a cell exceed ``DEFAULT_MEMORY_BUDGET``."""
    if 8 * cells * grids > DEFAULT_MEMORY_BUDGET:
        raise CapacityError(f"{backend} needs {grids} grids of {cells} cells x 8 bytes, "
                            f"over the budget of {DEFAULT_MEMORY_BUDGET}")


def csv_text(header_lines, columns: str, lines) -> str:
    """CSV artifact text from header lines, the column line and
    already formatted row lines.  The trailing "" ends the text with a
    newline without copying it once more."""
    return "\n".join([*(f"# {h}" for h in header_lines), columns, *lines, ""])


@dataclass
class DensityTable:
    """Exact level density as two aligned arrays.

    ``scaled`` holds the distinct levels in ascending order as int64, on an
    integer grid: a level's entry is its true energy multiplied by
    ``energy_scale`` (1 for HS and PF chains, the denominator of alpha for
    FI chains).  ``degeneracies`` holds the matching exact Python ints, all
    positive.  ``total`` is the full state count m**N; the degeneracies
    always sum to it exactly.
    """

    scaled: np.ndarray
    degeneracies: tuple
    energy_scale: int = 1
    total: int = 0

    def __post_init__(self):
        if self.energy_scale < 1:
            raise ValidationError(f"energy_scale must be >= 1, got {self.energy_scale}")
        self.scaled = np.array(self.scaled, dtype=np.int64)
        self.scaled.setflags(write=False)
        self.degeneracies = tuple(self.degeneracies)
        if self.scaled.shape != (len(self.degeneracies),):
            raise ValidationError(
                f"levels of shape {self.scaled.shape} for {len(self.degeneracies)} degeneracies"
            )
        if np.any(self.scaled[1:] <= self.scaled[:-1]):
            raise ValidationError("levels must be distinct and ascending")
        if self.degeneracies and min(self.degeneracies) < 1:
            raise ValidationError("degeneracies must be positive integers")
        mass = sum(self.degeneracies)
        if mass != self.total:
            raise ValidationError(
                f"degeneracies sum to {mass}, expected total {self.total}"
            )

    def __len__(self):
        return len(self.degeneracies)

    def __eq__(self, other):
        if not isinstance(other, DensityTable):
            return NotImplemented
        # Tables with different scales can still describe the same density:
        # compare the levels on the common grid of both scales.
        grid = math.lcm(self.energy_scale, other.energy_scale)
        return (self.total == other.total
                and self.degeneracies == other.degeneracies
                and np.array_equal(self.scaled * (grid // self.energy_scale),
                                   other.scaled * (grid // other.energy_scale)))

    def levels(self) -> np.ndarray:
        """Scaled integer energies in ascending order, a read-only int64 array."""
        return self.scaled

    def energy(self, scaled: int) -> Fraction:
        return Fraction(int(scaled), self.energy_scale)

    def items(self):
        """(scaled energy, degeneracy) pairs in ascending energy order."""
        return list(zip(self.scaled.tolist(), self.degeneracies))

    def _energy_texts(self) -> list:
        """Every level as :func:`format_rational` writes its energy, reduced
        over the whole array at once."""
        common = np.gcd(self.scaled, self.energy_scale)
        numerators = (self.scaled // common).tolist()
        denominators = (self.energy_scale // common).tolist()
        return [f"{p}/{q}" if q != 1 else str(p) for p, q in zip(numerators, denominators)]

    def to_csv(self, header_lines=()) -> str:
        return csv_text(header_lines, "energy,degeneracy",
                        map("{},{}".format, self._energy_texts(), self.degeneracies))

    def to_json_dict(self) -> dict:
        return {
            "energy_scale": self.energy_scale,
            "total": self.total,
            "levels": dict(zip(self._energy_texts(), self.degeneracies)),
        }

    @classmethod
    def from_counts(cls, counts: dict, energy_scale: int = 1) -> "DensityTable":
        """Table from a {scaled energy: degeneracy} map; zero counts drop out."""
        pairs = sorted((int(e), int(d)) for e, d in counts.items() if d)
        degeneracies = tuple(d for _, d in pairs)
        return cls(np.array([e for e, _ in pairs], dtype=np.int64), degeneracies,
                   energy_scale, sum(degeneracies))

    @classmethod
    def from_grid(cls, counts: np.ndarray, energy_scale: int, total: int) -> "DensityTable":
        """Table from a dense count array indexed by scaled energy."""
        occupied = np.flatnonzero(counts)
        return cls(occupied, tuple(int(c) for c in counts[occupied].tolist()),
                   energy_scale, total)
