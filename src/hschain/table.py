"""Exact level-density tables and the cell and CSV text format of every
artifact."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError


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


def csv_text(header_lines, columns: str, lines) -> str:
    """CSV artifact text from header lines, the column line and
    already formatted row lines.  The trailing "" ends the text with a
    newline without copying it once more."""
    return "\n".join([*(f"# {h}" for h in header_lines), columns, *lines, ""])


@dataclass
class DensityTable:
    """Map from energy level to exact integer degeneracy.

    Energies are stored on an integer grid: the key of a level is its true
    energy multiplied by ``energy_scale`` (1 for HS and PF chains, the
    denominator of alpha for FI chains).  ``total`` is the full state count
    m**N; the degeneracies always sum to it exactly.
    """

    entries: dict = field(default_factory=dict)
    energy_scale: int = 1
    total: int = 0

    def __post_init__(self):
        if self.energy_scale < 1:
            raise ValidationError(f"energy_scale must be >= 1, got {self.energy_scale}")
        if any(d < 1 for d in self.entries.values()):
            raise ValidationError("degeneracies must be positive integers")
        mass = sum(self.entries.values())
        if mass != self.total:
            raise ValidationError(
                f"degeneracies sum to {mass}, expected total {self.total}"
            )

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, DensityTable):
            return NotImplemented
        # Tables with different scales can still describe the same density.
        return self.total == other.total and sorted(
            (Fraction(e, self.energy_scale), d) for e, d in self.entries.items()
        ) == sorted((Fraction(e, other.energy_scale), d) for e, d in other.entries.items())

    def levels(self) -> list:
        """Scaled integer energies in ascending order."""
        return sorted(self.entries)

    def energy(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.energy_scale)

    def energies(self) -> list:
        """True energies as Fractions, ascending."""
        return [self.energy(e) for e in self.levels()]

    def items(self):
        """(scaled energy, degeneracy) pairs in ascending energy order."""
        return [(e, self.entries[e]) for e in self.levels()]

    def degeneracy(self, scaled: int) -> int:
        return self.entries.get(scaled, 0)

    def to_csv(self, header_lines=()) -> str:
        return csv_text(header_lines, "energy,degeneracy",
                        (f"{format_rational(self.energy(e))},{d}" for e, d in self.items()))

    def to_json_dict(self) -> dict:
        return {
            "energy_scale": self.energy_scale,
            "total": self.total,
            "levels": {format_rational(self.energy(e)): d for e, d in self.items()},
        }

    @classmethod
    def from_counts(cls, counts: dict, energy_scale: int = 1) -> "DensityTable":
        entries = {int(e): int(d) for e, d in counts.items() if d}
        return cls(entries=entries, energy_scale=energy_scale, total=sum(entries.values()))
