"""Exact level-density tables and the cell and CSV text format of every
artifact."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import CapacityError, ValidationError

# The limits of check_grid_budget, the gate of every backend: the bytes any
# backend may hold at once, then each backend's work in the unit its time
# follows (single runs on a 2-vCPU Xeon).
DEFAULT_MEMORY_BUDGET = 1 << 30
# Brute force: m**N states, about 30 ns per state and bond (80 s at N = 26).
ENUMERATION_CEILING = 10 ** 8
# Composition sum: byte-updates of its packed rows (row updates x cells x slot
# bytes), 0.5 to 1.2 ns each.  About 10 s: PF N=200 m=2, just past it at
# 1.08e10, took 9.0 s.
COMPOSITION_CEILING = 10 ** 10
# Dense oracle: size**3 summed over the blocks it solves, about 0.25 us each
# (HS N=13 m=2 makes 1.69e8 over its momentum blocks and took 46 s).
ORACLE_CEILING = 15 * 10 ** 8  # HS N=14 m=2 makes 1.39e9, PF N=12 m=2 8.3e8
# Transfer products of a convergence sweep: bonds x (m x |t| values + 256),
# 7 to 50 ns each.  About 25 s: PF m=2 over N = 16..2000 in steps of 1,
# 9.95e8 on the default grid, took 22.7 s.
TRANSFER_CEILING = 10 ** 9
# Mass DPs of a kscan sweep: (N - 1) x cells x m summed over its N, 0.5 to
# 2.6 ns each (PF m=2 the cheapest, HS m=16 the dearest).  About 25 s: HS m=3
# over N = 150..200 in steps of 2, 1.27e10, took 30.2 s.
MASS_CEILING = 10 ** 10

# Levels in one piece of the density CSV and JSON texts.
_PIECE_LEVELS = 4096
# Bytes of one work array of the numpy kernels: the complex run steps of one
# block of bonds in charfn_exact, the real Chebyshev factors of one chunk of t
# rows in charfn_asymptotic, and one piece of standard scores in the
# unfolding's erfc kernel.
_CHUNK_BYTES = 1 << 19


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


def check_grid_budget(prediction: str, nbytes: int, work: int = 0, ceiling: int = 0) -> None:
    """Raise CapacityError, before anything is allocated, if the predicted
    `nbytes` exceed ``DEFAULT_MEMORY_BUDGET`` or the predicted `work`
    exceeds its `ceiling`; `prediction` states the arithmetic behind both."""
    if nbytes > DEFAULT_MEMORY_BUDGET or work > ceiling:
        over = nbytes > DEFAULT_MEMORY_BUDGET
        limit = f"budget of {DEFAULT_MEMORY_BUDGET}" if over else f"ceiling of {ceiling}"
        raise CapacityError(f"{prediction}, over the {limit}")


def csv_text(header_lines, columns: str, lines) -> str:
    """CSV artifact text from header lines, the column line and
    already formatted row lines.  The trailing "" ends the text with a
    newline without copying it once more."""
    return "\n".join([*(f"# {h}" for h in header_lines), columns, *lines, ""])


class DensityTable:
    """Exact level density as two aligned arrays.

    ``scaled`` holds the distinct levels in ascending order as int64, on an
    integer grid: a level's entry is its true energy multiplied by
    ``energy_scale`` (1 for HS and PF chains, the denominator of alpha for
    FI chains).  ``degeneracies`` holds the matching exact Python ints, all
    positive.  ``total`` is the full state count m**N; the degeneracies
    always sum to it exactly.
    """

    def __init__(self, scaled, degeneracies, energy_scale: int = 1, total: int = 0):
        if energy_scale < 1:
            raise ValidationError(f"energy_scale must be >= 1, got {energy_scale}")
        self.energy_scale, self.total = energy_scale, total
        self.scaled = np.array(scaled, dtype=np.int64)
        self.scaled.setflags(write=False)
        self.degeneracies = tuple(degeneracies)
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
        return (self.energy_scale == other.energy_scale and self.total == other.total
                and self.degeneracies == other.degeneracies
                and np.array_equal(self.scaled, other.scaled))

    def levels(self) -> np.ndarray:
        """Scaled integer energies in ascending order, a read-only int64 array."""
        return self.scaled

    def energy(self, scaled: int) -> Fraction:
        return Fraction(int(scaled), self.energy_scale)

    def items(self):
        """(scaled energy, degeneracy) pairs in ascending energy order."""
        return list(zip(self.scaled.tolist(), self.degeneracies))

    def cdf_steps(self) -> np.ndarray:
        """The empirical cumulative distribution below the first level and
        after each level: every running count over the total, each in one
        correctly rounded true division."""
        return np.fromiter((c / self.total for c in accumulate(self.degeneracies, initial=0)),
                           dtype=float, count=len(self) + 1)

    @cached_property
    def _energy_texts(self) -> list:
        """Every level as :func:`format_rational` writes its energy, reduced
        over the whole array at once, for both artifacts."""
        common = np.gcd(self.scaled, self.energy_scale)
        numerators = (self.scaled // common).tolist()
        denominators = (self.energy_scale // common).tolist()
        return [f"{p}/{q}" if q != 1 else str(p) for p, q in zip(numerators, denominators)]

    def to_csv(self, header_lines=()) -> str:
        """The density CSV as one text, joined from the pieces the CLI
        writes one after another (:meth:`_csv_pieces`)."""
        return "".join(self._csv_pieces(header_lines))

    def _csv_pieces(self, header_lines):
        """Yield the density CSV in pieces: the header and column text,
        then the lines "energy,degeneracy", `_PIECE_LEVELS` levels a piece,
        so no text of the whole file is built."""
        yield csv_text(header_lines, "energy,degeneracy", ())
        texts, degeneracies = self._energy_texts, self.degeneracies
        for start in range(0, len(texts), _PIECE_LEVELS):
            stop = start + _PIECE_LEVELS
            yield "".join([f"{text},{count}\n"
                           for text, count in zip(texts[start:stop], degeneracies[start:stop])])

    def to_json_dict(self) -> dict:
        """The density's JSON payload: its energy scale, its total and its
        levels.  ``levels`` is a function of the indent of the levels object
        that yields, in pieces, that object's text as
        ``json.dumps(indent=2, sort_keys=True)`` writes the energy-text to
        degeneracy dict; no such dict is built."""
        return {
            "energy_scale": self.energy_scale,
            "total": self.total,
            "levels": self._json_levels,
        }

    def _json_levels(self, pad: str):
        """Yield the levels object `pad` deep, keys in sort_keys order.  An
        energy text holds only digits, "-" and "/", which json writes
        unescaped, and json writes an int as ``int.__repr__`` does, so each
        item is written here directly, `_PIECE_LEVELS` items a piece.  The
        key order is one int64 argsort of the texts as ASCII bytes, whose
        order is the texts' own; each piece takes its indices from it as
        Python ints.  The texts are distinct, so any sort gives that order;
        the stable one runs about 4x faster on them than the default.  A
        piece is one %-format of its texts and degeneracies, interleaved,
        whose format text is made once for every full piece."""
        texts, degeneracies = self._energy_texts, self.degeneracies
        if not texts:
            yield "{}"
            return
        order = np.argsort(np.array(texts, dtype=np.bytes_), kind="stable")
        separator = f",\n{pad}  "
        lead = f"{{\n{pad}  "
        item = '"%s": %s'
        full = separator.join([item] * _PIECE_LEVELS)
        for start in range(0, len(order), _PIECE_LEVELS):
            index = order[start:start + _PIECE_LEVELS].tolist()
            cells = [None] * (2 * len(index))
            cells[::2] = [texts[i] for i in index]
            cells[1::2] = [degeneracies[i] for i in index]
            form = full if len(index) == _PIECE_LEVELS else separator.join([item] * len(index))
            yield lead
            yield form % tuple(cells)
            lead = separator
        yield f"\n{pad}}}"
