"""Exact level-density tables and the text of every artifact: the cell
format, the CSV writer and the JSON encoder."""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .errors import CapacityError, ValidationError

# The limits of check_grid_budget, the gate of every backend: the bytes any
# backend may hold at once, then each backend's work in the unit its time
# follows (single runs on a 2-vCPU Xeon).
DEFAULT_MEMORY_BUDGET = 1 << 30
# Brute force: m**N states, about 30 ns per state and bond (80 s at N = 26).
ENUMERATION_CEILING = 10 ** 8
# Composition sum: byte-updates of its packed rows (row updates x cells x slot
# bytes), 0.5 to 1.2 ns each: PF N=190 m=2, 7.82e9, took 4.6 to 5.4 s.  About
# 10 s: PF N=200 m=2, just past it at 10,000,252,500 (25-byte slots), took
# 9.0 s at 1.08e10 while its slots held m**N and a spare byte.
COMPOSITION_CEILING = 10 ** 10
# Dense oracle: size**3 + 252 x size**2 summed over the blocks it solves (the
# Householder reduction and the Sturm multisection), 64 a state for each
# exchange pair that builds a solved sector, and 252 x N**2 for the
# multisection that finds the PF and FI sites; 1.7 to 2.4 ns each in process
# (best of five runs: HS N=13 and 14 m=2, PF N=1000 to 3500 m=1).  About a
# minute: HS N=7 m=7, 1.31e10, took 32.5 s and HS N=15 m=2, 9.75e9, 23.0 s;
# PF N=8 m=5 makes 2.46e10 and PF N=14 m=2 5.14e10.  PF N=5262 m=1, the
# longest single-valued chain the motif side admits, makes 7.86e9.
ORACLE_CEILING = 2 * 10 ** 10
# Transfer products of a convergence sweep: bonds x (m x |t| values + 256),
# 7 to 50 ns each.  About 25 s: PF m=2 over N = 16..2000 in steps of 1,
# 9.95e8 on the default grid, took 22.7 s.  The count takes all N - 1 bonds;
# an HS chain runs only the first ceil((N - 1)/2) of them, so for HS the
# count errs safe by about 2x.
TRANSFER_CEILING = 10 ** 9
# Mass DPs of a kscan sweep: (N - 1) x cells x m summed over its N, 0.16 to
# 1.5 ns each in process (PF m=2 the cheapest, HS m=16 the dearest).  About
# 10 s: HS m=3 over N = 150..200 in steps of 2, 1.27e10, took 8.5 s, and 14.4 s
# while each bond divided the states by m.
MASS_CEILING = 10 ** 10

# Rows in one piece of a CSV text, and levels in one piece of the density JSON
# text.
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


def _interleaved(item: str, separator: str, columns) -> str:
    """One piece of the aligned `columns`: `item`, a %-format of one cell
    of each column, written for each row and joined by `separator`, as one
    %-format over the columns' cells, interleaved (a numpy column taken as
    Python scalars)."""
    rows, width = len(columns[0]), len(columns)
    cells = [None] * (rows * width)
    for index, column in enumerate(columns):
        cells[index::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return separator.join([item] * rows) % tuple(cells)


def csv_pieces(header_lines, names: str, columns, row: str | None = None):
    """Yield a CSV artifact in pieces: the header lines, each after "# ",
    and the column line `names`, then the rows of the aligned `columns`,
    `_PIECE_LEVELS` rows a piece, so no text of the whole file is built.

    `row` is the %-format of one row, cells and newline; by default each
    cell is written as :func:`format_cell` writes it: a column whose first
    cell is a float with 17 significant digits, any other (ints, strings,
    Fractions) as str writes it."""
    yield "".join([f"# {line}\n" for line in header_lines] + [names, "\n"])
    rows = len(columns[0])
    if not rows:
        return
    if row is None:
        row = ",".join(["%.17g" if isinstance(column[0], float) else "%s"
                        for column in columns]) + "\n"
    for start in range(0, rows, _PIECE_LEVELS):
        yield _interleaved(row, "", [column[start:start + _PIECE_LEVELS] for column in columns])


def json_pieces(payload, pad: str = ""):
    """The pieces of ``json.dumps(payload, indent=2, sort_keys=True)``, byte
    for byte, for payloads with string keys, nested `pad` deep, where a 1-d
    float array is written as its list of floats.

    An indent sends the whole payload through json's pure-Python encoder.
    Here a value given as a function (the levels of
    :meth:`DensityTable.to_json_dict`) is an object whose item texts it
    yields, in pieces, each joined by the item separator it is given; this
    encoder frames them as it frames any container it writes in pieces.
    Each other dict or list without containers or such functions in it
    goes through the C encoder in one call, with the newline and indent of
    its items as the item separator; only containers of containers recurse
    in Python.  The pieces are yielded, not joined, so no text of the whole
    payload is built: a flat list (an oracle's multiplicities) or float
    array (its spectra) is encoded ``_PIECE_LEVELS`` items at a time, each
    text sliced once to drop its brackets, an array's items taken as
    Python floats from one slice at a time.
    """
    array = isinstance(payload, np.ndarray)
    if not (array or callable(payload) or isinstance(payload, (dict, list, tuple))):
        yield json.dumps(payload)
        return
    mapping = isinstance(payload, dict) or callable(payload)
    opening, closing = "{}" if mapping else "[]"
    inner = pad + "  "
    separator = f",\n{inner}"
    if callable(payload):
        items = ([text] for text in payload(separator))
    elif array or not any(issubclass(kind, (dict, list, tuple, np.ndarray, Callable))
                          for kind in set(map(type, payload.values() if mapping else payload))):
        if mapping:
            pieces = [payload] if payload else []
        else:
            pieces = (payload[start:start + _PIECE_LEVELS]
                      for start in range(0, len(payload), _PIECE_LEVELS))
        items = ([json.dumps(piece.tolist() if array else piece, sort_keys=True,
                             separators=(separator, ": "))[1:-1]] for piece in pieces)
    elif mapping:
        items = (chain([f"{json.dumps(key)}: "], json_pieces(value, inner))
                 for key, value in sorted(payload.items()))
    else:
        items = (json_pieces(value, inner) for value in payload)
    lead = f"{opening}\n{inner}"
    for item in items:
        yield lead
        yield from item
        lead = separator
    yield f"\n{pad}{closing}" if lead == separator else opening + closing


class DensityTable:
    """Exact level density as two aligned arrays.

    ``scaled`` holds the distinct levels in ascending order as int64, on an
    integer grid: a level's entry is its true energy multiplied by
    ``energy_scale`` (1 for HS and PF chains, the denominator of alpha for
    FI chains).  ``degeneracies`` holds the matching exact Python ints, all
    positive.  ``total`` is the full state count m**N; the degeneracies
    always sum to it exactly.
    """

    def __init__(self, scaled, degeneracies, energy_scale: int, total: int):
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
    def _energy_columns(self) -> tuple:
        """Every level's energy as :func:`format_rational` writes it, made
        once, over the whole array, for both artifacts: the reduced
        numerators as int64 and one shared suffix object per level, "" or
        "/q" for the reduced denominator q, in an object array, whose
        %-format ``"%d%s"`` writes the energy, so no text is held per level;
        and, for the JSON key order, each suffix's rank among the distinct
        ones as text, in the smallest unsigned type."""
        common = np.gcd(self.scaled, self.energy_scale)
        denominators = self.energy_scale // common
        distinct = np.unique(denominators)
        texts = [f"/{q}" if q != 1 else "" for q in distinct.tolist()]
        rank = {text: r for r, text in enumerate(sorted(texts))}
        codes = np.searchsorted(distinct, denominators)
        return (self.scaled // common, np.array(texts, dtype=object)[codes],
                np.array([rank[text] for text in texts], np.min_scalar_type(len(texts)))[codes])

    @property
    def _csv_artifact(self) -> tuple:
        """The density CSV's column line, columns and row format, for
        :func:`csv_pieces`."""
        numerators, suffixes, _ = self._energy_columns
        return "energy,degeneracy", (numerators, suffixes, self.degeneracies), "%d%s,%s\n"

    def to_csv(self, header_lines=()) -> str:
        """The density CSV as one text, joined from the pieces the CLI
        writes one after another (:func:`csv_pieces`)."""
        return "".join(csv_pieces(header_lines, *self._csv_artifact))

    def to_json_dict(self) -> dict:
        """The density's JSON payload: its energy scale, its total and its
        levels.  ``levels`` is a function of the item separator of the
        levels object that yields, in pieces, that object's items as
        ``json.dumps(indent=2, sort_keys=True)`` writes the energy-text to
        degeneracy dict, for :func:`json_pieces` to frame; no such dict is
        built."""
        return {
            "energy_scale": self.energy_scale,
            "total": self.total,
            "levels": self._json_levels,
        }

    def _json_levels(self, separator: str):
        """Yield the levels object's items in sort_keys order, joined by
        `separator`, `_PIECE_LEVELS` items a piece.  An energy text holds
        only digits, "-" and "/", which json writes unescaped, and json
        writes an int as ``int.__repr__`` does, so each item is written
        here directly, its key by ``"%d%s"`` from the energy columns.  The
        key order is :func:`_text_order`; each piece gathers its numerators,
        suffixes and degeneracies through its indices from it."""
        numerators, suffixes, ranks = self._energy_columns
        degeneracies = self.degeneracies
        order = _text_order(numerators, ranks)
        for start in range(0, order.size, _PIECE_LEVELS):
            index = order[start:start + _PIECE_LEVELS]
            yield _interleaved('"%d%s": %s', separator,
                               (numerators[index], suffixes[index],
                                [degeneracies[i] for i in index.tolist()]))


# 10**k for k = 0..19 as uint64; 10**19 - 1 bounds every int64 magnitude
_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)


def _text_order(numerators: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The indices that sort the energy texts, ``"%d%s"`` of the int64
    `numerators` and their suffixes ("" or "/q"), as ASCII bytes, which is
    how ``sort_keys`` orders them, from one :func:`numpy.lexsort` over
    integer keys; `ranks` ranks each level's suffix among the distinct ones
    as text.

    "-" sorts before every digit, so the negative texts come first.  Within
    a sign, two texts first differ at a digit, where the magnitudes' digits
    left-aligned in 19 places differ; or one magnitude's digits are a
    prefix of the other's, and the shorter sorts first, since its text goes
    on with "/" or ends; or the magnitudes are equal, and the suffixes
    decide.  The keys are filled `_PIECE_LEVELS` levels at a time, so no
    temporary spans every level.
    """
    aligned = np.empty(numerators.size, np.uint64)
    digits = np.empty(numerators.size, np.uint8)
    for start in range(0, numerators.size, _PIECE_LEVELS):
        piece = slice(start, start + _PIECE_LEVELS)
        magnitude = np.abs(numerators[piece]).view(np.uint64)  # |-2**63| wraps to 2**63
        count = np.searchsorted(_POWERS_OF_TEN[1:], magnitude, side="right") + 1
        digits[piece] = count
        np.multiply(magnitude, _POWERS_OF_TEN[19 - count], out=aligned[piece])
    return np.lexsort((ranks, digits, aligned, numerators >= 0))
