"""Exact level densities for large chains.

Two independent routes to the same density:

* :func:`density_dp` runs a transfer-style dynamic program over the bonds,
  carrying one polynomial per spin value: per bond 4m - 5 big-integer
  shifts and adds (spin value d + 1 takes the prefix 1..d of the spin
  values shifted and the suffix d + 1..m unshifted, and the partial sums
  are shared), where adding every destination's sources afresh takes
  m(m + 2).
* :func:`composition_density` expands the closed partition-function sum
  over the ordered compositions of N, merged per cut position.  It never
  touches motifs or pairing rules, which makes it a genuinely independent
  cross-check of the dynamic program (and of brute-force enumeration).

Both hold an exact polynomial in one format, a Python int with one slot
per energy cell, wide enough for m**N - 1 (no cell of N >= 2 spins holds
all m**N states), so big-number adds and shifts do the work in C; and
both end in one read-out, that of :func:`_exact_kind`, into the ascending
int64 levels and exact degeneracies of a
:class:`~hschain.table.DensityTable`.

The recursion of :func:`density_dp` is one loop, :func:`_bond_dp`, over
three kinds of polynomial, each built with its read-out and its bytes:
:func:`_exact_kind`, :func:`_support_kind` and :func:`_mass_kind`.
:func:`level_support` runs it with one bit per cell and ``|`` in place of
``+``: it finds which levels occur, not how often, on a grid at most a
sixty-fourth the size, for consumers that collapse degeneracies anyway.
:func:`level_masses` runs it over float64 arrays that count the states,
each cell written once per add and divided once, by the float of m**N,
when the finished array is read, for the Kolmogorov-Smirnov distance.
One runner, :func:`_dp_levels`, serves all three.

The loop runs the ferromagnetic recursion for both signs: the
antiferromagnetic bit of a configuration is one minus its ferromagnetic
bit, so the antiferromagnetic levels are the ferromagnetic ones reflected
through the top energy, with the same degeneracies.  The runner reads the
ferromagnetic result and reflects the finished levels in one step,
:func:`_reflected`; :func:`composition_density` and
:func:`~hschain.motifs.brute_force_density`, which apply the
antiferromagnetic sign themselves, check that reflection.

The loop's polynomials grow every bond.  glibc's malloc serves each block
above its mmap threshold (128 KiB in a fresh process) from fresh zero
pages and raises the threshold to the size of each such block that is
freed, up to 32 MiB, so each bond's new largest polynomials used to fault
in fresh pages: the FI alpha=3/2 N=64 m=4 density took 82,000 minor
faults (330 MB) for polynomials of 3.3 MB, and spent about 40 % of its
time in the kernel.  :func:`_bond_dp` therefore frees one untouched block
of a whole polynomial before the first bond, which lifts the threshold
past every polynomial of the loop; the loop then reuses heap pages, with
about 9,500 faults.  Another allocator pays one untouched allocation for
it.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .chains import FERRO, ChainSpec, dispersion, scaled_dispersion_total
from .table import _PIECE_LEVELS, COMPOSITION_CEILING, DensityTable, check_grid_budget
from .table import DEFAULT_MEMORY_BUDGET  # noqa: F401  (also read from this module)


def _slot_bytes(spec: ChainSpec) -> int:
    """Bytes per energy cell of an exact polynomial: m**N - 1, with no spare
    byte, and at least 8.

    For N >= 2 no cell reaches m**N: the all-equal and the one-ascent
    configurations sit at different energies.  With m = 2**k r, r odd,
    m**N - 1 has N k bits for r = 1, and else N k + floor(N log2 r) + 1, the
    bits of m**N.  N log2 r is never an integer for r > 1, so its float value
    decides the floor unless it lies within its rounding error of an
    integer; only then is r**N formed.  A gate can so refuse millions of
    spins without forming m**N (2**3000000 peaks at 1.4 MB).
    """
    n, m = spec.n_spins, spec.m
    k = (m & -m).bit_length() - 1
    odd = m >> k
    bits = n * k
    if odd > 1:
        x = n * math.log2(odd)
        whole = math.floor(x)
        sure = 1e-12 * x < x - whole < 1 - 1e-12 * x
        bits += 1 + (whole if sure else (odd ** n).bit_length() - 1)
    return max(8, (bits + 7) // 8)


class _Kind(NamedTuple):
    """One kind of polynomial :func:`_bond_dp` accumulates, how a finished
    one is read, and its bytes."""

    one: object  # one starting spin value: energy zero, reached once
    combine: Callable  # merges the polynomials that feed one destination
    add_shifted: Callable  # (plain, polynomial, F) -> plain and the polynomial times q**F
    scale: Callable | None  # (states, bond index) -> rescales the states in place before that bond
    read: Callable  # finished polynomial -> ascending occupied cells (int64) and their values
    nbytes: int  # one polynomial over every energy cell
    unpack: int  # the finished polynomial and its read-out


def _packed_kind(cells: int, slot_bits: int, combine: Callable, read: Callable,
                 level: int, piece: int = 0) -> _Kind:
    """Python ints of `slot_bits` bits per cell, 4 bytes per 30-bit digit.

    Next to the finished int, `read` holds a copy of its bytes, one byte
    per cell (the unpacked bit, or the occupied-row mask), since any cell
    may be a level, `level` bytes per cell, and `piece` bytes whatever the
    level count.
    """

    def add_shifted(plain, packed, w):
        return combine(plain, packed << w * slot_bits)

    nbytes = 4 * -(-cells * slot_bits // 30)
    return _Kind(1, combine, add_shifted, None, read, nbytes,
                 nbytes + (cells * slot_bits + 7) // 8 + cells * (1 + level) + piece)


def _exact_kind(spec: ChainSpec, cells: int) -> _Kind:
    """Exact counts of `spec`'s states, one slot of :func:`_slot_bytes` per
    cell, added with ``+``.

    A finished polynomial is read as a (cells, slot) byte array whose
    occupied rows become Python ints; callers pass it as a temporary, freed
    once its bytes are copied.  The occupied rows are copied once and viewed
    as one ``V{slot}`` item a row; ``_PIECE_LEVELS`` items at a time become
    a list of bytes objects, which ``int.from_bytes`` reads with no Python
    frame per level.  Per level the read-out holds an int64 index, a copy of
    the level's slot and a Python int of the slot's width (24 bytes and 4
    per 30 bits) in a tuple; one piece's bytes objects (33 bytes and the
    slot) and their list come on top.
    """
    slot = _slot_bytes(spec)

    def read(packed):
        rows = np.frombuffer(packed.to_bytes(cells * slot, "little"), np.uint8).reshape(cells, slot)
        del packed
        occupied = np.flatnonzero(rows.any(axis=1))
        slots = rows[occupied].view(f"V{slot}").ravel()
        del rows
        counts = (map(int.from_bytes, slots[start:start + _PIECE_LEVELS].tolist(), repeat("little"))
                  for start in range(0, slots.size, _PIECE_LEVELS))
        return occupied, tuple(chain.from_iterable(counts))

    return _packed_kind(cells, 8 * slot, operator.add, read,
                        8 + slot + 8 + 24 + 4 * -(-8 * slot // 30),
                        min(cells, _PIECE_LEVELS) * (33 + slot + 8))


def _support_kind(cells: int) -> _Kind:
    """One bit per cell, merged with ``|``: which levels occur, not how
    often.  A finished polynomial is read by unpacking its bits, and each
    level keeps an int64 index; its values are empty."""

    def read(packed):
        bits = np.unpackbits(np.frombuffer(packed.to_bytes((cells + 7) // 8, "little"), np.uint8),
                             bitorder="little")
        # the indices are int64 already: a copy would double the levels' bytes
        return np.flatnonzero(bits).astype(np.int64, copy=False), ()

    return _packed_kind(cells, 1, operator.or_, read, 8)


def _add_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The aligned sum of two mass arrays that both start at energy zero,
    each cell written once into one new array."""
    if a.size < b.size:
        a, b = b, a
    total = np.empty(a.size)
    np.add(a[: b.size], b, out=total[: b.size])
    total[b.size:] = a[b.size:]
    return total


def _add_shifted_masses(plain: np.ndarray, masses: np.ndarray, w: int) -> np.ndarray:
    """`plain` plus `masses` moved up by `w` cells, each cell written once
    into one new array: `plain` below `w`, then zeros up to `w`, the sum
    where the two overlap, and the longer one's cells past the overlap."""
    top = w + masses.size
    end = max(w, min(plain.size, top))  # the overlap is [w, end)
    total = np.empty(max(top, plain.size))
    total[: min(w, plain.size)] = plain[:w]
    total[plain.size:w] = 0
    np.add(plain[w:end], masses[: end - w], out=total[w:end])
    total[end:top] = masses[end - w:]
    total[end:plain.size] = plain[end:]
    return total


def _mass_shed(m: int, bond: int) -> int:
    """The bits a mass DP has shed once bond `bond` (from 0) is added: the
    least multiple of 64 that keeps its total, m**(bond + 2) over
    2**shed, within about 2**960, far enough below the float64 range of
    2**1024 that no partial sum of a bond overflows."""
    return 64 * max(0, math.ceil(((bond + 2) * math.log2(m) - 960) / 64))


def _mass_kind(spec: ChainSpec, cells: int) -> _Kind:
    """Counts of the states as float64 arrays that grow by padding and add
    where they overlap, read as fractions of the m**N states.

    Each starting value is 1, so after bond j the states count
    m**(j + 2) / 2**shed, with the bits shed of :func:`_mass_shed`.  No
    chain with N log2(m) <= 960 sheds any, and its kind has no ``scale``;
    past that, before each bond
    that would take the total past 2**960, the states shed 64 bits by an
    exact multiplication with a power of two.  The bits shed depend on the
    bond alone, so one kind serves any number of recursions.  A state may
    hold one array for several spin values, so each distinct array is
    scaled once.

    A finished array is read as its nonzero cells, each divided once by
    the float of the exact total m**N / 2**shed; a mass that this takes
    below the smallest float64 drops out with its level.  Per cell, the
    read-out holds the finished array, a byte and an int64 index, and the
    levels and masses it keeps.
    """
    m, shed = spec.m, _mass_shed(spec.m, spec.n_spins - 2)

    def scale(state, bond):
        bits = _mass_shed(m, bond) - (bond and _mass_shed(m, bond - 1))
        if bits:
            for masses in {id(masses): masses for masses in state}.values():
                masses *= 2.0 ** -bits

    def read(counts):
        levels = np.flatnonzero(counts).astype(np.int64, copy=False)
        masses = counts[levels]
        # int / int is correctly rounded: the float of the exact total
        masses /= m ** spec.n_spins / (1 << shed)
        if not masses.all():
            kept = np.flatnonzero(masses)
            levels, masses = levels[kept], masses[kept]
        return levels, masses

    return _Kind(np.ones(1), _add_masses, _add_shifted_masses, scale if shed else None, read,
                 8 * cells, cells * (8 + 1 + 8 + 8 + 8))


def _bond_dp(spec: ChainSpec, kind: _Kind):
    """The per-bond recursion shared by :func:`density_dp`,
    :func:`level_support` and :func:`level_masses`: the ferromagnetic
    recursion over the dispersion of `spec`, whatever its sign.

    The state after bond j is, for each spin value v, a polynomial whose
    E-th cell describes the prefixes (n_1..n_{j+1}) ending in v with
    accumulated scaled energy E.  `kind` says what a cell holds and how a
    polynomial is shifted by F(j) energy units and added to another: an
    exact count in a slot of a big integer and ``+``, one bit and ``|``,
    or a float64 count and an aligned add.  A kind may rescale the states
    in place before each bond, told the bond's index.  Returns the
    combined polynomial over all final spin values.

    The ferromagnetic bit of a bond is set iff its left spin value is the
    smaller, so spin value 1 takes every source unshifted, and spin value
    d + 1 takes sources 1..d shifted and d + 1..m unshifted.  Each bond
    first forms the suffix combines of sources d + 1..m, m - 2 combines,
    and then walks d = 1..m - 1 with one running prefix combine of sources
    1..d: it gives destination d + 1 one shift and one combine, and takes
    source d + 1 into the prefix, which ends as destination 1.  That is
    4m - 5 operations per bond (none at m = 1) instead of the m(m + 2) of
    combining every destination's sources afresh.

    Each source and each suffix combine is dropped once used, so during a
    bond the loop holds about 2m polynomials: the sources not yet taken,
    the suffix combines not yet used, the destinations made, the prefix and
    one shifted temporary.  Measured with tracemalloc, in polynomials, the
    loop peaks at 2.0, 4.0, 5.7 and 9.8 for m = 2, 3, 4 and 6 on exact
    counts.  The memory gate counts 3m + max(0, m - 2) polynomials, or the
    kind's read-out if that is larger, from the closed-form top energy,
    before the dispersion is built.

    Raises
    ------
    CapacityError
        If the loop or the read-out would exceed the memory budget.
    """
    m = spec.m
    cells = scaled_dispersion_total(spec) + 1
    live = 3 * m + max(0, m - 2)
    check_grid_budget(
        f"density grid needs {cells} cells = {kind.nbytes} bytes per polynomial; "
        f"the bond loop holds {live} of them = {live * kind.nbytes} bytes and the result needs "
        f"{kind.unpack} bytes to unpack", max(live * kind.nbytes, kind.unpack))
    # glibc serves blocks above its mmap threshold from fresh zero pages and
    # raises the threshold to the size of each such block freed; one freed
    # block of a whole polynomial lifts it past every polynomial of the loop,
    # which then reuses heap pages.  calloc touches no page of this one.
    bytes(kind.nbytes)
    combine, add_shifted, scale = kind.combine, kind.add_shifted, kind.scale
    # energy zero reached once for every starting value; a copy, since a
    # kind's scale may rescale the states in place
    state = [copy.copy(kind.one)] * m
    for bond, w in enumerate(dispersion(spec).scaled):
        if scale is not None:
            scale(state, bond)
        # high[d] combines sources d + 1..m and gives way to destination d + 1;
        # one running prefix combines sources 1..d, and at last all m of them,
        # destination 1
        high = [None, *reversed([*accumulate(reversed(state[1:]), combine)])]
        low, state[0] = state[0], None
        for d in range(1, m):
            high[d] = add_shifted(high[d], low, w)  # destination d + 1
            low, state[d] = combine(low, state[d]), None  # grid-sized; free each source once used
        high[0] = low
        state = high
    return reduce(combine, state)


def _reflected(top: int, levels: np.ndarray, values):
    """Ascending `levels` and their `values` reflected through the level
    `top`: the levels top - e, again ascending, and the values reversed.

    Overwrites `levels`, and returns both as reversed views, so that the
    reflection allocates no second array of levels.
    """
    levels = levels[::-1]
    np.subtract(top, levels, out=levels)
    return levels, values[::-1]


def _dp_levels(spec: ChainSpec, kind_of: Callable):
    """The dispersion of `spec`, and the ascending levels and their values
    that :func:`_bond_dp` finds over the kind ``kind_of(cells)``.

    The antiferromagnetic bit is one minus the ferromagnetic bit of the
    same configuration, so both signs run the ferromagnetic recursion, and
    the antiferromagnetic levels are read reflected.
    """
    top = scaled_dispersion_total(spec)
    kind = kind_of(top + 1)
    levels, values = kind.read(_bond_dp(spec, kind))
    if spec.epsilon != FERRO:
        levels, values = _reflected(top, levels, values)
    return dispersion(spec), levels, values


def density_dp(spec: ChainSpec) -> DensityTable:
    """Exact level density via a per-bond dynamic program.

    Each energy cell holds the number of prefixes reaching it, in a slot
    wide enough for m**N - 1, and bonds add the shifted polynomials.  The
    antiferromagnetic chain runs as the ferromagnetic recursion, whose
    levels are then reflected.

    Raises
    ------
    CapacityError
        If the energy grid and its unpacking would exceed the memory budget.
    """
    disp, levels, degeneracies = _dp_levels(spec, partial(_exact_kind, spec))
    return DensityTable(levels, degeneracies, disp.energy_scale, spec.n_states)


@dataclass(frozen=True)
class LevelSupport:
    """The distinct levels of a chain, without their degeneracies.

    ``scaled`` holds the energies times ``energy_scale`` as ascending
    int64, on the same integer grid as :class:`DensityTable`.
    """

    scaled: np.ndarray
    energy_scale: int

    def __len__(self) -> int:
        return self.scaled.size

    def levels(self) -> np.ndarray:
        """Scaled integer energies in ascending order."""
        return self.scaled


def level_support(spec: ChainSpec) -> LevelSupport:
    """The set of distinct levels, from the recursion of :func:`density_dp`
    with one bit per energy cell and ``|`` in place of ``+``.

    Costs a fraction of the exact density (HS N=192 m=2: 1.2 M one-bit
    cells per polynomial instead of 1.2 M 24-byte slots) and serves every
    consumer that collapses degeneracies, such as unfolding and spacings.

    Raises
    ------
    CapacityError
        If the bit grid and its unpacking (a byte and an int64 per cell)
        would exceed the memory budget.
    """
    disp, scaled, _ = _dp_levels(spec, _support_kind)
    return LevelSupport(scaled=scaled, energy_scale=disp.energy_scale)


@dataclass(frozen=True)
class LevelMasses(LevelSupport):
    """The distinct levels of a chain with the fraction of the m**N states
    at each, ``masses``, in float64: the DP's float counts divided once by
    the float of m**N."""

    masses: np.ndarray

    def cdf_steps(self) -> np.ndarray:
        """The empirical cumulative distribution below the first level and
        after each level: 0, then the running sums of the masses."""
        return np.concatenate(([0.0], np.cumsum(self.masses)))


def level_masses(spec: ChainSpec) -> LevelMasses:
    """The levels and their fractions of the states, from the recursion of
    :func:`density_dp` over float64 counts in place of exact ones.

    The counts are exact while they stay below 2**53; past that, rounding
    adds a relative error of a few units in the last place per bond, far
    below what a Kolmogorov-Smirnov distance resolves.  The read-out
    divides each level's count once, by the float of m**N, so every mass
    is a fraction of the states; past N * log2(m) = 960 the counts shed
    exact powers of two on the way, so that none overflows (see
    :func:`_mass_kind`).  Underflow: a level's mass is at least m**-N, so
    masses drop out only once N * log2(m) exceeds 1074; then masses below
    the smallest float64, 2**-1074, drop out with their levels, and the
    cumulative distribution, and so any distance taken from it, moves by
    no more than the dropped mass.

    Raises
    ------
    CapacityError
        If the float grids and their unpacking would exceed the memory budget.
    """
    disp, levels, masses = _dp_levels(spec, partial(_mass_kind, spec))
    return LevelMasses(scaled=levels, energy_scale=disp.energy_scale, masses=masses)


def _spin_degeneracy(k: int, m: int, epsilon: int) -> int:
    """Number of spin states a block of k aligned sites can carry.

    binom(m+k-1, k) for epsilon=+1 (symmetric), binom(m, k) for epsilon=-1
    (antisymmetric; vanishes for k > m).
    """
    if epsilon == 1:
        return comb(m + k - 1, k)
    return comb(m, k)


def composition_density(spec: ChainSpec) -> DensityTable:
    """Exact level density from the partition-function sum over compositions.

    Every ordered composition (k_1, ..., k_r) of N contributes

        prod_i d(k_i) * q**(sum of F at its cut points)
                      * prod over non-cut bonds of (1 - q**F(bond))

    with d the spin degeneracy factor.  The terms are expanded by walking
    the cut positions left to right; composition prefixes whose last cut
    sits at the same bond share their entire remaining expansion, so they
    are merged into one polynomial per cut position, row p.  Row N
    collects the finished terms: the last part ends at site N and adds
    there at shift 0.  Each cut position costs at most (longest
    nonvanishing part) row updates, and only the association of the
    additions differs from the composition sum.  Parts with vanishing
    degeneracy factor (epsilon=-1, parts longer than m) are never formed:
    d(k) is nonzero for every k up to the longest such part, since d(1) = m.

    A row is an exact polynomial in the format of :func:`density_dp`, one
    Python int holding its value at q = 2**(8 * slot).  Evaluation at that
    q is a ring homomorphism from Z[q] to Z, so the shifts, small multiples
    and differences of the (1 - q**F) factors stay exact even while
    intermediate coefficients are negative or overflow their slot.  Only
    the finished row's coefficients must lie in [0, 2**(8 * slot)), and
    they are degeneracies of at most m**N - 1.  A row is freed once its cut
    is consumed, and an untouched row is the int 0.

    Raises
    ------
    CapacityError
        If its byte-updates (row updates x cells x slot bytes) exceed
        ``COMPOSITION_CEILING``, or the memory budget is exceeded by the
        larger of the unpack and the loop, counted as min(N, longest part)
        + 5 polynomials: the rows ahead, the running product and the
        temporaries of one update.  Both are checked before the weights
        and the degeneracy factors are built.
    """
    n, m = spec.n_spins, spec.m
    cells = scaled_dispersion_total(spec) + 1
    slot = _slot_bytes(spec)
    # d(k) = binom(m + k - 1, k) never vanishes; binom(m, k) does past k = m
    longest_part = n if spec.epsilon == FERRO else min(n, m)
    # the cut positions 0..N-1 each make min(N - cut, longest part) updates
    row_updates = longest_part * (2 * n - longest_part + 1) // 2
    byte_updates = row_updates * cells * slot
    # an intermediate has degree <= the top cell; its l1 norm, below 2**(N-1)
    # compositions x m**N x 2**N, spills at most 2N bits past the top slot
    polynomial = 4 * -(-(cells * 8 * slot + 2 * n) // 30)
    live = min(n, longest_part) + 5
    kind = _exact_kind(spec, cells)
    check_grid_budget(f"composition sum makes {row_updates} row updates of {cells} cells x "
                      f"{slot} bytes = {byte_updates} byte-updates and holds {live} polynomials "
                      f"of {polynomial} bytes = {live * polynomial} bytes; the result needs "
                      f"{kind.unpack} bytes to unpack", max(live * polynomial, kind.unpack),
                      byte_updates, COMPOSITION_CEILING)
    shifts = [8 * slot * w for w in dispersion(spec).scaled] + [0]  # the last part closes at 0
    dfac = [0] + [_spin_degeneracy(k, m, spec.epsilon) for k in range(1, n + 1)]
    merged = [0] * (n + 1)  # row p: all prefixes with last cut at bond p
    merged[0] = 1
    for last_cut in range(n):
        # gains one (1 - q**F(bond)) factor per passed bond
        running, merged[last_cut] = merged[last_cut], 0
        stop = min(n, last_cut + longest_part)  # longer parts all have d = 0
        for p in range(last_cut + 1, stop + 1):
            merged[p] += dfac[p - last_cut] * running << shifts[p - 1]
            if p < stop:
                running -= running << shifts[p - 1]
    return DensityTable(*kind.read(merged.pop()), dispersion(spec).energy_scale, spec.n_states)
