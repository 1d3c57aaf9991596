"""Exact level densities for large chains.

Two independent routes to the same density:

* :func:`density_dp` runs a transfer-style dynamic program over the bonds,
  carrying one coefficient vector per spin value.  It works on a dense
  grid of ``scaled_total + 1`` energy cells per spin value, each cell a
  slot of about log2(m**N) / 8 bytes.  Per bond it does at most 4m - 3
  big-integer shifts and adds of that grid (the sources of each spin
  value are a prefix and a suffix of 1..m, whose partial sums it shares),
  where adding every destination's sources afresh takes m(m + 2); so it
  reaches chain sizes far beyond enumeration.  The result becomes a
  :class:`~hschain.table.DensityTable` of two aligned arrays: ascending
  int64 levels and their exact degeneracies.
* :func:`composition_density` expands the closed partition-function sum
  over the ordered compositions of N, merged per cut position.  It never
  touches motifs or pairing rules, which makes it a genuinely independent
  cross-check of the dynamic program (and of brute-force enumeration).

Degeneracies are exact integers everywhere.  The DP packs its coefficient
vectors into single big integers, one fixed-width slot per energy cell, so
big-number adds and shifts do the per-bond work in C; silent overflow is
impossible because slots are sized from m**N.

:func:`level_support` runs the same recursion with one bit per cell and
``|`` in place of ``+``: it finds which levels occur, not how often, on
a grid at most a sixty-fourth the size, for consumers that collapse
degeneracies anyway.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import comb

import numpy as np

from .chains import ChainSpec, dispersion
from .errors import ValidationError
from .motifs import DeltaRule, delta, rule_for
from .table import COMPOSITION_CEILING, OBJECT_UPDATE, DensityTable, check_grid_budget
from .table import DEFAULT_MEMORY_BUDGET  # noqa: F401  (also read from this module)


def _bond_plan(rule: DeltaRule, m: int) -> list:
    """How each destination spin value draws on the m sources.

    For every pairing rule the sources that feed a destination with a
    shift form a prefix 1..k or a suffix k+1..m of the spin values, and
    the sources that feed it plainly are the rest.  Returns, per
    destination, ``(k, low_shifted)``: sources 1..k (never empty) are the
    shifted side when `low_shifted` is true and the plain side otherwise;
    sources k+1..m (empty when k = m) are the other side.

    Raises
    ------
    ValidationError
        If some rule feeds a destination from neither a prefix nor a suffix.
    """
    plan = []
    for dest in range(1, m + 1):
        bits = [delta(rule, src, dest, m) for src in range(1, m + 1)]
        k = next((i for i in range(1, m) if bits[i] != bits[0]), m)
        if bits[k:] != [1 - bits[0]] * (m - k):
            raise ValidationError(
                f"{rule.kind} rule shifts sources {bits} into spin value {dest}, "
                "not a prefix or a suffix of the spin values"
            )
        plan.append((k, bits[0] == 1))
    return plan


def _predicted_peak(m: int, plan: list, cells: int, slot_bits: int):
    """Predicted peak bytes of :func:`_bond_dp` and of unpacking its result,
    with the arithmetic behind it as text.

    A polynomial is a Python int of ``cells * slot_bits`` bits, 4 bytes per
    30-bit digit.  During a bond the loop holds at most the m old states,
    the new partial combines :func:`_bond_plan` asks for, the m new states
    and one shifted temporary.  After the loop the result is unpacked next
    to it: a copy of its bytes, one byte per cell (the unpacked bit, or the
    occupied-row mask) and, since any cell may be a level, per cell an
    int64 index and, with exact counts, a copy of the cell's slot and a
    Python int of the slot's width (24 bytes and 4 per 30 bits) held in a
    tuple.  The prediction is the larger of the two phases.
    """
    polynomial = 4 * -(-cells * slot_bits // 30)
    low_top = max(k for k, _ in plan)
    high_bottom = min(k for k, _ in plan)
    partials = low_top - 1 + max(0, m - high_bottom - 1)
    live = 2 * m + partials + 1
    level = 8 if slot_bits == 1 else 8 + slot_bits // 8 + 8 + 24 + 4 * -(-slot_bits // 30)
    unpack = polynomial + (cells * slot_bits + 7) // 8 + cells * (1 + level)
    detail = (
        f"density grid needs {cells} cells x {slot_bits / 8:g} bytes = {polynomial} bytes "
        f"per polynomial; the bond loop holds {live} of them = {live * polynomial} bytes "
        f"and the result needs {unpack} bytes to unpack"
    )
    return max(live * polynomial, unpack), detail


def _bond_dp(spec, rule, slot_bits, combine):
    """The per-bond recursion shared by :func:`density_dp` and
    :func:`level_support`.

    The state after bond j is, for each spin value v, a polynomial whose
    E-th cell describes the prefixes (n_1..n_{j+1}) ending in v with
    accumulated scaled energy E.  Each polynomial is one big integer with
    `slot_bits` bits per energy cell, so a shift by F(j) energy units is a
    single left shift, and `combine` merges the polynomials that feed a
    destination (``+`` counts prefixes, ``|`` only records that one
    exists).  Returns the combined polynomial over all final spin values
    and the chain's dispersion.

    Each bond first forms the partial combines of the sources over the
    prefixes 1..k and the suffixes k+1..m that :func:`_bond_plan` asks
    for, at most 2m - 3 combines, and then gives each destination at most
    one shift and one combine of a prefix with a suffix: at most 4m - 3
    big-integer operations per bond instead of the m(m + 2) of combining
    every destination's sources afresh.

    Raises
    ------
    CapacityError
        If the prediction of :func:`_predicted_peak` exceeds the memory budget.
    """
    if rule is None:
        rule = rule_for(spec)
    m = spec.m
    disp = dispersion(spec)
    plan = _bond_plan(rule, m)
    peak, detail = _predicted_peak(m, plan, disp.scaled_total + 1, slot_bits)
    check_grid_budget(detail, peak)
    low_top = max(k for k, _ in plan)
    high_bottom = min(k for k, _ in plan)
    last_use = {k: dest for dest, (k, _) in enumerate(plan)}
    state = [1] * m  # energy zero reached once for every starting value
    for w in disp.scaled:
        shift = w * slot_bits
        # low[k] combines sources 1..k and high[k] sources k+1..m; None is empty.
        low = [None, *accumulate(state[:low_top], combine)]
        high = [*accumulate(reversed(state[high_bottom:]), combine)]
        high = [None] * high_bottom + high[::-1] + [None]
        state = []
        for dest, (k, low_shifted) in enumerate(plan):
            plain, shifted = (high[k], low[k]) if low_shifted else (low[k], high[k])
            if last_use[k] == dest:
                low[k] = high[k] = None  # grid-sized; free each partial once used
            if shifted is None:
                state.append(plain)
            elif plain is None:
                state.append(shifted << shift)
            else:
                state.append(combine(plain, shifted << shift))
            del plain, shifted
    return reduce(combine, state), disp


def density_dp(spec: ChainSpec, rule: DeltaRule | None = None) -> DensityTable:
    """Exact level density via a per-bond dynamic program.

    Each energy cell holds the number of prefixes reaching it, in a slot
    wide enough for m**N, and bonds add the shifted polynomials.  The
    result is unpacked as a (cells, slot) byte array; only the occupied
    rows become Python ints.

    Raises
    ------
    CapacityError
        If the energy grid and its unpacking would exceed the memory budget.
    """
    slot = max(8, (spec.n_states.bit_length() + 7) // 8 + 1)
    packed, disp = _bond_dp(spec, rule, 8 * slot, operator.add)
    cells = disp.scaled_total + 1
    rows = np.frombuffer(packed.to_bytes(cells * slot, "little"), np.uint8).reshape(cells, slot)
    del packed
    occupied = np.flatnonzero(rows.any(axis=1))
    counts = rows[occupied].tobytes()
    del rows
    degeneracies = tuple(int.from_bytes(counts[i : i + slot], "little")
                         for i in range(0, len(counts), slot))
    return DensityTable(occupied, degeneracies, disp.energy_scale, spec.n_states)


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


def level_support(spec: ChainSpec, rule: DeltaRule | None = None) -> LevelSupport:
    """The set of distinct levels, from the recursion of :func:`density_dp`
    with one bit per energy cell and ``|`` in place of ``+``.

    Costs a fraction of the exact density (HS N=192 m=2: 1.2 M one-bit
    cells per polynomial instead of 1.2 M 26-byte slots) and serves every
    consumer that collapses degeneracies, such as unfolding and spacings.

    Raises
    ------
    CapacityError
        If the bit grid and its unpacking (a byte and an int64 per cell)
        would exceed the memory budget.
    """
    packed, disp = _bond_dp(spec, rule, 1, operator.or_)
    cells = disp.scaled_total + 1
    bits = np.unpackbits(
        np.frombuffer(packed.to_bytes((cells + 7) // 8, "little"), np.uint8), bitorder="little"
    )
    scaled = np.flatnonzero(bits).astype(np.int64, copy=False)
    return LevelSupport(scaled=scaled, energy_scale=disp.energy_scale)


def spin_degeneracy(k: int, m: int, epsilon: int) -> int:
    """Number of spin states a block of k aligned sites can carry.

    binom(m+k-1, k) for epsilon=+1 (symmetric), binom(m, k) for epsilon=-1
    (antisymmetric; vanishes for k > m).
    """
    if epsilon == 1:
        return comb(m + k - 1, k)
    return comb(m, k)


def _coefficient_bound(n: int, dfac: list, longest_part: int) -> int:
    """Rigorous bound on any intermediate coefficient of the composition
    expansion, via l1 norms: shifts preserve the l1 norm, each (1 - q**F)
    factor at most doubles it, each cut multiplies it by d(part)."""
    bound = [0] * n
    bound[0] = 1
    total = 0
    for p in range(1, n + 1):
        acc = 0
        for prev in range(max(0, p - longest_part), p):
            acc += bound[prev] * dfac[p - prev] << (p - prev - 1)
        if p < n:
            bound[p] = acc
        else:
            total = acc
    return max(total, max(bound))


def composition_density(spec: ChainSpec) -> DensityTable:
    """Exact level density from the partition-function sum over compositions.

    Every ordered composition (k_1, ..., k_r) of N contributes

        prod_i d(k_i) * q**(sum of F at its cut points)
                      * prod over non-cut bonds of (1 - q**F(bond))

    with d the spin degeneracy factor.  The terms are expanded by walking
    the cut positions left to right; composition prefixes whose last cut
    sits at the same bond share their entire remaining expansion, so they
    are merged into one polynomial per cut position, row p of one
    (N + 1) x cells grid.  Its last row collects the finished terms: the
    last part ends at site N and adds there at shift 0.  Each cut position
    costs at most (longest nonvanishing part) grid updates.  The term
    multiset is exactly the composition sum (the spec of which ordered
    composition contributed what never changes, only the association of
    the additions).  Parts with vanishing degeneracy factor (epsilon=-1,
    parts longer than m) are never formed: d(k) is nonzero for every k up
    to the longest such part, since d(1) = m.

    Raises
    ------
    CapacityError
        If its weighted grid-cell updates exceed ``COMPOSITION_CEILING``, or
        its N + 3 grids (the N + 1 rows of merged polynomials and finished
        terms, the running product and one temporary) and the output, five
        8-byte entries and an int a cell, exceed the memory budget.
    """
    n, m = spec.n_spins, spec.m
    disp = dispersion(spec)
    shifts = [*disp.scaled, 0]  # F at each cut; the last part closes at shift 0
    top = disp.scaled_total
    dfac = [0] + [spin_degeneracy(k, m, spec.epsilon) for k in range(1, n + 1)]
    longest_part = max(k for k in range(1, n + 1) if dfac[k])
    size = top + 1
    updates = size * sum(min(n - cut, longest_part) for cut in range(n))
    text = f"composition sum makes {updates} updates of {n + 3} grids of {size} cells"
    # int64 figures first, as lower bounds: the coefficient bound takes N x longest_part steps
    check_grid_budget(f"{text} of >= 8 bytes", 8 * (n + 3) * size, updates, COMPOSITION_CEILING)
    # int64 unless a rigorous worst-case coefficient bound says otherwise;
    # an object cell holds a pointer and an int no wider than the bound.
    bound = _coefficient_bound(n, dfac, longest_part)
    int_bytes = sys.getsizeof(bound)
    if bound < 2 ** 62:
        dtype, cell_bytes, weight = np.int64, 8, 1
    else:
        dtype, cell_bytes, weight = object, 8 + int_bytes, OBJECT_UPDATE
    nbytes = size * ((n + 3) * cell_bytes + 40 + int_bytes)
    check_grid_budget(f"{text}, {np.dtype(dtype)} cells of {cell_bytes} bytes and updates of "
                      f"weight {weight}; with the output {nbytes} bytes", nbytes, weight * updates,
                      COMPOSITION_CEILING)
    merged = np.zeros((n + 1, size), dtype=dtype)  # row p: all prefixes with last cut at bond p
    merged[0, 0] = 1
    for last_cut in range(n):
        running = merged[last_cut]  # gains one (1 - q**F(bond)) factor per passed bond
        stop = min(n, last_cut + longest_part)  # longer parts all have d = 0
        for p in range(last_cut + 1, stop + 1):
            w = shifts[p - 1]
            merged[p, w:] += dfac[p - last_cut] * running[: size - w]
            if p < stop:
                extended = running.copy()
                extended[w:] -= running[: size - w]
                running = extended
    return DensityTable.from_grid(merged[n], disp.energy_scale, spec.n_states)


def partition_function_at(density: DensityTable, q: complex) -> complex:
    """Evaluate Z(q) = sum of degeneracy * q**energy in floating point.

    Horner evaluation over the dense scaled-integer grid, from the top
    level down to energy zero; for tables with energy_scale D > 1 the
    principal branch of q**(1/D) is used.  Degeneracies above 2**53 lose
    precision in the float conversion.
    """
    q = complex(q)
    if density.energy_scale != 1 and q != 0:
        w = q ** (1.0 / density.energy_scale)
    else:
        w = q
    levels = density.levels().tolist()
    grid = [0] * (levels[-1] + 1 if levels else 1)
    for e, d in zip(levels, density.degeneracies):
        if e >= 0:
            grid[e] = d
    result = 0j
    for d in reversed(grid):
        result = result * w + d
    return result
