"""Chain families and their dispersion relations.

Three su(m) chains are supported, identified by the family tags

    "HS"  Haldane-Shastry         F(i) = i*(N-i)
    "PF"  Polychronakos-Frahm     F(i) = i
    "FI"  Frahm-Inozemtsev        F(i) = i*(alpha+i-1),  alpha > 0

where i = 1..N-1 runs over the bonds of the chain and F assigns each bond
its weight in the motif energy sum.  All downstream computations (exact
densities, moments, characteristic functions) consume a :class:`ChainSpec`
plus the :class:`DispersionTable` built here.

Dispersion values are kept exact, as integers on a scaled grid.  The FI
parameter alpha is restricted to positive rationals so that, after scaling
by its denominator, every energy lives on an exact integer grid; floats are
only produced at the characteristic-function boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError
from .table import check_grid_budget

FAMILIES = ("HS", "PF", "FI")

FERRO = 1
ANTIFERRO = -1


def _is_int(value) -> bool:
    """True for ints; bool is an int subclass but not a count or a sign."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integral(value) -> int:
    """A spec field parsed as an int.  Ints, integral floats and integer
    strings pass; bools and non-integral numbers raise ValueError instead
    of being truncated."""
    number = int(value)
    if isinstance(value, bool) or (not isinstance(value, str) and number != value):
        raise ValueError(f"{value!r} is not an integer")
    return number


def _as_alpha(value) -> Fraction:
    """Coerce an FI parameter to an exact positive Fraction.

    Accepts int, Fraction, "p/q" strings and (num, den) pairs of integers.
    Floats are rejected: an inexact alpha would break exact degeneracy
    counting.  So are bools, and pair entries that are not integers.
    """
    if isinstance(value, (float, bool)):
        raise ValidationError(
            "alpha must be an exact rational (int, Fraction, 'p/q' or (p, q)); "
            f"got {type(value).__name__} {value!r}"
        )
    if isinstance(value, (tuple, list)) and len(value) != 2:
        raise ValidationError(f"alpha pair must have two entries, got {value!r}")
    try:
        if isinstance(value, (tuple, list)):
            alpha = Fraction(_integral(value[0]), _integral(value[1]))
        else:
            alpha = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"cannot parse alpha {value!r}") from exc
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    return alpha


@dataclass(frozen=True)
class ChainSpec:
    """Configuration of one chain: family, size, internal dimension, sign.

    Parameters
    ----------
    family : str
        One of "HS", "PF", "FI".
    n_spins : int
        Number of spins N >= 2.
    m : int
        Internal su(m) dimension.  m >= 2 for a physical chain; m = 1 is
        admitted as the degenerate single-configuration case used by
        consistency checks.
    epsilon : int
        +1 for the ferromagnetic chain, -1 for the antiferromagnetic one.
    alpha : Fraction, optional
        FI site parameter, required iff family is "FI".
    """

    family: str
    n_spins: int
    m: int
    epsilon: int = FERRO
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not _is_int(self.n_spins) or self.n_spins < 2:
            raise ValidationError(f"n_spins must be an integer >= 2, got {self.n_spins!r}")
        if not _is_int(self.m) or self.m < 1:
            raise ValidationError(f"m must be a positive integer, got {self.m!r}")
        if not _is_int(self.epsilon) or self.epsilon not in (FERRO, ANTIFERRO):
            raise ValidationError(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        if self.family == "FI":
            if self.alpha is None:
                raise ValidationError("FI chains need alpha > 0")
            object.__setattr__(self, "alpha", _as_alpha(self.alpha))
        elif self.alpha is not None:
            raise ValidationError(f"alpha only applies to FI chains, not {self.family}")

    @property
    def n_states(self) -> int:
        """Total number of spin configurations, m**N."""
        return self.m ** self.n_spins

    # -- JSON round trip; this is the CLI's canonical input format -------

    def to_json_dict(self) -> dict:
        out = {"family": self.family, "N": self.n_spins, "m": self.m, "epsilon": self.epsilon}
        if self.alpha is not None:
            out["alpha"] = [self.alpha.numerator, self.alpha.denominator]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainSpec":
        try:
            family = str(data["family"]).upper()
            n_spins = _integral(data["N"])
            m = _integral(data["m"])
            epsilon = _integral(data.get("epsilon", FERRO))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed chain spec {data!r}") from exc
        alpha = data.get("alpha")
        if alpha is not None:
            alpha = _as_alpha(alpha)
        return cls(family, n_spins, m, epsilon, alpha)

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON chain spec: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class DispersionTable:
    """Bond weights F(1..N-1) of a chain, integers first.

    ``energy_scale`` is the common denominator D for which D*F(i) is an
    integer for every bond; ``scaled`` holds those integers as Python
    ints, and everything else is derived from them.  HS and PF dispersions
    are integral (D = 1); the FI dispersion has D = denominator(alpha),
    and F(i) is exactly scaled[i] / D.  The float weights ``_floats`` take
    each scaled[i] / D by Python's integer true division, which is
    correctly rounded for integers of any size and so equals ``float`` of
    the exact rational.  (Dividing the scaled integers as floats would equal it only
    while they stay below 2**53; FI weights with a large alpha denominator
    pass that.)
    """

    scaled: tuple
    energy_scale: int

    def __len__(self):
        return len(self.scaled)

    @property
    def total(self) -> Fraction:
        """Sum of all bond weights, the width of the energy support."""
        return Fraction(self.scaled_total, self.energy_scale)

    @property
    def scaled_total(self) -> int:
        return sum(self.scaled)

    @cached_property
    def _floats(self) -> np.ndarray:
        """The float weights, formed once per table; callers must not write
        to them."""
        return np.array([s / self.energy_scale for s in self.scaled])

    @cached_property
    def _palindromic(self) -> bool:
        """Whether the weights read the same backwards, as HS's do."""
        return self.scaled == self.scaled[::-1]


def dispersion(spec: ChainSpec) -> DispersionTable:
    """Dispersion relation of a chain.

    Returns the table of bond weights F(i) for i = 1..N-1:
    i*(N-i) for HS, i for PF and i*(alpha+i-1) for FI.  With alpha = p/q
    in lowest terms the FI weights are i*(p + q*(i-1)) / q, and bond 1
    has denominator exactly q, so the common scale is q.

    The weights depend on the family, N and alpha only, and one chain's
    moments and characteristic function read them several times in a row, so
    the last table is kept (tables are immutable).

    Raises
    ------
    CapacityError
        If the weights, at 80 bytes a bond and 4 more for each 30-bit digit
        of the largest one, would exceed the memory budget; this is checked
        before any weight is built.
    """
    return _dispersion(spec.family, spec.n_spins, spec.alpha)


def _check_dispersion_budget(family: str, n: int, alpha: Fraction | None) -> None:
    # measured with tracemalloc at N = 2 * 10**5: the tuple of weights, a
    # pointer and an int object a bond, and the float conversion of
    # normalized_dispersion, which the table keeps, peak at 80.1 bytes a bond
    # for HS, PF and FI alpha = 3/2, 88.1 for FI alpha = 1/(10**15 + 37),
    # 97.3 for 1/(10**40 + 1) and 124.1 for 1/(10**100 + 1), up to 52.1 past
    # the largest weight's int object (24 bytes and 4 per 30-bit digit);
    # counted as 56 past it
    if family == "HS":
        largest = (n // 2) * ((n + 1) // 2)
    elif family == "PF":
        largest = n - 1
    else:
        largest = (n - 1) * (alpha.numerator + alpha.denominator * (n - 2))
    per_bond = 80 + 4 * max(1, -(-largest.bit_length() // 30))
    check_grid_budget(f"dispersion of {n - 1} bonds needs {per_bond} bytes per bond = "
                      f"{per_bond * (n - 1)} bytes", per_bond * (n - 1))


def scaled_dispersion_total(spec: ChainSpec) -> int:
    """The sum of the scaled bond weights, ``dispersion(spec).scaled_total``,
    in closed form: N(N**2 - 1)/6 for HS, N(N - 1)/2 for PF and, with
    alpha = p/q, p N(N - 1)/2 + q N(N - 1)(N - 2)/3 for FI.

    It is the top scaled energy, so a backend can hold its energy grid to
    the memory budget before the weights are built.  Refused where
    :func:`dispersion` is, so that nothing of the chain's size, such as
    m**N, is formed for a chain whose weights could not be built.
    """
    n = spec.n_spins
    _check_dispersion_budget(spec.family, n, spec.alpha)
    if spec.family == "HS":
        return n * (n * n - 1) // 6
    if spec.family == "PF":
        return n * (n - 1) // 2
    p, q = spec.alpha.numerator, spec.alpha.denominator
    return p * n * (n - 1) // 2 + q * n * (n - 1) * (n - 2) // 3


@lru_cache(maxsize=1)
def _dispersion(family: str, n: int, alpha: Fraction | None) -> DispersionTable:
    _check_dispersion_budget(family, n, alpha)
    if family == "HS":
        scale, scaled = 1, tuple(i * (n - i) for i in range(1, n))
    elif family == "PF":
        scale, scaled = 1, tuple(range(1, n))
    else:
        p, scale = alpha.numerator, alpha.denominator
        scaled = tuple(i * (p + scale * (i - 1)) for i in range(1, n))
    if min(scaled) <= 0:
        raise ValidationError("dispersion values must be strictly positive")
    return DispersionTable(scaled=scaled, energy_scale=scale)


def normalized_dispersion(spec: ChainSpec, sigma: float) -> np.ndarray:
    """Bond weights divided by m*sigma, as floats.

    These are the phase increments per bond that enter the transfer
    matrices of the characteristic function; for all three families their
    size decays like N**-0.5 when sigma is the spectral width.
    """
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return dispersion(spec)._floats / (spec.m * float(sigma))
