"""Level structure of the 3D isotropic harmonic trap.

Energies are measured from the ground level, in units of the level spacing
unless a spacing is given explicitly. Level m carries energy
``m*level_spacing`` and holds ``(m+1)(m+2)/2`` states (the number of ways
to split m quanta among three Cartesian axes).

The condensation temperature for N particles follows from equating N to the
continuum excited-state capacity ``zeta(3) * (T/spacing)**3``, giving
``Tc = N**(1/3) * zeta(3)**(-1/3) * spacing``.

Input rule for the package: particle numbers, level indices and thread
counts are finite whole numbers; temperatures, spacings and energy scales
are finite. Anything else is a DomainError naming the quantity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Apery's constant zeta(3), full double precision.
ZETA3 = 1.2020569031595942854

__all__ = [
    "ZETA3",
    "DomainError",
    "TrapSpectrum",
    "critical_temperature",
    "weighted_geometric_tail",
]


class DomainError(ValueError):
    """Raised when an input lies outside the physical domain of a formula."""


def _finite_real(name: str, value: float, allow_zero: bool = False) -> float:
    """value, if it is finite and positive (or zero, with allow_zero)."""
    if not (0 <= value < math.inf and (allow_zero or value != 0)):
        sign = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{name} must be {sign} and finite, got {value}")
    return value


def _integer(name: str, value: int, floor: int) -> int:
    """value as an int if it is a finite whole number >= floor; never floored."""
    if not (floor <= value <= sys.float_info.max and value % 1 == 0):
        raise DomainError(f"{name} must be a finite integer >= {floor}, got {value}")
    return int(value)


@dataclass(frozen=True)
class TrapSpectrum:
    """Trap spectrum: spacing and top level index, ground level at zero.

    ``max_level=None`` is the unbounded ladder: operations that materialise
    level arrays then need an explicit cap, and the levels above it are
    closed in Boltzmann order (``tail_weight``). A finite ``max_level`` is
    the truncated model: the ladder ends there and has no tail.
    """

    level_spacing: float = 1.0
    max_level: int | None = None

    def __post_init__(self) -> None:
        _finite_real("level_spacing", self.level_spacing)
        if self.max_level is not None:
            _integer("max_level", self.max_level, 0)

    def resolved_max_level(self, m_max: int | None = None) -> int:
        """Effective top level: requests beyond a finite cap clamp to it;
        a negative or fractional request is a DomainError."""
        mm = self.max_level if m_max is None else m_max
        if mm is None:
            raise DomainError("spectrum has no max_level and no m_max was given")
        mm = _integer("top level", mm, 0)
        if self.max_level is not None:
            mm = min(mm, self.max_level)
        return int(mm)

    def degeneracies(self, m_max: int | None = None) -> np.ndarray:
        mm = self.resolved_max_level(m_max)
        m = np.arange(mm + 1, dtype=np.float64)
        return (m + 1.0) * (m + 2.0) / 2.0

    def with_ground_offset(self, ground_offset: float) -> "TrapSpectrum":
        """This spectrum: its ground level is at zero, so only 0.0 is valid."""
        if ground_offset != 0.0:
            raise DomainError(f"ground_offset must be 0.0, got {ground_offset}")
        return self

    def tail_weight(self, t: float, m_max: int) -> float:
        """Boltzmann weight of the levels above m_max, measured from level 0.

        ``sum_{m>m_max} (m+1)(m+2)/2 * exp(-m*spacing/T)`` for the unbounded
        ladder; 0.0 for a finite one, which ends at its top level.
        """
        if self.max_level is not None:
            return 0.0
        q = math.exp(-self.level_spacing / t)
        return weighted_geometric_tail(q, m_max)


def critical_temperature(spectrum: TrapSpectrum, n: int) -> float:
    """Condensation temperature ``N^(1/3) zeta(3)^(-1/3) * spacing``."""
    _integer("particle number", n, 1)
    return float(n / ZETA3) ** (1.0 / 3.0) * spectrum.level_spacing


def weighted_geometric_tail(x: float, m_max: int) -> float:
    """Closed form of ``sum_{m>m_max} (m+1)(m+2)/2 * x**m`` for 0 <= x < 1.

    Follows from shifting the index in the full sum ``(1-x)**-3`` by
    ``a = m_max+1``:  x**a * [ (1-x)**-3 + a*x*(1-x)**-2 + a(a+3)/2*(1-x)**-1 ].
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"geometric argument must lie in [0, 1), got {x}")
    if x == 0.0:
        return 0.0
    a = m_max + 1.0
    om = 1.0 - x
    lead = x ** (m_max + 1)  # underflows to 0 harmlessly for large m_max
    return lead * (1.0 / om**3 + a * x / om**2 + a * (a + 3.0) / (2.0 * om))
