"""Level structure of the 3D isotropic harmonic trap.

The level spacing is the unit of energy and temperature (Boltzmann's
constant is 1). Energies are measured from the ground level: level m
carries energy m and holds ``(m+1)(m+2)/2`` states (the number of ways to
split m quanta among three Cartesian axes). The spectrum holds the ladder's
top alone; grand_canonical._level_ladder is the one place that builds its
level arrays, degeneracies and tail weight.

The condensation temperature for N particles follows from equating N to the
continuum excited-state capacity ``zeta(3) * T**3``, giving
``Tc = N**(1/3) * zeta(3)**(-1/3)``.

Input rule for the package: particle numbers, level indices and thread
counts are finite whole numbers; temperatures and energy scales are finite
real numbers. Neither is a bool, None, a string or a complex number.
Anything else is a DomainError naming the quantity. Each check returns the
value the package computes with: _integer the int it checked, _finite_real
the nearest double (a float), so no caller's number type reaches the
arithmetic. A real with no finite double (10**400) is refused like NaN.
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


def _is_real(value) -> bool:
    """Whether value orders as a real number: not a bool, None, a string or
    a complex number, nor a value whose comparison raises an arithmetic
    error (a Decimal NaN)."""
    if isinstance(value, (bool, np.bool_, np.complexfloating)):
        return False
    try:
        value < 0.0
    except (TypeError, ArithmeticError):
        return False
    return True


def _finite_real(name: str, value: float, allow_zero: bool = False) -> float:
    """value's nearest double, as a float, if value is a real number and
    that double is finite and positive (or zero, with allow_zero). The
    check is made on the double, so a value past the doubles (10**400,
    Decimal("1e400")) or a positive one that rounds to 0 (Decimal("1e-400"))
    is refused; the error names the value as given."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except (TypeError, ValueError, OverflowError):  # 10**400, arrays
        x = math.nan
    if not (0.0 <= x < math.inf and (allow_zero or x != 0.0)):
        sign = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{name} must be {sign} and finite, got {value!s}")
    return x


def _integer(name: str, value: int, floor: int) -> int:
    """value as an int if it is a finite whole number >= floor, not a bool;
    never floored. The bounds are compared on the int, so a narrow float
    such as np.float32 is never cast to the double range's top."""
    try:
        whole = int(value) if _is_real(value) else None
    except (TypeError, ValueError, OverflowError):  # NaN, inf, arrays
        whole = None
    if whole is None or whole != value or not (
            floor <= whole <= sys.float_info.max):
        raise DomainError(f"{name} must be a finite integer >= {floor}, got {value!s}")
    return whole


@dataclass(frozen=True, kw_only=True)
class TrapSpectrum:
    """Trap spectrum: top level index, ground level at zero, unit spacing.

    ``max_level=None`` is the unbounded ladder: level arrays then stop at a
    resolved top, and the levels above it are closed in Boltzmann order. A
    finite ``max_level`` is the truncated model: the ladder ends there and
    has no tail. The level arrays, degeneracies and tail weight are built
    in one place, ``grand_canonical._level_ladder``.
    """

    max_level: int | None = None
    level_spacing = 1.0  # the unit of energy and temperature: not a field

    def __post_init__(self) -> None:
        if self.max_level is not None:
            # frozen: store the checked int, not the caller's 45.0
            object.__setattr__(self, "max_level",
                               _integer("max_level", self.max_level, 0))

    def with_ground_offset(self, ground_offset: float) -> "TrapSpectrum":
        """This spectrum: its ground level is at zero, so only 0.0 is valid."""
        if ground_offset != 0.0:
            raise DomainError(f"ground_offset must be 0.0, got {ground_offset}")
        return self


def critical_temperature(spectrum: TrapSpectrum, n: int) -> float:
    """Condensation temperature ``N^(1/3) zeta(3)^(-1/3)``."""
    n = _integer("particle number", n, 1)
    return (n / ZETA3) ** (1.0 / 3.0)


def weighted_geometric_tail(x: float, m_max: int) -> float:
    """Closed form of ``sum_{m>m_max} (m+1)(m+2)/2 * x**m`` for 0 <= x < 1.

    Follows from shifting the index in the full sum ``(1-x)**-3`` by
    ``a = m_max+1``:  x**a * [ (1-x)**-3 + a*x*(1-x)**-2 + a(a+3)/2*(1-x)**-1 ].
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"geometric argument must lie in [0, 1), got {x}")
    a = m_max + 1.0
    om = 1.0 - x
    lead = x ** (m_max + 1)  # underflows to 0 harmlessly for large m_max
    return lead * (1.0 / om**3 + a * x / om**2 + a * (a + 3.0) / (2.0 * om))
