"""Grand-canonical reference model for the trapped ideal Bose gas.

Energies are measured from the ground level, so the relative fugacity
x0 = exp(mu/T) lies in (0, 1) and mu -> 0 from below as n0 grows. The
solved state reads the ground state's mean and spread from x0 alone:
n0 = x0/(1 - x0) and delta_n0 = sqrt(x0)/(1 - x0) = sqrt(n0 (n0 + 1)).

Finite sums run over levels 0..m_max, resolved by auto_m_max alone; every
n1 consumer applies _level_one's level-1 rule. On the unbounded ladder the
remainder, the Boltzmann-order tail sum_{m>M} g_m lambda q^m, is closed via
the (1-q)^-3 identity (spectrum.weighted_geometric_tail); a finite ladder
has none.

The ladder is built in one place, _level_ladder: levels 0..M with the
ground level at zero energy, their degeneracies g_m = (m+1)(m+2)/2 and the
tail weight above M. It is built once per fugacity solve and kept by the
solved state; the engine shifts it, the oracle reads it. Its three sums at
level fugacities x, over states independent in this ensemble, are written
once, here: _level_count of the occupations n = 1/(exp((E - mu)/T) - 1),
_level_variance of their variances n (n + 1) and _level_log_z of log(1 + n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .spectrum import (DomainError, TrapSpectrum, _finite_real, _integer,
                       weighted_geometric_tail)

__all__ = [
    "GrandCanonicalState",
    "LevelLadder",
    "solve_fugacity",
    "auto_m_max",
]

# Most levels summed one by one: 80 MB per level array. N = 10^7 at
# T/Tc = 1000 needs 3.0e6; T/Tc = 10^6 at N = 100 would need 6.5e7.
MAX_LEVELS = 10**7


def auto_m_max(spectrum: TrapSpectrum, t: float, m_max: int | None = None) -> int:
    """The one resolver of a top level, the last level summed one by one: a
    requested m_max (whole, >= 0) clamped to a finite ladder's top; without
    one, that top, or on the unbounded ladder 15T + 20, where the Boltzmann
    tail beyond it is a second-order correction (see canonical engine for
    the matching closure). Above MAX_LEVELS it is a DomainError."""
    if m_max is not None or spectrum.max_level is not None:
        top = min(_integer("top level", m, 0)
                  for m in (m_max, spectrum.max_level) if m is not None)
    else:
        levels = 15.0 * _finite_real("temperature", t)
        top = int(math.ceil(levels)) + 20 if levels <= MAX_LEVELS else levels
    if top > MAX_LEVELS:
        raise DomainError(f"{top:.2g} trap levels at T = {t} exceed the limit "
                          f"of {MAX_LEVELS:.0e} levels")
    return top


def _level_one(t: float, top: int) -> None:
    """The n1 consumers' one rule: levels 0..top hold level 1, and exp(-1/T)
    is a normal double (below T = 1/708.4 n1 reads 0); else a DomainError."""
    q1 = math.exp(-1.0 / _finite_real("temperature", t))
    if top < 1:
        raise DomainError(f"n1 observables need level 1, got m_max={top}")
    if q1 < sys.float_info.min:
        raise DomainError(
            f"temperature {t} is too small for the n1 observables: the "
            f"level-1 Boltzmann factor exp(-1/T) = {q1:.3g} underflows the "
            "normal doubles")


@dataclass(frozen=True, eq=False)
class LevelLadder:
    """Levels 0..M, ground at zero energy: energies m, exp(-E/T),
    degeneracies, and the tail weight above M. Read-only arrays, built by
    _level_ladder alone."""

    energies: np.ndarray
    boltzmann: np.ndarray
    degeneracies: np.ndarray
    tail_weight: float


def _level_ladder(spectrum: TrapSpectrum, t: float, m_max: int) -> LevelLadder:
    """The one place that turns (spectrum, T, m_max) into level arrays:
    levels 0..auto_m_max(spectrum, t, m_max), (m+1)(m+2)/2 states each, and
    the Boltzmann weight sum_{m>M} g_m exp(-m/T) of the levels above the top
    M on the unbounded ladder (0.0 on a finite one, which ends at M)."""
    top = auto_m_max(spectrum, t, m_max)
    e = np.arange(top + 1, dtype=np.float64)
    b = np.exp(-e / t)
    g = (e + 1.0) * (e + 2.0) / 2.0
    for a in (e, b, g):
        a.flags.writeable = False
    tail = (0.0 if spectrum.max_level is not None
            else weighted_geometric_tail(math.exp(-1.0 / t), top))
    return LevelLadder(e, b, g, tail)


# Count, variance and log Z of the levels at fugacities x < 1 (module doc).
def _level_count(x: np.ndarray, g: np.ndarray, tail: float) -> float:
    return float((g * x / (1.0 - x)).sum() + tail)


def _level_variance(x: np.ndarray, g: np.ndarray, tail: float) -> float:
    return float((g * x / (1.0 - x) ** 2).sum() + tail)


def _level_log_z(x: np.ndarray, g: np.ndarray, tail: float) -> float:
    return float(tail - (g * np.log1p(-x)).sum())


def _occupation_sums(ladder: LevelLadder, lam: float) -> float:
    """Mean number at the ladder's fugacity lam (the bracket keeps x_m < 1)."""
    return _level_count(lam * ladder.boltzmann, ladder.degeneracies,
                        lam * ladder.tail_weight)


@dataclass(frozen=True)
class GrandCanonicalState:
    """Solved grand-canonical ensemble at fixed mean particle number.

    relative_fugacity is x0 = exp(mu/T), the fugacity of the ladder with its
    ground level at zero energy; it lies in (0, 1), and every sum runs on
    the ladder the solve built (ladder, left out of equality and repr). The
    spectrum is not kept: the ladder holds all of it that the sums read,
    its levels 0..m_max and the tail weight above them.
    """

    t: float
    relative_fugacity: float
    m_max: int
    ladder: LevelLadder = field(compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.relative_fugacity < 1.0:
            raise DomainError("relative fugacity must lie in (0, 1), got "
                              f"{self.relative_fugacity}")

    @property
    def mu(self) -> float:
        return self.t * math.log(self.relative_fugacity)

    @property
    def n0(self) -> float:
        """Mean occupation x0/(1 - x0) of the ground state."""
        return self.relative_fugacity / (1.0 - self.relative_fugacity)

    @property
    def delta_n0(self) -> float:
        """RMS fluctuation sqrt(x0)/(1 - x0) = sqrt(n0(n0+1)) of the
        ground-state occupation."""
        x0 = self.relative_fugacity
        return math.sqrt(x0) / (1.0 - x0)

    @property
    def number_variance(self) -> float:
        """sum over states of n(n+1); independent-state fluctuations add."""
        ladder, lam = self.ladder, self.relative_fugacity
        return _level_variance(lam * ladder.boltzmann, ladder.degeneracies,
                               lam * ladder.tail_weight)


def solve_fugacity(
    spectrum: TrapSpectrum,
    t: float,
    n_target: int,
    m_max: int | None = None,
) -> GrandCanonicalState:
    """Solve sum_m g_m/(exp((E_m-mu)/T) - 1) = N for the fugacity.

    Bisection on the relative fugacity x0 = exp(mu/T) over (0, 1 - 1e-15),
    summed on the spectrum's level ladder; bisection stops when the bracket
    is two adjacent doubles lo < hi with count(lo) < N <= count(hi): the
    answer is as close as double precision can put it, at any N and T, and
    no count tolerance is involved. The returned x0 is their rounded
    midpoint, one of the two. The only failure is an N above the count at
    the top of the bracket, a DomainError checked before the loop.
    """
    t = _finite_real("temperature", t)
    n_target = _integer("target particle number", n_target, 1)
    mm = auto_m_max(spectrum, t, m_max)
    ladder = _level_ladder(spectrum, t, mm)

    lo, hi = 0.0, 1.0 - 1e-15
    top = _occupation_sums(ladder, hi)
    if top < n_target:
        raise DomainError(
            f"{n_target} particles exceed the {top:.6g} the ladder holds "
            f"below the ground-state divergence at T = {t}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _occupation_sums(ladder, mid) < n_target:
            lo = mid
        else:
            hi = mid
    return GrandCanonicalState(t, mid, mm, ladder)
