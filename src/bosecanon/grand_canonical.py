"""Grand-canonical reference model for the trapped ideal Bose gas.

Closed forms used throughout:

  occupation of a state at energy E:   n = 1 / (exp((E - mu)/T) - 1)
  its fluctuation:                     dn = sqrt(n (n + 1))

The inverse fugacity obeys exp(-mu/T) = 1 + 1/N_0 where N_0 is the ground
occupation, so mu -> ground energy from below as N_0 grows. Distinct states
are statistically independent in this ensemble: cross covariances vanish.

Finite sums run over levels 0..m_max. On the unbounded ladder the remainder
is estimated by the Boltzmann-order geometric tail sum_{m>M} g_m lambda q^m,
which has a closed form via the (1-q)^-3 partial-sum identity
(TrapSpectrum.tail_weight); a finite ladder has no remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import DomainError, TrapSpectrum

__all__ = [
    "GrandCanonicalState",
    "mean_occupation",
    "occupation_fluctuation",
    "solve_fugacity",
    "auto_m_max",
]

# Relative count tolerance at which solve_fugacity stops.
FUGACITY_REL_TOL = 1e-10


def auto_m_max(spectrum: TrapSpectrum, t: float, m_max: int | None = None) -> int:
    """Top level summed level by level: a requested m_max, clamped to a
    finite ladder's top; without one, the finite ladder's own top level, or
    on the unbounded ladder one high enough that the Boltzmann tail beyond
    it is a second-order correction (see canonical engine for the matching
    closure)."""
    if m_max is not None:
        return spectrum.resolved_max_level(m_max)
    if spectrum.max_level is not None:
        return spectrum.max_level
    return int(math.ceil(15.0 * t / spectrum.level_spacing)) + 20


def mean_occupation(t: float, energy: float, mu: float) -> float:
    """Bose-Einstein occupation of one state: 1/(exp((E-mu)/T) - 1)."""
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    if energy <= mu:
        raise DomainError(f"state energy {energy} must exceed mu {mu}")
    return 1.0 / math.expm1((energy - mu) / t)


def occupation_fluctuation(occupation: float) -> float:
    """RMS fluctuation sqrt(n(n+1)) of a single-state occupation."""
    if occupation < 0:
        raise DomainError(f"occupation must be nonnegative, got {occupation}")
    return math.sqrt(occupation * (occupation + 1.0))


def _level_factors(spectrum: TrapSpectrum, t: float, m_max: int):
    """The fugacity-free parts of _occupation_sums: Boltzmann factors and
    degeneracies of levels 0..m_max, and the ground factor and Boltzmann
    weight of the tail above them."""
    e = spectrum.energies(m_max)
    return (np.exp(-e / t), spectrum.degeneracies(m_max),
            math.exp(-spectrum.ground_offset / t),
            spectrum.tail_weight(t, e.size - 1))


def _occupation_sums(levels, lam: float, variance: bool = True):
    """Level-summed N and dN/dlambda*lambda (number variance), with tail.

    levels is _level_factors' tuple; lam is the absolute fugacity
    exp(mu/T), and x_m = lam*exp(-E_m/T) < 1 must hold for every level,
    which the solver bracket guarantees. variance=False skips the variance
    sum and returns None in its place.
    """
    boltzmann, g, ground, tail_weight = levels
    x = lam * boltzmann
    if x[0] >= 1.0:
        raise DomainError("fugacity at or above the ground-state divergence")
    tail = lam * ground * tail_weight
    n = float((g * x / (1.0 - x)).sum() + tail)
    if not variance:
        return n, None
    return n, float((g * x / (1.0 - x) ** 2).sum() + tail)


@dataclass(frozen=True)
class GrandCanonicalState:
    """Solved grand-canonical ensemble at fixed mean particle number."""

    spectrum: TrapSpectrum
    t: float
    fugacity: float          # exp(mu/T), absolute normalisation
    m_max: int
    target_n: int

    @property
    def mu(self) -> float:
        return self.t * math.log(self.fugacity)

    def occupation(self, m: int) -> float:
        """Mean occupation of a single state in level m."""
        return mean_occupation(self.t, self.spectrum.energy(m), self.mu)

    @property
    def n0(self) -> float:
        return self.occupation(0)

    @property
    def delta_n0(self) -> float:
        return occupation_fluctuation(self.n0)

    @property
    def total_number(self) -> float:
        levels = _level_factors(self.spectrum, self.t, self.m_max)
        n, _ = _occupation_sums(levels, self.fugacity, variance=False)
        return n

    @property
    def number_variance(self) -> float:
        """sum over states of n(n+1); independent-state fluctuations add."""
        levels = _level_factors(self.spectrum, self.t, self.m_max)
        _, v = _occupation_sums(levels, self.fugacity)
        return v


def solve_fugacity(
    spectrum: TrapSpectrum,
    t: float,
    n_target: int,
    m_max: int | None = None,
) -> GrandCanonicalState:
    """Solve sum_m g_m/(exp((E_m-mu)/T) - 1) = N for the fugacity.

    Bracketed bisection on (0, exp(E_0/T)) narrowed until the summed count
    matches n_target to FUGACITY_REL_TOL, then polished by Newton steps
    using the analytic derivative dN/dlam = sum g x/(lam (1-x)^2).
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    if n_target < 1:
        raise DomainError(f"target particle number must be >= 1, got {n_target}")
    mm = auto_m_max(spectrum, t, m_max)

    lam_max = math.exp(spectrum.energy(0) / t)
    lo, hi = 0.0, lam_max * (1.0 - 1e-15)
    levels = _level_factors(spectrum, t, mm)

    def count(lam: float) -> float:
        n, _ = _occupation_sums(levels, lam, variance=False)
        return n

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if count(mid) < n_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * lam_max:
            break
    lam = 0.5 * (lo + hi)

    # Newton polish on the count residual
    for _ in range(60):
        n, var = _occupation_sums(levels, lam)
        resid = n - n_target
        if abs(resid) <= FUGACITY_REL_TOL * n_target:
            break
        step = -resid * lam / var  # dN/dlam = var/lam
        nxt = lam + step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if count(nxt) < n_target:
            lo = nxt
        else:
            hi = nxt
        lam = nxt
    else:
        raise DomainError("fugacity solve did not reach requested tolerance")

    return GrandCanonicalState(spectrum, t, lam, mm, n_target)
