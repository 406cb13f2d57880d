"""Grand-canonical reference model for the trapped ideal Bose gas.

Closed forms used throughout:

  occupation of a state at energy E:   n = 1 / (exp((E - mu)/T) - 1)
  its fluctuation:                     dn = sqrt(n (n + 1))
  continuum excited count:             N_e = zeta(3) (T/spacing)^3
  continuum excited fluctuation:       dN_e = sqrt(pi^2/6 (T/spacing)^3)
  continuum total energy:              <E> = pi^4/30 T^4/spacing^3
  energy fluctuation:                  dE = sqrt(T^2 d<E>/dT)

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

from .spectrum import (
    ZETA3,
    DomainError,
    TrapSpectrum,
    critical_temperature,
)

__all__ = [
    "GrandCanonicalState",
    "mean_occupation",
    "occupation_fluctuation",
    "solve_fugacity",
    "excited_count_limit",
    "excited_fluctuation_limit",
    "total_energy",
    "energy_fluctuation",
    "auto_m_max",
]

# Relative count tolerance at which solve_fugacity stops.
FUGACITY_REL_TOL = 1e-10


def auto_m_max(spectrum: TrapSpectrum, t: float) -> int:
    """Default truncation level: a finite ladder's own top level, otherwise
    one high enough that the Boltzmann tail beyond it is a second-order
    correction (see canonical engine for the matching closure)."""
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


def _occupation_sums(spectrum: TrapSpectrum, t: float, lam: float, m_max: int):
    """Level-summed N and dN/dlambda*lambda (number variance), with tail.

    lam is the absolute fugacity exp(mu/T); x_m = lam*exp(-E_m/T) < 1 must
    hold for every level, which the solver bracket guarantees.
    """
    e = spectrum.energies(m_max)
    g = spectrum.degeneracies(m_max)
    x = lam * np.exp(-e / t)
    if x[0] >= 1.0:
        raise DomainError("fugacity at or above the ground-state divergence")
    occ = g * x / (1.0 - x)
    var = g * x / (1.0 - x) ** 2
    tail = (lam * math.exp(-spectrum.ground_offset / t)
            * spectrum.tail_weight(t, e.size - 1))
    return float(occ.sum() + tail), float(var.sum() + tail)


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
        n, _ = _occupation_sums(self.spectrum, self.t, self.fugacity, self.m_max)
        return n

    @property
    def number_variance(self) -> float:
        """sum over states of n(n+1); independent-state fluctuations add."""
        _, v = _occupation_sums(self.spectrum, self.t, self.fugacity, self.m_max)
        return v

    def cross_covariance(self, m_a: int, m_b: int) -> float:
        """Covariance of occupations of states in two distinct levels.

        Identically zero: each state's occupation distribution factorises in
        this ensemble. Kept explicit because the fixed-N engine measures a
        nonzero (negative) value that this reference must contrast with.
        """
        self.spectrum.energy(m_a)
        self.spectrum.energy(m_b)
        return 0.0


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
    mm = auto_m_max(spectrum, t) if m_max is None else int(m_max)

    lam_max = math.exp(spectrum.energy(0) / t)
    lo, hi = 0.0, lam_max * (1.0 - 1e-15)

    def count(lam: float) -> float:
        n, _ = _occupation_sums(spectrum, t, lam, mm)
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
        n, var = _occupation_sums(spectrum, t, lam, mm)
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


def excited_count_limit(spectrum: TrapSpectrum, t: float) -> float:
    """Continuum excited-state capacity zeta(3) (T/spacing)^3."""
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    return ZETA3 * (t / spectrum.level_spacing) ** 3


def excited_fluctuation_limit(spectrum: TrapSpectrum, t: float) -> float:
    """Continuum excited-number RMS fluctuation sqrt(pi^2/6 (T/spacing)^3)."""
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    return math.sqrt(math.pi**2 / 6.0 * (t / spectrum.level_spacing) ** 3)


def total_energy(spectrum: TrapSpectrum, t: float) -> float:
    """Continuum mean energy pi^4/30 T^4/spacing^3 (offset not counted).

    Combining with the excited count gives the per-excited-particle form
    <E> = pi^4/(30 zeta(3)) * T * N_e, independent of the trap scale.
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    return math.pi**4 / 30.0 * t**4 / spectrum.level_spacing**3


def energy_fluctuation(spectrum: TrapSpectrum, t: float) -> float:
    """RMS energy fluctuation sqrt(T^2 d<E>/dT) of the continuum form.

    With <E> = pi^4/30 T^4/spacing^3 this is sqrt(4 pi^4/30) T^(5/2) /
    spacing^(3/2), so the relative fluctuation falls off as T^(-3/2).
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    return math.sqrt(4.0 * math.pi**4 / 30.0 * t**5 / spectrum.level_spacing**3)
