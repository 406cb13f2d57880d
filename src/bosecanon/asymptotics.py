"""Large-N estimates for condensate statistics, and interaction damping scales.

Everything here is a closed form; the point is to give the fixed-N engine
something analytic to converge toward. The fluctuation and correlation
estimates diverge at the transition and are exposed with hard domain
errors there instead of clamped values, since their derivations assume the
condensate and the excited cloud are both macroscopic.

The interaction quantities use the pairwise energy scale lam_int (the
two-particle contribution to the ground-state energy, a / sqrt(2 pi) in
oscillator units for scattering length a). This is a different symbol
from the fugacity; keeping it in its own type avoids mixing them up.
damping_crossover compares the interaction-damped width with the free-gas
width; their ratio <= 1 means interactions dominate the damping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectrum import ZETA3, DomainError, _finite_real, _integer

__all__ = [
    "DELTA_N0_PREFACTOR",
    "condensate_fraction_limit",
    "delta_n0_fraction_limit",
    "correlation_limit",
    "InteractionParams",
    "DampingCrossover",
    "damping_crossover",
]

# sqrt(pi^2 / (6 zeta(3))): shows up as the normalised condensate
# fluctuation amplitude below.
DELTA_N0_PREFACTOR = math.sqrt(math.pi**2 / (6.0 * ZETA3))


def _check_below_transition(t_over_tc: float) -> float:
    """t_over_tc as the package's checked double, if it lies in (0, 1)."""
    t_over_tc = _finite_real("t_over_tc", t_over_tc)
    if not t_over_tc < 1.0:
        raise DomainError(
            f"t_over_tc must lie strictly inside (0, 1), got {t_over_tc}; "
            "the estimate assumes a macroscopic condensate"
        )
    return t_over_tc


def condensate_fraction_limit(t_over_tc: float) -> float:
    """N0/N as N goes to infinity: 1 - (T/Tc)^3, clamped at the transition."""
    t_over_tc = _finite_real("t_over_tc", t_over_tc, allow_zero=True)
    return max(0.0, 1.0 - t_over_tc**3)


def delta_n0_fraction_limit(n: int, t_over_tc: float) -> float:
    """Leading estimate of dN0/N0 below the transition.

    Fixed total N pins the condensate to the excited cloud, so dN0 equals
    the grand-canonical spread of the excited count, sqrt(pi^2/6 (T/eps)^3).
    Dividing by N0 = N (1 - t^3) and trading T/eps for t N^{1/3} zeta(3)^{-1/3}
    leaves n^{-1/2} t^{3/2} / (1 - t^3) times the prefactor above.
    """
    n = _integer("particle number", n, 1)
    t_over_tc = _check_below_transition(t_over_tc)
    t3 = t_over_tc**3
    return DELTA_N0_PREFACTOR * t_over_tc**1.5 / ((1.0 - t3) * math.sqrt(n))


def correlation_limit(n: int, t_over_tc: float) -> float:
    """Leading estimate of <dn0 dn1>/(N0 N1): negative, vanishing as N^{-2/3}."""
    n = _integer("particle number", n, 1)
    t_over_tc = _check_below_transition(t_over_tc)
    t3 = t_over_tc**3
    return -(n ** (-2.0 / 3.0)) * t_over_tc / ((1.0 - t3) * ZETA3 ** (1.0 / 3.0))


@dataclass(frozen=True)
class InteractionParams:
    """Pairwise interaction energy scale, in trap units."""

    pair_energy: float

    def __post_init__(self):
        # frozen: store the checked float, as TrapSpectrum stores its int
        object.__setattr__(self, "pair_energy", _finite_real(
            "pair_energy", self.pair_energy, allow_zero=True))


@dataclass(frozen=True)
class DampingCrossover:
    """Which mechanism suppresses condensate fluctuations harder: ratio <= 1
    means interactions dominate, ratio > 1 the fixed particle number."""

    fixed_n_scale: float       # sqrt(T^3), the free-gas spread
    interaction_scale: float   # sqrt(T/lam_int), inf when lam_int = 0

    @property
    def ratio(self) -> float:
        return self.interaction_scale / self.fixed_n_scale


def damping_crossover(t: float, params: InteractionParams) -> DampingCrossover:
    """Compare the interaction-damped width with the free-gas width.

    The two coincide exactly when lam_int = T^{-2};
    stronger interactions than that (ratio <= 1) dominate the damping.
    """
    t = _finite_real("temperature", t)
    fixed_n = math.sqrt(t ** 3)
    if params.pair_energy == 0.0:
        return DampingCrossover(fixed_n, math.inf)
    return DampingCrossover(fixed_n, math.sqrt(t / params.pair_energy))
