"""Large-N estimates for condensate statistics, and interaction damping scales.

Everything here is a closed form or a cheap level sum; the point is to
give the fixed-N engine something analytic to converge toward. The
fluctuation and correlation estimates diverge at the transition and are
exposed with hard domain errors there instead of clamped values, since
their derivations assume the condensate and the excited cloud are both
macroscopic.

The interaction quantities use the pairwise energy scale lam_int (the
two-particle contribution to the ground-state energy, a / sqrt(2 pi) in
oscillator units for scattering length a). This is a different symbol
from the fugacity; keeping it in its own type avoids mixing them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ZETA3, DomainError, TrapSpectrum

__all__ = [
    "DELTA_N0_PREFACTOR",
    "FIXED_N_DOMINATES",
    "INTERACTION_DOMINATES",
    "condensate_fraction_limit",
    "delta_n0_fraction_limit",
    "correlation_limit",
    "correlation_transfer_ratio",
    "correlation_transfer_ratio_limit",
    "InteractionParams",
    "interacting_condensate_fluctuation",
    "interacting_condensate_mean",
    "DampingCrossover",
    "damping_crossover",
]

# sqrt(pi^2 / (6 zeta(3))): shows up as the normalised condensate
# fluctuation amplitude below.
DELTA_N0_PREFACTOR = math.sqrt(math.pi**2 / (6.0 * ZETA3))


def _check_below_transition(t_over_tc: float) -> None:
    if not 0.0 < t_over_tc < 1.0:
        raise DomainError(
            f"t_over_tc must lie strictly inside (0, 1), got {t_over_tc}; "
            "the estimate assumes a macroscopic condensate"
        )


def condensate_fraction_limit(t_over_tc: float) -> float:
    """N0/N as N goes to infinity: 1 - (T/Tc)^3, clamped at the transition."""
    if t_over_tc < 0:
        raise DomainError(f"t_over_tc must be nonnegative, got {t_over_tc}")
    return max(0.0, 1.0 - t_over_tc**3)


def delta_n0_fraction_limit(n: int, t_over_tc: float) -> float:
    """Leading estimate of dN0/N0 below the transition.

    Fixed total N pins the condensate to the excited cloud, so dN0 equals
    the grand-canonical spread of the excited count, sqrt(pi^2/6 (T/eps)^3).
    Dividing by N0 = N (1 - t^3) and trading T/eps for t N^{1/3} zeta(3)^{-1/3}
    leaves n^{-1/2} t^{3/2} / (1 - t^3) times the prefactor above.
    """
    if n < 1:
        raise DomainError(f"particle number must be >= 1, got {n}")
    _check_below_transition(t_over_tc)
    t3 = t_over_tc**3
    return DELTA_N0_PREFACTOR * t_over_tc**1.5 / ((1.0 - t3) * math.sqrt(n))


def correlation_limit(n: int, t_over_tc: float) -> float:
    """Leading estimate of <dn0 dn1>/(N0 N1): negative, vanishing as N^{-2/3}."""
    if n < 1:
        raise DomainError(f"particle number must be >= 1, got {n}")
    _check_below_transition(t_over_tc)
    t3 = t_over_tc**3
    return -(n ** (-2.0 / 3.0)) * t_over_tc / ((1.0 - t3) * ZETA3 ** (1.0 / 3.0))


def correlation_transfer_ratio(spectrum: TrapSpectrum, t: float,
                               m_max: int | None = None) -> float:
    """-(dN1/dlam) / (dNe/dlam) at fugacity lam = 1, by explicit level sums.

    Number conservation converts a condensate fluctuation into an opposite
    fluctuation of the excited cloud, distributed over the excited states
    in proportion to their fugacity response. The response of a single
    state at energy E above the ground state is

        d/dlam [ lam x / (1 - lam x) ] at lam=1  =  x / (1 - x)^2,
        x = e^{-E/T},

    so with q = e^{-spacing/T} the designated first-level state contributes
    q/(1-q)^2 and the whole excited cloud sum_{m>=1} g_m q^m/(1-q^m)^2.
    For T much larger than the spacing these grow as (T/spacing)^2 and
    (1/2)(T/spacing)^3 integral u^2 e^{-u}/(1-e^{-u})^2 du
    = (pi^2/6)(T/spacing)^3 respectively, giving the closed-form limit
    -(6/pi^2)(spacing/T); this function keeps the finite sums.

    Energies are measured from the ground state, so the result does not
    depend on the spectrum's ground offset. A finite ladder sums its own
    levels up to its top one and has no tail.
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    if m_max is None:
        m_max = int(math.ceil(30.0 * t / spectrum.level_spacing)) + 40
    m_max = spectrum.resolved_max_level(m_max)
    m = np.arange(1, m_max + 1, dtype=np.float64)
    g = (m + 1.0) * (m + 2.0) / 2.0
    q = math.exp(-spectrum.level_spacing / t)
    x = q**m
    excited = float((g * x / (1.0 - x) ** 2).sum())
    # states beyond the cut respond linearly: d/dlam (lam x) = x
    excited += spectrum.tail_weight(t, m_max)
    if not excited > 0.0:
        raise DomainError("no excited level carries weight at this temperature")
    single = q / (1.0 - q) ** 2
    return -single / excited


def correlation_transfer_ratio_limit(spectrum: TrapSpectrum, t: float) -> float:
    """High-temperature closed form of the transfer ratio: -(6/pi^2) spacing/T."""
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    return -6.0 * spectrum.level_spacing / (math.pi**2 * t)


@dataclass(frozen=True)
class InteractionParams:
    """Pairwise interaction energy scale, in trap units."""

    pair_energy: float

    def __post_init__(self):
        if self.pair_energy < 0:
            raise DomainError(
                f"pair_energy must be nonnegative, got {self.pair_energy}"
            )

    @classmethod
    def from_scattering_length(cls, a: float) -> "InteractionParams":
        return cls(a / math.sqrt(2.0 * math.pi))


def interacting_condensate_fluctuation(t: float, params: InteractionParams) -> float:
    """Condensate spread sqrt(T/lam_int) of the interaction-damped Gaussian.

    Repulsion makes the energy quadratic in n0 around its mean, so the
    grand-canonical distribution of n0 collapses from exponential to a
    Gaussian of width sqrt(T/lam_int).
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    if not params.pair_energy > 0:
        raise DomainError("pair_energy must be positive for the damped width")
    return math.sqrt(t / params.pair_energy)


def interacting_condensate_mean(mu: float, params: InteractionParams) -> float:
    """Peak condensate number mu/(2 lam_int) of the same Gaussian."""
    if not mu > 0:
        raise DomainError(f"chemical potential must be positive, got {mu}")
    if not params.pair_energy > 0:
        raise DomainError("pair_energy must be positive for the damped mean")
    return mu / (2.0 * params.pair_energy)


FIXED_N_DOMINATES = "fixed_n_dominates"
INTERACTION_DOMINATES = "interaction_dominates"


@dataclass(frozen=True)
class DampingCrossover:
    """Which mechanism suppresses condensate fluctuations harder."""

    regime: str
    fixed_n_scale: float       # sqrt((T/spacing)^3), the free-gas spread
    interaction_scale: float   # sqrt(T/lam_int), inf when lam_int = 0

    @property
    def ratio(self) -> float:
        return self.interaction_scale / self.fixed_n_scale


def damping_crossover(spectrum: TrapSpectrum, t: float,
                      params: InteractionParams) -> DampingCrossover:
    """Compare the interaction-damped width with the free-gas width.

    The two coincide exactly when lam_int/spacing = (T/spacing)^{-2};
    stronger interactions than that dominate the damping.
    """
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    eps = spectrum.level_spacing
    fixed_n = math.sqrt((t / eps) ** 3)
    if params.pair_energy == 0.0:
        return DampingCrossover(FIXED_N_DOMINATES, fixed_n, math.inf)
    interaction = math.sqrt(t / params.pair_energy)
    regime = (
        INTERACTION_DOMINATES
        if params.pair_energy / eps >= (t / eps) ** (-2.0)
        else FIXED_N_DOMINATES
    )
    return DampingCrossover(regime, fixed_n, interaction)
