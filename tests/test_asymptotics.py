import math

import pytest
from hypothesis import given, settings, strategies as st

from bosecanon import DomainError, TrapSpectrum, critical_temperature
from bosecanon.asymptotics import (
    DELTA_N0_PREFACTOR,
    DampingCrossover,
    FIXED_N_DOMINATES,
    INTERACTION_DOMINATES,
    InteractionParams,
    condensate_fraction_limit,
    correlation_limit,
    damping_crossover,
    delta_n0_fraction_limit,
)
from bosecanon.spectrum import ZETA3

SPEC = TrapSpectrum()


# --------------------------------------------------------- condensate curve


def test_fraction_limit_endpoints():
    assert condensate_fraction_limit(0.0) == 1.0
    assert condensate_fraction_limit(1.0) == 0.0
    assert condensate_fraction_limit(1.7) == 0.0
    assert condensate_fraction_limit(0.6) == pytest.approx(1.0 - 0.216)


def test_fraction_limit_monotone():
    samples = [condensate_fraction_limit(0.05 * k) for k in range(21)]
    assert all(a >= b for a, b in zip(samples, samples[1:]))


# ------------------------------------------------------- fluctuation scale


def test_prefactor_value():
    assert DELTA_N0_PREFACTOR == pytest.approx(
        math.sqrt(math.pi**2 / (6.0 * ZETA3)), rel=1e-15
    )


def test_delta_n0_limit_scales_as_inverse_root_n():
    t = 0.5
    small = delta_n0_fraction_limit(1000, t)
    large = delta_n0_fraction_limit(4000, t)
    assert small / large == pytest.approx(2.0, rel=1e-12)


def test_delta_n0_limit_spot_value():
    # prefactor * t^{3/2} / ((1 - t^3) sqrt(N))
    got = delta_n0_fraction_limit(10_000, 0.5)
    want = DELTA_N0_PREFACTOR * 0.5**1.5 / ((1.0 - 0.125) * 100.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_delta_n0_limit_domain():
    with pytest.raises(DomainError):
        delta_n0_fraction_limit(1000, 1.0)
    with pytest.raises(DomainError):
        delta_n0_fraction_limit(1000, 1.4)
    with pytest.raises(DomainError):
        delta_n0_fraction_limit(0, 0.5)


# ------------------------------------------------------------- correlation


def test_correlation_limit_negative_and_scaling():
    t = 0.6
    c1 = correlation_limit(1000, t)
    c8 = correlation_limit(8000, t)
    assert c1 < 0.0
    # N^{-2/3}: multiplying N by 8 divides the magnitude by 4
    assert c1 / c8 == pytest.approx(4.0, rel=1e-12)


def test_correlation_limit_domain():
    with pytest.raises(DomainError):
        correlation_limit(1000, 1.0)


def brute_transfer_ratio(spectrum, t, m_max):
    """Ratio of d<n1>/d(mu/T) to d<N_e>/d(mu/T) at mu = 0, summed term by
    term with no closed forms."""
    x1 = math.exp(-spectrum.level_spacing / t)
    top = -x1 / (1.0 - x1) ** 2
    bottom = 0.0
    for m in range(1, m_max + 1):
        q = math.exp(-m * spectrum.level_spacing / t)
        g = (m + 1) * (m + 2) / 2.0
        bottom += g * q / (1.0 - q) ** 2
    return top / bottom


def transfer_ratio_limit(spectrum, t):
    """High-temperature closed form of the transfer ratio, the factor eq. 12
    takes from number conservation: -(6/pi^2) spacing/T."""
    return -6.0 * spectrum.level_spacing / (math.pi**2 * t)


def test_transfer_ratio_approaches_continuum_limit():
    # the discrete ladder's ratio converges to -(6/pi^2) spacing/T with a
    # slowly decaying ln(T)/T correction, so use a generous matching band
    for t in (20.0, 200.0):
        got = brute_transfer_ratio(SPEC, t, m_max=int(30 * t) + 40)
        band = 2.0 * math.log(t) / t
        assert got < 0.0
        assert got == pytest.approx(transfer_ratio_limit(SPEC, t), rel=band)


def test_transfer_ratio_limit_form():
    # the ratio depends on T only through T/spacing, and T/spacing times the
    # ratio tends to -6/pi^2, the closed form the correlation limit uses
    spec2 = TrapSpectrum(level_spacing=2.0)
    t = 10.0
    m_max = int(30 * t) + 40
    assert brute_transfer_ratio(spec2, 2.0 * t, m_max) == pytest.approx(
        brute_transfer_ratio(SPEC, t, m_max), rel=1e-12)
    assert transfer_ratio_limit(spec2, 2.0 * t) == pytest.approx(
        -6.0 / (math.pi**2 * t), rel=1e-14)
    gaps = [
        abs(tt * brute_transfer_ratio(SPEC, tt, int(30 * tt) + 40)
            + 6.0 / math.pi**2)
        for tt in (10.0, 40.0, 160.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_correlation_pieces_compose():
    # correlation_limit = transfer-ratio limit * (condensate variance)/(N n1)
    # with Var(n0) -> (prefactor t^{3/2} sqrt(N))^2 and n1 -> T/spacing; the
    # algebra collapses to the -N^{-2/3} t/((1-t^3) zeta3^{1/3}) form used
    # for the plotted curve, normalised by N0/N = 1 - t^3
    n, t = 10**6, 0.5
    tc = critical_temperature(SPEC, n)
    var0 = (delta_n0_fraction_limit(n, t) * (1.0 - t**3) * n) ** 2
    n1_single = t * tc / SPEC.level_spacing
    n0 = (1.0 - t**3) * n
    composed = transfer_ratio_limit(SPEC, t * tc) * var0 / (n0 * n1_single)
    assert composed == pytest.approx(correlation_limit(n, t), rel=1e-10)


# ------------------------------------------------------------ interactions


def test_interaction_params_validation():
    assert InteractionParams(0.0).pair_energy == 0.0
    with pytest.raises(DomainError):
        InteractionParams(-0.5)


def test_crossover_boundary_identity():
    # at pair_energy/spacing = (t/spacing)^{-2} the two damping scales agree
    t = 25.0
    lam = t**-2.0
    cross = damping_crossover(SPEC, t, InteractionParams(lam))
    assert cross.fixed_n_scale == pytest.approx(cross.interaction_scale, rel=1e-12)
    assert cross.ratio == pytest.approx(1.0, rel=1e-12)


def test_crossover_regimes():
    t = 25.0
    weak = damping_crossover(SPEC, t, InteractionParams(1e-8))
    strong = damping_crossover(SPEC, t, InteractionParams(10.0))
    assert weak.regime == FIXED_N_DOMINATES
    assert strong.regime == INTERACTION_DOMINATES
    assert weak.fixed_n_scale == pytest.approx(math.sqrt(t**3), rel=1e-14)


def test_crossover_no_interaction_degenerates():
    cross = damping_crossover(SPEC, 10.0, InteractionParams(0.0))
    assert cross.regime == FIXED_N_DOMINATES
    assert math.isinf(cross.interaction_scale)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(min_value=1.0, max_value=100.0),
    lam=st.floats(min_value=1e-10, max_value=100.0),
)
def test_crossover_regime_consistent_with_scales(t, lam):
    cross = damping_crossover(SPEC, t, InteractionParams(lam))
    if cross.regime == INTERACTION_DOMINATES:
        assert cross.interaction_scale <= cross.fixed_n_scale * (1 + 1e-12)
    else:
        assert cross.fixed_n_scale <= cross.interaction_scale * (1 + 1e-12)
