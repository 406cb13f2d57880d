import math
from decimal import Decimal

import numpy as np
import pytest

from bosecanon import DomainError, TrapSpectrum, critical_temperature
from bosecanon.asymptotics import (
    DELTA_N0_PREFACTOR,
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
    # any real type of T/Tc computes with its double, and gives a float
    for t in (np.float32(0.5), Decimal("0.5")):
        assert repr(delta_n0_fraction_limit(10_000, t)) == repr(got)


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


def brute_transfer_ratio(t, m_max):
    """Ratio of d<n1>/d(mu/T) to d<N_e>/d(mu/T) at mu = 0, summed term by
    term with no closed forms."""
    x1 = math.exp(-1.0 / t)
    top = -x1 / (1.0 - x1) ** 2
    bottom = 0.0
    for m in range(1, m_max + 1):
        q = math.exp(-m / t)
        g = (m + 1) * (m + 2) / 2.0
        bottom += g * q / (1.0 - q) ** 2
    return top / bottom


def transfer_ratio_limit(t):
    """High-temperature closed form of the transfer ratio, the factor eq. 12
    takes from number conservation: -(6/pi^2)/T."""
    return -6.0 / (math.pi**2 * t)


def test_transfer_ratio_approaches_continuum_limit():
    # the discrete ladder's ratio converges to -(6/pi^2)/T with a slowly
    # decaying ln(T)/T correction, so use a generous matching band
    for t in (20.0, 200.0):
        got = brute_transfer_ratio(t, m_max=int(30 * t) + 40)
        band = 2.0 * math.log(t) / t
        assert got < 0.0
        assert got == pytest.approx(transfer_ratio_limit(t), rel=band)


def test_transfer_ratio_limit_form():
    # T times the ratio tends to -6/pi^2, the closed form the correlation
    # limit uses
    gaps = [
        abs(tt * brute_transfer_ratio(tt, int(30 * tt) + 40)
            + 6.0 / math.pi**2)
        for tt in (10.0, 40.0, 160.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_correlation_pieces_compose():
    # correlation_limit = transfer-ratio limit * (condensate variance)/(N n1)
    # with Var(n0) -> (prefactor t^{3/2} sqrt(N))^2 and n1 -> T; the
    # algebra collapses to the -N^{-2/3} t/((1-t^3) zeta3^{1/3}) form used
    # for the plotted curve, normalised by N0/N = 1 - t^3
    n, t = 10**6, 0.5
    tc = critical_temperature(SPEC, n)
    var0 = (delta_n0_fraction_limit(n, t) * (1.0 - t**3) * n) ** 2
    n1_single = t * tc
    n0 = (1.0 - t**3) * n
    composed = transfer_ratio_limit(t * tc) * var0 / (n0 * n1_single)
    assert composed == pytest.approx(correlation_limit(n, t), rel=1e-10)


# ------------------------------------------------------------ interactions


def test_interaction_params_validation():
    assert InteractionParams(0.0).pair_energy == 0.0
    with pytest.raises(DomainError):
        InteractionParams(-0.5)


def test_crossover_no_interaction_degenerates():
    # no interaction damping at all: the fixed particle number dominates
    cross = damping_crossover(10.0, InteractionParams(0.0))
    assert math.isinf(cross.interaction_scale) and math.isinf(cross.ratio)
