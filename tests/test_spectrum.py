import math
import sys

import pytest
from hypothesis import given, strategies as st

from bosecanon.canonical import canonical_observables
from bosecanon.grand_canonical import _level_ladder, auto_m_max, solve_fugacity
from bosecanon.oracle import recursion_table, truth
from bosecanon.spectrum import (
    ZETA3,
    DomainError,
    TrapSpectrum,
    critical_temperature,
    weighted_geometric_tail,
)


def test_degeneracy_small_levels():
    # level m holds one state per split of m quanta among three axes
    splits = [sum(1 for a in range(m + 1) for b in range(m + 1 - a))
              for m in range(8)]
    assert list(_level_ladder(TrapSpectrum(), 2.0, 7).degeneracies) == splits
    assert splits[:5] == [1, 3, 6, 10, 15]


def test_auto_m_max_clamps_to_cap():
    # a finite ladder clamps a request to its top and is its own default
    capped = TrapSpectrum(max_level=5)
    assert auto_m_max(capped, 2.0, 100) == 5
    assert auto_m_max(capped, 2.0, 3) == 3
    assert auto_m_max(capped, 2.0) == 5
    # the unbounded ladder keeps an explicit request, else takes 15T + 20
    assert auto_m_max(TrapSpectrum(), 2.0, 100) == 100
    assert auto_m_max(TrapSpectrum(), 2.0) == 50
    assert auto_m_max(TrapSpectrum(), 2.01) == 51


@pytest.mark.parametrize("call", [
    lambda: recursion_table(TrapSpectrum(), 5.0, 10, m_max=-1),
    lambda: solve_fugacity(TrapSpectrum(), 5.0, 10, m_max=-3),
    lambda: _level_ladder(TrapSpectrum(), 5.0, -2),
    lambda: TrapSpectrum(max_level=3.5),
    lambda: TrapSpectrum(max_level=math.inf),
    lambda: TrapSpectrum(max_level=math.nan),
    lambda: canonical_observables(TrapSpectrum(), 5.0, 10, 30.5),
], ids=["recursion_table", "solve_fugacity", "level-ladder",
        "max-level-fractional",
        "max-level-inf", "max-level-nan", "config-m-max-fractional"])
def test_negative_top_level_is_a_domain_error(call):
    # every caller resolves its top level through auto_m_max, and every top
    # level is a whole number (none is floored)
    with pytest.raises(DomainError):
        call()


def test_level_ladder_clamps_to_a_finite_top():
    # the ladder resolves its top with auto_m_max: a request above a finite
    # ladder's top clamps to it, and the ladder ends there with no tail
    ladder = _level_ladder(TrapSpectrum(max_level=3), 2.0, 4)
    assert ladder.degeneracies.size == 4
    assert ladder.tail_weight == 0.0


def test_energies_and_degeneracies_arrays():
    # the level ladder puts the ground level at zero
    ladder = _level_ladder(TrapSpectrum(), 2.0, 4)
    assert list(ladder.energies) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(ladder.boltzmann) == pytest.approx(
        [math.exp(-e / 2.0) for e in range(5)], rel=1e-15)
    assert list(ladder.degeneracies) == [1.0, 3.0, 6.0, 10.0, 15.0]
    assert ladder.tail_weight == weighted_geometric_tail(math.exp(-0.5), 4)


def test_invalid_spectrum_params():
    with pytest.raises(DomainError):
        TrapSpectrum(max_level=-2)


def test_level_spacing_is_the_unit_not_a_setting():
    # max_level is keyword-only: a positional number is not a top level
    assert TrapSpectrum().level_spacing == 1.0
    with pytest.raises(TypeError):
        TrapSpectrum(2.0)
    with pytest.raises(TypeError):
        TrapSpectrum(level_spacing=2.0)


def test_whole_numbers_beyond_the_double_range_are_domain_errors():
    # every integer input is also used as a float somewhere
    with pytest.raises(DomainError, match="particle number"):
        critical_temperature(TrapSpectrum(), 10**400)
    with pytest.raises(DomainError, match="max_level"):
        TrapSpectrum(max_level=10**309)
    top = int(sys.float_info.max)
    assert TrapSpectrum(max_level=top).max_level == top


def test_energies_are_measured_from_the_ground_level():
    # the ground level is at zero energy: there is no offset to set, and the
    # engine's log Z with its evaluation offset removed and the exact log Z
    # are one quantity (test_recursion_matches_the_demon_forms holds the
    # demon forms' log Z to the recursion's)
    with pytest.raises(TypeError):
        TrapSpectrum(ground_offset=1.0)
    spec = TrapSpectrum()
    assert spec.with_ground_offset(0.0) == spec
    with pytest.raises(DomainError, match="ground_offset"):
        spec.with_ground_offset(0.3)
    n = 1000
    t = 0.2 * critical_temperature(spec, n)
    res = canonical_observables(spec, t, n)
    log_z = truth(spec, t, n, res.m_max).log_z
    assert res.log_z_zero_offset == pytest.approx(log_z, rel=1e-12)


def test_critical_temperature_spot_value():
    # (1000 / zeta(3))^(1/3)
    tc = critical_temperature(TrapSpectrum(), 1000)
    assert tc == pytest.approx(9.40499, abs=1e-5)


def brute_tail(x: float, m_max: int, terms: int = 4000) -> float:
    return sum((m + 1) * (m + 2) // 2 * x**m for m in range(m_max + 1, terms))


def test_tail_reduces_to_full_sum_at_minus_one():
    # "tail above level -1" is the entire series, (1-x)^-3
    x = 0.37
    assert weighted_geometric_tail(x, -1) == pytest.approx(
        (1 - x) ** -3, rel=1e-14)


def test_tail_at_zero_argument():
    # sum_{m>=0} g_m 0^m is g_0 = 1; every tail above a level >= 0 is empty
    assert weighted_geometric_tail(0.0, -1) == 1.0
    assert weighted_geometric_tail(0.0, 60) == 0.0


def test_tail_spot_value_high_temperature_cut():
    # q = e^{-1/10}, cut at 60: small but strictly positive remainder
    q = math.exp(-0.1)
    tail = weighted_geometric_tail(q, 60)
    assert tail == pytest.approx(brute_tail(q, 60, 10_000), rel=1e-12)
    assert tail > 0


@given(st.floats(min_value=0.0, max_value=0.95),
       st.integers(min_value=0, max_value=80))
def test_tail_matches_brute_force(x, m_max):
    assert weighted_geometric_tail(x, m_max) == pytest.approx(
        brute_tail(x, m_max), rel=1e-10, abs=1e-300)


def test_tail_rejects_bad_arguments():
    with pytest.raises(DomainError):
        weighted_geometric_tail(1.0, 10)
    with pytest.raises(DomainError):
        weighted_geometric_tail(-0.2, 10)


def test_tail_weight_is_offset_free_and_absent_on_a_finite_ladder():
    # T = 10 closes the ladder above level 60 with the closed-form sum,
    # measured from level 0; a finite ladder has no tail
    want = weighted_geometric_tail(math.exp(-0.1), 60)
    assert _level_ladder(TrapSpectrum(), 10.0, 60).tail_weight == want
    finite = _level_ladder(TrapSpectrum(max_level=400), 10.0, 60)
    assert finite.tail_weight == 0.0
