import math
import sys

import pytest
from hypothesis import given, strategies as st

from bosecanon.canonical import canonical_observables
from bosecanon.grand_canonical import _level_ladder, solve_fugacity
from bosecanon.oracle import demon_ensemble, recursion_table
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
    assert list(TrapSpectrum().degeneracies(7)) == splits
    assert splits[:5] == [1, 3, 6, 10, 15]


def test_resolved_max_level_clamps_to_cap():
    sp = TrapSpectrum(max_level=5)
    assert sp.resolved_max_level(100) == 5
    assert sp.resolved_max_level() == 5
    open_sp = TrapSpectrum()
    assert open_sp.resolved_max_level(100) == 100
    with pytest.raises(DomainError):
        open_sp.resolved_max_level()


@pytest.mark.parametrize("call", [
    lambda: recursion_table(TrapSpectrum(), 5.0, 10, m_max=-1),
    lambda: solve_fugacity(TrapSpectrum(), 5.0, 10, m_max=-3),
    lambda: TrapSpectrum().degeneracies(-1),
    lambda: _level_ladder(TrapSpectrum(), 5.0, -2),
    lambda: TrapSpectrum().degeneracies(2.5),
    lambda: TrapSpectrum(max_level=3.5),
    lambda: TrapSpectrum(max_level=math.inf),
    lambda: TrapSpectrum(max_level=math.nan),
    lambda: canonical_observables(TrapSpectrum(), 5.0, 10, 30.5),
], ids=["recursion_table", "solve_fugacity", "degeneracies", "level-ladder",
        "degeneracies-fractional", "max-level-fractional",
        "max-level-inf", "max-level-nan", "config-m-max-fractional"])
def test_negative_top_level_is_a_domain_error(call):
    # every caller resolves its top level through resolved_max_level, and
    # every top level is a whole number: none is floored
    with pytest.raises(DomainError):
        call()


def test_energies_and_degeneracies_arrays():
    # the level ladder puts the ground level at zero
    ladder = _level_ladder(TrapSpectrum(level_spacing=2.0), 4.0, 4)
    assert list(ladder.energies) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert list(ladder.boltzmann) == pytest.approx(
        [math.exp(-e / 4.0) for e in range(0, 9, 2)], rel=1e-15)
    assert list(ladder.degeneracies) == [1.0, 3.0, 6.0, 10.0, 15.0]
    assert ladder.tail_weight == weighted_geometric_tail(math.exp(-0.5), 4)


def test_invalid_spectrum_params():
    with pytest.raises(DomainError):
        TrapSpectrum(level_spacing=0.0)
    with pytest.raises(DomainError):
        TrapSpectrum(max_level=-2)


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
    # engine's log Z with its evaluation offset removed, the recursion's
    # log Z and, deep below Tc, the demon ensemble's are one quantity
    with pytest.raises(TypeError):
        TrapSpectrum(ground_offset=1.0)
    spec = TrapSpectrum(level_spacing=0.37)
    assert spec.with_ground_offset(0.0) == spec
    with pytest.raises(DomainError, match="ground_offset"):
        spec.with_ground_offset(0.3)
    n = 1000
    t = 0.2 * critical_temperature(spec, n)
    res = canonical_observables(spec, t, n)
    log_z = recursion_table(spec, t, n, m_max=res.m_max).log_z[n]
    assert res.log_z_zero_offset == pytest.approx(log_z, rel=1e-12)
    demon = demon_ensemble(spec, t, n, res.m_max)
    assert demon["log10_p"] < -100.0
    assert demon["log_z"] == pytest.approx(log_z, rel=1e-12)


def test_critical_temperature_spot_value():
    # (1000 / zeta(3))^(1/3) in spacing units
    tc = critical_temperature(TrapSpectrum(), 1000)
    assert tc == pytest.approx(9.40499, abs=1e-5)
    assert critical_temperature(TrapSpectrum(level_spacing=2.0), 1000) == 2 * tc


def brute_tail(x: float, m_max: int, terms: int = 4000) -> float:
    return sum((m + 1) * (m + 2) // 2 * x**m for m in range(m_max + 1, terms))


def test_tail_reduces_to_full_sum_at_minus_one():
    # "tail above level -1" is the entire series, (1-x)^-3
    x = 0.37
    assert weighted_geometric_tail(x, -1) == pytest.approx(
        (1 - x) ** -3, rel=1e-14)


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
    assert TrapSpectrum().tail_weight(10.0, 60) == want
    assert TrapSpectrum(max_level=400).tail_weight(10.0, 60) == 0.0
