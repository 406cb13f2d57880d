import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bosecanon import (
    ZETA3,
    DomainError,
    TrapSpectrum,
    critical_temperature,
    grand_canonical,
)
from bosecanon.asymptotics import delta_n0_fraction_limit
from bosecanon.grand_canonical import (
    _level_ladder,
    _occupation_sums,
    auto_m_max,
    solve_fugacity,
)

SPEC = TrapSpectrum()


def test_auto_m_max_grows_with_temperature():
    assert auto_m_max(SPEC, 1.0) >= 21
    assert auto_m_max(SPEC, 40.0) > auto_m_max(SPEC, 4.0)


def test_auto_m_max_refuses_more_levels_than_the_cap():
    # N = 10^7 at T/Tc = 1000 is within the cap
    t = 1000.0 * critical_temperature(SPEC, 10**7)
    assert 3e6 < auto_m_max(SPEC, t) < grand_canonical.MAX_LEVELS
    for t in (1e7, 1e306, 1.7e308):
        with pytest.raises(DomainError, match="trap levels"):
            auto_m_max(SPEC, t)
    with pytest.raises(DomainError, match="trap levels"):
        auto_m_max(SPEC, 1.0, 10**8)
    with pytest.raises(DomainError, match="temperature"):
        auto_m_max(SPEC, math.nan)


@pytest.mark.parametrize("n", [50, 1000])
@pytest.mark.parametrize("t_frac", [0.4, 0.8, 1.3])
def test_solve_fugacity_hits_target_number(n, t_frac):
    t = t_frac * critical_temperature(SPEC, n)
    state = solve_fugacity(SPEC, t, n)
    assert _occupation_sums(state.ladder, state.relative_fugacity) == (
        pytest.approx(n, rel=1e-9))
    # chemical potential must sit below the ground state
    assert state.mu < 0.0
    assert 0.0 < state.relative_fugacity < 1.0


def test_fugacity_approaches_saturation_from_below_at_low_t():
    n = 1000
    t = 0.3 * critical_temperature(SPEC, n)
    state = solve_fugacity(SPEC, t, n)
    # deep in the condensed phase almost everything sits in the ground state
    assert state.n0 / n > 0.95
    assert state.mu == pytest.approx(-t / state.n0, rel=1e-2)


@pytest.mark.parametrize("n, t", [
    (100, 4.0),
    (10**6, 0.05 * critical_temperature(SPEC, 10**6)),
    (10**6, 3.0 * critical_temperature(SPEC, 10**6)),
], ids=["100-T4", "1e6-0.05Tc", "1e6-3Tc"])
def test_number_variance_sums_state_terms(n, t):
    state = solve_fugacity(SPEC, t, n)
    m_max = auto_m_max(SPEC, t)
    brute = 0.0
    for m in range(m_max + 1):
        occ = 1.0 / math.expm1((m - state.mu) / t)
        g = (m + 1) * (m + 2) // 2
        brute += g * occ * (occ + 1.0)
    # tail closure adds a little beyond the explicit ladder: its
    # Boltzmann-order term x0*S, 3.6e-5 of the variance at T/Tc = 3
    assert state.number_variance >= brute
    tail = state.relative_fugacity * _level_ladder(SPEC, t, m_max).tail_weight
    assert state.number_variance == pytest.approx(brute + tail, rel=1e-12)


def test_state_reads_its_ladder_and_only_its_levels():
    # the state keeps the solve's ladder of the summed levels 0..m_max,
    # read-only and outside equality
    state = solve_fugacity(SPEC, 5.0, 200)
    ladder = state.ladder
    assert list(ladder.energies[:3]) == [0.0, 1.0, 2.0]
    fresh = _level_ladder(SPEC, 5.0, state.m_max)
    assert ladder.tail_weight == fresh.tail_weight
    for a in (ladder.energies, ladder.boltzmann, ladder.degeneracies):
        assert a.size == state.m_max + 1 and not a.flags.writeable
    twin = solve_fugacity(SPEC, 5.0, 200)
    assert twin == state and twin.ladder is not ladder


def test_finite_spectrum_sums_have_no_tail():
    # a finite ladder is summed to its top level, also above the default
    # truncation for its temperature (170 at T = 10)
    for top, t, n in ((3, 6.0, 40), (400, 10.0, 200)):
        spec = TrapSpectrum(max_level=top)
        state = solve_fugacity(spec, t, n)
        assert state.m_max == auto_m_max(spec, t) == top
        brute = sum(
            (m + 1) * (m + 2) // 2 / math.expm1((m - state.mu) / t)
            for m in range(top + 1)
        )
        total = _occupation_sums(state.ladder, state.relative_fugacity)
        assert total == pytest.approx(brute, rel=1e-12)
        assert total == pytest.approx(n, rel=1e-9)


def test_solve_fugacity_reports_the_levels_it_sums():
    # a requested cap above a finite ladder's top clamps to the top, as in
    # the engine, and the state says so
    spec = TrapSpectrum(max_level=3)
    capped = solve_fugacity(spec, 5.0, 10, m_max=50)
    own = solve_fugacity(spec, 5.0, 10)
    assert capped.m_max == own.m_max == auto_m_max(spec, 5.0, 50) == 3
    assert capped.relative_fugacity == own.relative_fugacity
    assert solve_fugacity(SPEC, 5.0, 10, m_max=50).m_max == 50


def test_excited_count_limit_value():
    # the continuum capacity zeta(3) T^3 holds exactly N particles at T = Tc,
    # and the condensate fluctuation limit is the continuum excited-number
    # RMS sqrt(pi^2/6 T^3) handed to the condensate
    assert ZETA3 * 10.0**3 == pytest.approx(1202.0569031595942, rel=1e-12)
    n, t = 1000, 0.5
    tc = critical_temperature(SPEC, n)
    assert ZETA3 * tc**3 == pytest.approx(float(n), rel=1e-12)
    rms = delta_n0_fraction_limit(n, t) * (1.0 - t**3) * n
    assert rms == pytest.approx(math.sqrt(math.pi**2 / 6.0 * (t * tc) ** 3),
                                rel=1e-12)


def test_excited_limit_matches_explicit_sum_at_high_t():
    # discrete ladder at saturation (mu = 0) vs the continuum capacity
    # zeta(3) T^3 behind critical_temperature and 1 - t^3;
    # the first finite-size correction is +(3/2) zeta(2) T^2, about 0.5% here
    t = 400.0
    m_max = auto_m_max(SPEC, t)
    brute = sum(
        (m + 1) * (m + 2) / 2.0 / math.expm1(m / t)
        for m in range(1, m_max + 1)
    )
    cap = ZETA3 * t**3
    assert brute == pytest.approx(cap, rel=2e-2)
    assert brute > cap  # finite-size correction is positive


@pytest.mark.parametrize("t_frac", [0.05, 0.3, 1.0, 100.0, 300.0])
@pytest.mark.parametrize("n", [1, 2, 100, 10**6, 2 * 10**6, 10**7])
def test_fugacity_is_resolved_to_one_ulp(n, t_frac):
    # the count changes sign between the fugacity's two neighbouring
    # doubles: no closer answer exists, also at N = 10^7 deep in the
    # condensed phase, where one ulp of the fugacity moves the count by
    # ~1e-9 N
    t = t_frac * critical_temperature(SPEC, n)
    state = solve_fugacity(SPEC, t, n)

    lam = state.relative_fugacity
    assert _occupation_sums(state.ladder, math.nextafter(lam, 0.0)) < n <= (
        _occupation_sums(state.ladder, math.nextafter(lam, math.inf)))


def test_particle_number_above_the_bracket_is_a_domain_error():
    # the bracket stops 1e-15 short of the ground-state divergence, where
    # the ground level alone holds ~1e15 particles
    with pytest.raises(DomainError, match="exceed"):
        solve_fugacity(SPEC, 5.0, 10**16)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000),
    t_frac=st.floats(min_value=0.2, max_value=2.0),
)
def test_solver_always_brackets(n, t_frac):
    t = t_frac * critical_temperature(SPEC, n)
    state = solve_fugacity(SPEC, t, n)
    assert _occupation_sums(state.ladder, state.relative_fugacity) == (
        pytest.approx(n, rel=1e-8))
    assert state.mu < 0.0


@pytest.mark.parametrize("target", [0.3, 1.0, 4.5, 10.0])
def test_single_state_distribution_is_geometric(target):
    # P(n) proportional to x^n gives <n> = x/(1-x) and var = n(n+1): the
    # state's n0 and delta_n0 on a one-state ladder at fugacity x; the
    # cutoff at 10^3 terms leaves no visible truncation error for n <= 10
    x = target / (1.0 + target)
    state = replace(solve_fugacity(TrapSpectrum(max_level=0), 1.0, 1),
                    relative_fugacity=x)
    weights = [x**k for k in range(1001)]
    norm = sum(weights)
    mean = sum(k * w for k, w in enumerate(weights)) / norm
    second = sum(k * k * w for k, w in enumerate(weights)) / norm
    var = second - mean * mean
    assert mean == pytest.approx(target, rel=1e-12)
    assert var == pytest.approx(target * (target + 1.0), rel=1e-12)
    assert state.n0 == pytest.approx(mean, rel=1e-12)
    assert state.delta_n0 == pytest.approx(math.sqrt(var), rel=1e-12)


@pytest.mark.parametrize("n, t_frac", [(1, 1.0), (100, 0.5), (10**4, 1.0),
                                       (10**6, 0.05), (10**6, 3.0)])
def test_state_reads_n0_and_its_spread_from_the_fugacity(n, t_frac):
    # n0 is x0/(1 - x0) in one rounding, and sqrt(x0)/(1 - x0) is the
    # geometric spread sqrt(n0 (n0 + 1)) to within a few ulps
    state = solve_fugacity(SPEC, t_frac * critical_temperature(SPEC, n), n)
    x0 = state.relative_fugacity
    assert state.n0 == x0 / (1 - x0)
    n0 = state.n0
    assert state.delta_n0 == pytest.approx(math.sqrt(n0 * (n0 + 1.0)),
                                           rel=1e-15, abs=0.0)


def test_state_at_or_above_the_divergence_is_a_domain_error():
    # number_variance would divide by zero at x0 = 1 and return a finite
    # number above it; the state itself refuses both
    state = solve_fugacity(SPEC, 5.0, 100)
    for x in (1.0, 1.5):
        with pytest.raises(DomainError, match="relative fugacity"):
            replace(state, relative_fugacity=x)


def test_fugacity_monotone_in_target_number():
    t = 8.0
    states = [solve_fugacity(SPEC, t, n) for n in (50, 100, 200, 400, 800)]
    for lo, hi in zip(states, states[1:]):
        assert hi.relative_fugacity > lo.relative_fugacity
        assert hi.mu > lo.mu
