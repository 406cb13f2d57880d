import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosecanon import (DomainError, TrapSpectrum, auto_m_max,
                       canonical_observables, critical_temperature)
from bosecanon.grand_canonical import _level_ladder
from bosecanon.oracle import (ORACLE_MAX_N, enumerate_exact, recursion_table,
                              truth)


def log_z1(t, m_max):
    return math.log(math.fsum((m + 1) * (m + 2) / 2.0 * math.exp(-m / t)
                              for m in range(m_max + 1)))


def tail_ratio(table):
    """Z(N-1)/Z(N): the occupation of one Boltzmann-closed state per unit
    of its weight."""
    return math.exp(table.log_z[table.n - 1] - table.log_z[table.n])


def level_sum(table, m_max):
    """Level occupations summed over levels 0..m_max."""
    g = _level_ladder(table.spectrum, table.t, m_max).degeneracies
    return sum(g[m] * table.occupation(float(m)) for m in range(m_max + 1))


def test_first_entry_is_single_particle_sum():
    # the last two put the top level far below T, where the levels
    # above it hold nearly the whole series
    for t, m_max in ((3.0, 40), (1000.0, 2), (1e4, 5)):
        spec = TrapSpectrum(max_level=m_max)
        table = recursion_table(spec, t, 5)
        assert table.log_z[0] == 0.0  # empty trap
        assert table.log_z[1] == pytest.approx(log_z1(t, m_max), rel=1e-14)


def test_single_state_partition_is_one():
    # one nondegenerate-in-practice level at zero energy: every Z(k) = 1
    spec = TrapSpectrum(max_level=0)
    table = recursion_table(spec, 2.0, 6, m_max=0)
    # level 0 holds (m+1)(m+2)/2 = 1 state; the table answers on this
    # ladder without level 1, which truth() refuses for want of an n1
    assert np.allclose(table.log_z, 0.0, atol=1e-12)


def test_partition_grows_with_temperature():
    # more thermal states available at every particle count
    spec = TrapSpectrum(max_level=80)
    cold = recursion_table(spec, 2.0, 40)
    warm = recursion_table(spec, 2.5, 40)
    assert np.all(warm.log_z[1:] > cold.log_z[1:])


def test_occupation_normalization_sums_to_n():
    t, n, m_max = 6.0, 80, 120
    table = recursion_table(TrapSpectrum(max_level=m_max), t, n)
    total = level_sum(table, m_max)
    assert total == pytest.approx(n, rel=1e-10)
    # with the tail closure, each Boltzmann-closed state above m_max holds
    # its weight times Z(N-1)/Z(N); 80 is auto_m_max at T = 4, so this is
    # the engine's default model
    spec = TrapSpectrum()
    t, n, m_max = 4.0, 30, 80
    table = recursion_table(spec, t, n, m_max=m_max)
    total = level_sum(table, m_max)
    total += _level_ladder(spec, t, m_max).tail_weight * tail_ratio(table)
    assert total == pytest.approx(n, rel=1e-9)


def test_tail_closure_requires_finite_ladder_and_conserves_number():
    t, n = 6.0, 50
    plain = recursion_table(TrapSpectrum(max_level=30), t, n)
    closed = recursion_table(TrapSpectrum(), t, n, m_max=30)
    wide = recursion_table(TrapSpectrum(max_level=400), t, n)
    # the closure recovers most of what the truncation lost
    gap_plain = abs(plain.log_z[n] - wide.log_z[n])
    gap_closed = abs(closed.log_z[n] - wide.log_z[n])
    assert gap_closed < gap_plain / 50.0


def test_size_cap_enforced():
    # one size rule with no way around it: above the cap the build is
    # refused before any work (a table at the cap takes 1-2 s)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="capped"):
        recursion_table(TrapSpectrum(), 5.0, ORACLE_MAX_N + 1, m_max=30)
    assert time.perf_counter() - start < 0.25
    assert list(inspect.signature(recursion_table).parameters) == [
        "spectrum", "t", "n", "m_max", "tail_closure"]
    # above the cap truth() takes one FFT of P(n0), at Tc too: at 10^5 it
    # gives the method's committed values there, log Z, n0, Var(n0), n1
    # and cov(n0, n1), within 1e-13
    spec, n = TrapSpectrum(), 10**5
    got = truth(spec, critical_temperature(spec, n), n)
    assert got.source == "fft"
    assert critical_temperature(spec, n) == 43.654095183693954
    for name, value in (("log_z", 93459.61849270028),
                        ("n0", 28.62449584970328),
                        ("n0_variance", 837.6323477045403),
                        ("n1", 16.999092936648207),
                        ("covariance_n0_n1", -1.8836222132696092)):
        assert getattr(got, name) == pytest.approx(value, rel=1e-13), name
    # its cost limit: at 10^11 particles at Tc the grid rule asks for 2^24
    # points, and the request is refused from that count, before any grid
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"N=100000000000, T=4365\.4.*"
                                          r"M=16777216 points"):
        truth(spec, critical_temperature(spec, 10**11), 10**11)
    assert time.perf_counter() - start < 0.25


def test_truth_answers_above_the_cap_at_every_temperature():
    # near and far above Tc up to 10^7 particles, in milliseconds
    spec = TrapSpectrum()
    for n, t_over_tc in ((10**5, 1.0), (10**6, 3.0), (10**7, 1.0),
                         (10**7, 3.0)):
        start = time.perf_counter()
        got = truth(spec, t_over_tc * critical_temperature(spec, n), n)
        assert time.perf_counter() - start < 0.25, (n, t_over_tc)
        assert got.source == "fft"


def test_oracle_needs_a_top_level():
    # the recursion sums the ladder level by level: a top level past
    # MAX_LEVELS is refused before any array
    with pytest.raises(DomainError, match="levels"):
        recursion_table(TrapSpectrum(), 5.0, 10, m_max=10**9)
    with pytest.raises(DomainError, match="levels"):
        truth(TrapSpectrum(), 5.0, ORACLE_MAX_N + 1, 10**9)


def test_enumeration_caps():
    with pytest.raises(DomainError):
        enumerate_exact([0.0, 1.0], 1.0, 7)
    with pytest.raises(DomainError):
        enumerate_exact(list(range(9)), 1.0, 2)


def test_enumeration_counts_configurations():
    # 3 bosons in 2 states: multiset count C(3+1, 1) = 4
    out = enumerate_exact([0.0, 1.0], 2.0, 3)
    assert out.configurations == 4
    out2 = enumerate_exact([0.0, 0.5, 1.0], 1.0, 2)
    assert out2.configurations == 6


def test_finite_ladder_is_the_oracle_model():
    # TrapSpectrum(max_level=3) alone is the truncated model: the recursion
    # sums its four levels whatever cap is asked for and closes no tail,
    # as the engine does; with no options the unbounded ladder is the
    # engine's default model, auto_m_max levels and the tail above them
    t, n = 5.0, 10
    finite = TrapSpectrum(max_level=3)
    for spec, options in ((finite, {}), (finite, {"m_max": 50}),
                          (finite, {"tail_closure": True}),
                          (TrapSpectrum(), {})):
        res = canonical_observables(spec, t, n)
        table = recursion_table(spec, t, n, **options)
        assert table.log_z[n] == pytest.approx(res.log_z_zero_offset,
                                               rel=1e-12)
        assert table.m_max == res.m_max == auto_m_max(spec, t)
        assert table.occupation(0.0) == pytest.approx(res.n0_mean, rel=1e-10)
        assert table.occupation(1.0) == pytest.approx(res.n1_mean, rel=1e-10)
    # tail_closure takes True alone: any other value is refused and names
    # the finite ladder
    for value in (False, None, 1):
        with pytest.raises(DomainError, match=r"TrapSpectrum\(max_level=M\)"):
            recursion_table(TrapSpectrum(), t, n, 30, value)


def test_z1_sum_skips_only_underflowing_levels():
    # at T = 0.05 the levels 19..21 give e^{-2 E/T} below e^{-745.2} and are
    # cut from Z1_ex(2); np.exp of them is exactly 0.0, so Z_ex(2) =
    # (Z1(1)^2 + Z1(2))/2 holds to rounding against sums over every level
    spec = TrapSpectrum(max_level=21)
    t = 0.05

    def z1(j):
        return math.fsum((m + 1) * (m + 2) / 2.0 * math.exp(-j * m / t)
                         for m in range(1, 22))

    table = recursion_table(spec, t, 2)
    assert table.log_z_excited[2] == pytest.approx(
        math.log((z1(1) ** 2 + z1(2)) / 2.0), rel=1e-14)


def two_level_matches_enumeration(n, t):
    # two levels, degeneracies 1 and 3: small enough to count; at N = 0
    # every moment is exactly 0. The recursion measures energies from the
    # ground level: lifting every state by 0.5 adds N 0.5/T to the count's
    # log Z and moves no occupation. Each gap is relative (absolute where
    # the count gives 0); measured worst 1.6e-13 (log Z at N = 5, T = 0.2)
    # over N = 0 ... 6 and 200 temperatures in [0.2, 40/3].
    spec = TrapSpectrum(max_level=1)
    energies = np.array([0.0, 1.0, 1.0, 1.0])
    exact, lifted = (enumerate_exact(energies + lift, t, n)
                     for lift in (0.0, 0.5))
    table = recursion_table(spec, t, n, m_max=1)
    want = truth(spec, t, n, m_max=1)
    for name, (got, value) in {
            "log Z": (table.log_z[n], math.log(exact.z)),
            "lifted log Z": (table.log_z[n], math.log(lifted.z) + n * 0.5 / t),
            "N": (exact.mean.sum(), n),
            "n0": (table.occupation(0.0), exact.mean[0]),
            "lifted n0": (table.occupation(0.0), lifted.mean[0]),
            "truth n0": (want.n0, exact.mean[0]),
            "<n0^2>": (want.n0_variance + want.n0 ** 2, exact.cross[0, 0]),
            "n1": (want.n1, exact.mean[1]),
            "<n0 n1>": (want.covariance_n0_n1 + want.n0 * want.n1,
                        exact.cross[0, 1])}.items():
        gap = abs(got - value) / abs(value) if value else abs(got)
        assert gap <= 1e-12, (name, gap)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_matches_enumeration_with_offset(n):
    two_level_matches_enumeration(n, 1.3 / 0.7)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_recursion_matches_enumeration_two_level(n):
    two_level_matches_enumeration(n, 1.1 / 0.9)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(min_value=0, max_value=6),
       t=st.floats(min_value=0.2, max_value=40.0 / 3.0))
def test_two_level_recursion_vs_enumeration_property(n, t):
    two_level_matches_enumeration(n, t)
