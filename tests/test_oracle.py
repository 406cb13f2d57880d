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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_matches_enumeration_with_offset(n):
    # two-level ladder against a brute-force count of the same states lifted
    # by eps0: the recursion measures energies from the ground level, so
    # its log Z is the count's plus N*eps0/T and its occupations are equal
    eps0, t = 0.5, 1.3 / 0.7
    spec = TrapSpectrum(max_level=1)
    energies = [eps0] + [eps0 + 1.0] * 3
    exact = enumerate_exact(energies, t, n)
    table = recursion_table(spec, t, n, m_max=1)
    assert table.log_z[n] == pytest.approx(math.log(exact.z) + n * eps0 / t,
                                           rel=1e-12)
    assert table.occupation(0.0) == pytest.approx(exact.mean[0], rel=1e-12)
    assert np.isclose(exact.mean.sum(), n, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_recursion_matches_enumeration_two_level(n):
    # two levels, degeneracies 1 and 3: small enough to count
    spec = TrapSpectrum(max_level=1)
    t = 1.1 / 0.9
    energies = [0.0, 1.0, 1.0, 1.0]
    exact = enumerate_exact(energies, t, n)
    table = recursion_table(spec, t, n, m_max=1)
    assert table.log_z[n] == pytest.approx(math.log(exact.z), rel=1e-12)
    assert table.occupation(0.0) == pytest.approx(exact.mean[0], rel=1e-12)
    assert table.n0_variance() + table.occupation(0.0) ** 2 == pytest.approx(
        exact.second[0], rel=1e-12
    )
    got_cross = table.cross_moment(0.0, 1.0)
    assert got_cross == pytest.approx(exact.cross[0, 1], rel=1e-12)
    # two distinct states of one level: the equal-energy branch
    assert table.cross_moment(1.0, 1.0) == pytest.approx(exact.cross[1, 2],
                                                         rel=1e-12)


def test_cross_moment_is_symmetric():
    spec = TrapSpectrum(max_level=60)
    table = recursion_table(spec, 4.0, 30)
    a = table.cross_moment(0.0, 1.0)
    b = table.cross_moment(1.0, 0.0)
    assert a == pytest.approx(b, rel=1e-13)


def test_cross_moment_matches_the_double_sum():
    # sum_{k,l>=1} e^{-(k Ea + l Eb)/T} Z(N-k-l)/Z(N) term by term, for
    # unequal, swapped, equal and zero energies
    t, n = 3.0 / 0.37, 40
    table = recursion_table(TrapSpectrum(), t, n, m_max=60)
    lz = table.log_z
    for ea, eb in ((0.2, 0.57), (0.57, 0.2), (0.57, 0.57), (0.0, 0.0),
                   (0.94, 0.0)):
        ea, eb = ea / 0.37, eb / 0.37  # the unequal ones between levels
        direct = math.fsum(
            math.exp(-(k * ea + l * eb) / t + lz[n - k - l] - lz[n])
            for k in range(1, n) for l in range(1, n - k + 1))
        assert table.cross_moment(ea, eb) == pytest.approx(direct, rel=1e-13)


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
    # above the cap truth() takes the demon forms only where they are
    # certified: at Tc their Chernoff bound is log10 P = +28.7, so the
    # request is refused at once; at 0.8 Tc, log10(p N^2) = -270 against
    # log10(1e-12 Var(n0)) = -7.1
    spec, n = TrapSpectrum(), 10**5
    start = time.perf_counter()
    with pytest.raises(DomainError, match="not certified"):
        truth(spec, critical_temperature(spec, n), n)
    assert time.perf_counter() - start < 0.25
    assert truth(spec, 0.8 * critical_temperature(spec, n), n).source == "demon"


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


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    t=st.floats(min_value=0.2, max_value=40.0 / 3.0),
)
def test_two_level_recursion_vs_enumeration_property(n, t):
    spec = TrapSpectrum(max_level=1)
    energies = [0.0, 1.0, 1.0, 1.0]
    table = recursion_table(spec, t, n, m_max=1)
    exact = enumerate_exact(energies, t, n)
    assert table.log_z[n] == pytest.approx(math.log(exact.z), rel=1e-11)
    assert table.occupation(0.0) == pytest.approx(exact.mean[0], rel=1e-10)
