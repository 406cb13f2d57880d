import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosecanon import DomainError, TrapSpectrum, canonical, critical_temperature
from bosecanon.canonical import (
    ConvergenceError,
    QuadratureConfig,
    canonical_observables,
    saddle_ground_offset,
)
from bosecanon.grand_canonical import auto_m_max, solve_fugacity
from bosecanon.oracle import enumerate_exact, recursion_table

SPEC = TrapSpectrum()


# ------------------------------------------------------------ configuration


def test_quadrature_config_rejects_bad_values():
    with pytest.raises(DomainError):
        QuadratureConfig(intervals_per_oscillation=0)
    with pytest.raises(DomainError):
        QuadratureConfig(m_max=-1)


def test_config_m_max_clamps_to_finite_spectrum():
    spec = TrapSpectrum(max_level=3)
    assert auto_m_max(spec, 5.0, 500) == 3
    res = canonical_observables(spec, 5.0, 10, QuadratureConfig(m_max=500))
    assert res.m_max == 3


def test_finite_ladder_keeps_levels_above_auto_truncation():
    # the default truncation for T = 10 is level 170; a ladder ending at
    # level 400 is the model and must be summed to its top, with no tail
    spec = TrapSpectrum(max_level=400)
    t, n = 10.0, 200
    res = canonical_observables(spec, t, n)
    assert res.m_max == 400
    table = recursion_table(spec, t, n, m_max=400)
    assert res.log_z_zero_offset == pytest.approx(table.log_z[n], rel=1e-9)
    assert res.n0_mean == pytest.approx(table.occupation(0.0), rel=1e-9)


def test_one_level_spectrum_is_a_domain_error():
    # the n1 observables need a state of level 1
    with pytest.raises(DomainError):
        canonical_observables(TrapSpectrum(max_level=0), 0.5, 10)


# ------------------------------------------------------------------ engine


def test_two_level_engine_matches_enumeration():
    spec = TrapSpectrum(level_spacing=0.9, max_level=1)
    energies = [0.0] + [0.9] * 3
    t = 1.2
    for n in (1, 2, 3, 4):
        exact = enumerate_exact(energies, t, n)
        res = canonical_observables(spec, t, n)
        assert res.log_z_zero_offset == pytest.approx(math.log(exact.z), rel=1e-10)
        assert res.n0_mean == pytest.approx(exact.mean[0], rel=1e-10)
        assert res.n0_second_moment == pytest.approx(exact.second[0], rel=1e-10)
        assert res.n1_mean == pytest.approx(exact.mean[1], rel=1e-10)
        assert res.n0_n1_mean == pytest.approx(exact.cross[0, 1], rel=1e-9)


def test_engine_matches_recursion_truncate_mode():
    # a finite ladder is the truncated model: no tail above its top level
    spec = TrapSpectrum(max_level=45)
    t, n = 4.0, 60
    res = canonical_observables(spec, t, n)
    assert res.m_max == 45
    table = recursion_table(spec, t, n, m_max=45)
    assert res.log_z_zero_offset == pytest.approx(table.log_z[n], rel=1e-10)
    assert res.n0_mean == pytest.approx(table.occupation(0.0), rel=1e-10)
    assert res.n1_mean == pytest.approx(
        table.occupation(1.0), rel=1e-10
    )
    assert res.n0_n1_mean == pytest.approx(table.cross_moment(0.0, 1.0), rel=1e-9)


def test_engine_matches_recursion_with_tail_closure():
    cfg = QuadratureConfig(m_max=45)
    t, n = 4.0, 60
    res = canonical_observables(SPEC, t, n, cfg)
    table = recursion_table(SPEC, t, n, m_max=45, tail_closure=True)
    assert res.log_z_zero_offset == pytest.approx(table.log_z[n], rel=1e-10)
    assert res.n0_mean == pytest.approx(table.occupation(0.0), rel=1e-10)


def test_sum_rule_and_mirrored_fluctuations():
    t = 0.7 * critical_temperature(SPEC, 300)
    res = canonical_observables(SPEC, t, 300)
    assert res.sum_rule_residual < 1e-10
    assert res.n0_mean + res.ne_mean == pytest.approx(300.0, rel=1e-10)
    # n_e = N - n0 forces equal fluctuations
    assert res.delta_n0 == pytest.approx(res.delta_ne, rel=1e-8)


def test_cross_covariance_negative_below_transition():
    t = 0.6 * critical_temperature(SPEC, 200)
    res = canonical_observables(SPEC, t, 200)
    assert res.covariance_n0_n1 < 0.0
    assert 0.0 < res.condensate_fraction < 1.0


def test_zero_temperature_limit_fills_ground_state():
    # excited weight at T = 0.1 spacing is 3 e^{-10}, so the trap is frozen
    res = canonical_observables(SPEC, 0.1, 50)
    assert res.n0_mean == pytest.approx(50.0, abs=1e-3)
    assert res.delta_n0 == pytest.approx(0.0, abs=0.05)
    assert res.condensate_fraction == pytest.approx(1.0, abs=1e-5)


def test_explicit_offset_changes_log_z_but_not_observables():
    t, n = 5.0, 100
    base = canonical_observables(SPEC, t, n)
    forced = canonical_observables(
        SPEC, t, n, QuadratureConfig(ground_offset=base.ground_offset * 0.5)
    )
    assert forced.ground_offset == pytest.approx(base.ground_offset * 0.5)
    assert forced.log_z_zero_offset == pytest.approx(base.log_z_zero_offset, rel=1e-10)
    assert forced.n0_mean == pytest.approx(base.n0_mean, rel=1e-10)
    assert forced.log_z != pytest.approx(base.log_z, rel=1e-6)


def test_saddle_offset_tracks_fugacity():
    t, n = 6.0, 150
    eps0 = saddle_ground_offset(SPEC, t, n)
    assert eps0 > 0.0
    # at the tilt the projected weight is centred: <N> at mu = 0 equals n
    res = canonical_observables(SPEC, t, n)
    assert res.ground_offset == pytest.approx(eps0, rel=1e-12)


def test_converged_flag_and_interval_bookkeeping():
    res = canonical_observables(SPEC, 5.0, 100)
    assert 0 < res.intervals_evaluated <= res.intervals_total
    assert res.m_max >= 40


def test_bad_offset_breaks_conditioning():
    # a huge artificial tilt underflows every level weight; the projection
    # integral of the bare oscillation carries no signal and must refuse
    cfg = QuadratureConfig(ground_offset=4000.0)
    with pytest.raises((ConvergenceError, OverflowError)):
        canonical_observables(SPEC, 0.5, 5000, cfg)
    with pytest.raises(DomainError):
        canonical_observables(SPEC, 0.5, 50, QuadratureConfig(ground_offset=-1.0))


def test_variances_clamped_nonnegative():
    res = canonical_observables(SPEC, 0.25, 4)
    assert res.n0_variance >= 0.0
    assert res.ne_variance >= 0.0
    d = res.observables()
    assert set(d) == set(res.OBSERVABLE_NAMES)


# ---------------------------------------------------------- shift invariance


def test_shift_invariance_at_two_forced_offsets():
    # observables and the offset-free log Z do not depend on the evaluation
    # offset, for offsets within a few T/sqrt(var) of the saddle
    t, n = 5.0, 120
    eps = saddle_ground_offset(SPEC, t, n)
    a, b = (canonical_observables(SPEC, t, n, QuadratureConfig(ground_offset=f * eps))
            for f in (0.7, 1.3))
    for name, va in a.observables().items():
        assert getattr(b, name) == pytest.approx(va, rel=1e-11), name
    assert b.log_z_zero_offset == pytest.approx(a.log_z_zero_offset, rel=1e-9)
    assert b.log_z - a.log_z == pytest.approx(-n * 0.6 * eps / t, rel=1e-9)


def test_shift_invariance_identical_offsets_degenerate():
    # the engine evaluates at its own offset; the spectrum's zero point
    # does not reach the arithmetic, so lifted ladders give the same bits
    t, n = 4.0, 40
    eps = saddle_ground_offset(SPEC, t, n)
    for cfg in (QuadratureConfig(), QuadratureConfig(ground_offset=eps)):
        base = canonical_observables(SPEC, t, n, cfg)
        for offset in (0.3, eps, 7.0):
            lifted = canonical_observables(SPEC.with_ground_offset(offset),
                                           t, n, cfg)
            assert repr(lifted) == repr(base)


# ------------------------------------------------------- numerical hygiene


def test_quadrature_insensitive_to_point_count():
    t, n = 5.0, 80
    a = canonical_observables(SPEC, t, n)
    b = canonical_observables(SPEC, t, n,
                              QuadratureConfig(intervals_per_oscillation=2))
    assert b.intervals_total == 2 * a.intervals_total
    assert a.n0_mean == pytest.approx(b.n0_mean, rel=1e-10)
    assert a.log_z_zero_offset == pytest.approx(b.log_z_zero_offset, rel=1e-10)


def test_kernel_integrand_peaks_at_origin(monkeypatch):
    # the engine normalises the integrand to 1 at z=0 and bounds the
    # unsummed tail by each interval's peak, so the peak must be the origin
    calls = []
    kernel = canonical.projection_chunk

    def recording(*args):
        out, peak = kernel(*args)
        calls.append((args[5], out, peak))
        return out, peak

    monkeypatch.setattr(canonical, "projection_chunk", recording)
    canonical_observables(SPEC, 4.0, 50)
    first = next(peak for i0, _, peak in calls if i0 == 0)
    peaks = np.concatenate([peak for _, _, peak in calls])
    assert peaks.max() == first[0]
    assert -1e-3 < first[0] <= 1e-12
    assert calls[0][1][0, 0].real > 0.0


@pytest.mark.parametrize("chunk_points, exit_decay", [
    pytest.param(8, canonical.EXIT_DECAY, id="8"),
    pytest.param(64, canonical.EXIT_DECAY, id="64"),
    pytest.param(canonical.CHUNK_POINTS, 5.0, id="boundary-before-exit"),
    pytest.param(canonical.CHUNK_POINTS, 1e-30, id="boundary-at-interval-1"),
    pytest.param(canonical.CHUNK_POINTS, 1e30, id="boundary-past-half-period"),
])
def test_chunk_size_does_not_change_results(monkeypatch, chunk_points,
                                            exit_decay):
    # exit decisions are per interval and carry the negligible-interval
    # streak across chunk boundaries, so any chunking, with the predicted
    # exit boundary anywhere or nowhere, gives the same bits
    cases = [
        (100, 0.5),     # 4-point rule, early exit
        (10_000, 1.2),  # midpoint rule, early exit
        (3, 0.8),       # full period
    ]
    default = [canonical_observables(SPEC, f * critical_temperature(SPEC, n), n)
               for n, f in cases]
    assert default[0].intervals_evaluated < default[0].intervals_total
    assert default[1].intervals_evaluated < default[1].intervals_total
    assert default[2].intervals_evaluated == default[2].intervals_total
    monkeypatch.setattr(canonical, "CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(canonical, "EXIT_DECAY", exit_decay)
    kernel = canonical.projection_chunk
    ends = []

    def recording(*args):
        ends.append(args[6])
        return kernel(*args)

    monkeypatch.setattr(canonical, "projection_chunk", recording)
    for (n, f), ref in zip(cases, default):
        ends.clear()
        res = canonical_observables(SPEC, f * critical_temperature(SPEC, n), n)
        assert repr(res) == repr(ref)
        step = chunk_points // (1 if n >= canonical.MIDPOINT_N else 4)
        off_grid = [i1 for i1 in ends
                    if i1 % step and i1 != res.intervals_total]
        if exit_decay == 5.0 and n > 3:
            assert off_grid and off_grid[0] < res.intervals_evaluated
        elif exit_decay == 1e-30:
            # the predicted point is interval 1; the streak comes on top
            assert off_grid == [1 + canonical.EXIT_STREAK]
        elif exit_decay == 1e30:
            assert off_grid == []


def test_kernel_stops_near_the_predicted_exit(monkeypatch):
    # without the predicted boundary the first 512-interval chunk (2048
    # points) runs for the 288 intervals this row needs
    points = []
    kernel = canonical.projection_chunk

    def recording(*args):
        points.append((args[6] - args[5]) * args[7].size)
        return kernel(*args)

    monkeypatch.setattr(canonical, "projection_chunk", recording)
    res = canonical_observables(SPEC, critical_temperature(SPEC, 1000), 1000)
    assert res.intervals_evaluated < res.intervals_total
    assert sum(points) <= 1.15 * res.intervals_evaluated * 4


def test_single_solve_state_is_the_offset_free_ladder():
    t, n = 5.0, 100
    lifted = SPEC.with_ground_offset(0.3)
    for cfg in (QuadratureConfig(), QuadratureConfig(ground_offset=0.02)):
        res = canonical_observables(lifted, t, n, cfg)
        assert res.gc_state == solve_fugacity(SPEC, t, n, m_max=res.m_max)
    assert res.ground_offset == 0.02
    assert canonical_observables(lifted, t, n).ground_offset == -res.gc_state.mu


def test_overflow_guard_reports_first_nonfinite_interval(monkeypatch):
    kernel = canonical.projection_chunk

    def poisoned(*args):
        out, peak = kernel(*args)
        i0, i1 = args[5], args[6]
        for bad in (700, 900):
            if i0 <= bad < i1:
                out[bad - i0, 2] = np.inf
        return out, peak

    monkeypatch.setattr(canonical, "projection_chunk", poisoned)
    with pytest.raises(ConvergenceError) as exc:
        canonical_observables(SPEC, 0.6 * critical_temperature(SPEC, 1000), 1000)
    assert exc.value.diagnostics["interval"] == 701


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    t_frac=st.floats(min_value=0.3, max_value=1.5),
)
def test_engine_recursion_agreement_property(n, t_frac):
    t = t_frac * critical_temperature(SPEC, n)
    res = canonical_observables(SPEC, t, n)
    table = recursion_table(SPEC, t, n, m_max=res.m_max, tail_closure=True)
    assert res.log_z_zero_offset == pytest.approx(table.log_z[n], rel=1e-9, abs=1e-9)
    assert res.n0_mean == pytest.approx(table.occupation(0.0), rel=1e-9)


@pytest.mark.parametrize("n, t_over_tc", [
    (10_000, 0.05),  # early exit never fires
    (10_000, 0.6),
    (10_000, 1.35),
    (100, 0.01),
    (100, 3.0),
    (1000, 0.01),
    (1000, 3.0),
])
def test_engine_matches_recursion_outside_oracle_range(n, t_over_tc):
    # N = 10^4 and T/Tc far below and above the transition, against the
    # recursion on the model the engine resolves to. delta_n0 and delta_ne
    # are not asserted: as second moment minus squared mean they lose
    # digits to cancellation, a known defect of the engine.
    t = t_over_tc * critical_temperature(SPEC, n)
    res = canonical_observables(SPEC, t, n)
    table = recursion_table(SPEC, t, n, m_max=res.m_max, tail_closure=True,
                            allow_large=True)
    assert res.n0_mean == pytest.approx(table.occupation(0.0), rel=1e-10)
    assert res.n1_mean == pytest.approx(
        table.occupation(SPEC.level_spacing), rel=1e-10)
    assert res.n0_second_moment == pytest.approx(
        table.occupation_second_moment(0.0), rel=1e-10)
    # log Z is about 3e-10 at T/Tc = 0.01, so the bound is absolute there
    log_z = table.log_z[n]
    assert abs(res.log_z_zero_offset - log_z) <= 1e-12 * max(1.0, abs(log_z))


def test_zero_point_energy_ladder_consistency():
    # the ladder's own zero point is an evaluation device, not physics:
    # occupations and the offset-free log Z must not see it, and the
    # physical partition value of a lifted ladder follows from the shift
    # identity log Z(eps0) = log Z(0) - N eps0 / T
    t, n = 4.0, 50
    base = canonical_observables(SPEC, t, n)
    lifted_spec = SPEC.with_ground_offset(1.5)
    lifted = canonical_observables(lifted_spec, t, n)
    assert lifted.n0_mean == pytest.approx(base.n0_mean, rel=1e-12)
    assert lifted.log_z_zero_offset == pytest.approx(
        base.log_z_zero_offset, rel=1e-12
    )
    table = recursion_table(lifted_spec, t, n, m_max=lifted.m_max,
                            tail_closure=True)
    physical = lifted.log_z_zero_offset - n * 1.5 / t
    assert physical == pytest.approx(table.log_z[n], rel=1e-9)
