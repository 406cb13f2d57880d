import functools
import math
import re
import time
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bosecanon import (DomainError, TrapSpectrum, canonical,
                       critical_temperature)
from bosecanon._kernels import projection_chunk
from bosecanon.asymptotics import (
    InteractionParams,
    condensate_fraction_limit,
    correlation_limit,
    damping_crossover,
    delta_n0_fraction_limit,
)
from bosecanon.canonical import ConvergenceError, canonical_observables
from bosecanon.grand_canonical import _level_ladder, auto_m_max, solve_fugacity
from bosecanon.oracle import (ORACLE_MAX_N, enumerate_exact, recursion_table,
                              truth)
from bosecanon.sweep import (SweepRow, compute_row, fit_scaling, run_sweep,
                             temperature_grid)
from conftest import (HELD, KernelCall, KernelRecorder, Recorder, Row,
                      at_offset, demon_gaps, engine_cells, fig1, hold,
                      on_doubled_grid, raw_moments)

SPEC = TrapSpectrum()
engine = functools.partial(canonical_observables, SPEC)


# ------------------------------------------------------------ configuration


def test_config_m_max_clamps_to_finite_spectrum():
    spec = TrapSpectrum(max_level=3)
    assert auto_m_max(spec, 5.0, 500) == 3
    res = canonical_observables(spec, 5.0, 10, 500)
    assert res.m_max == 3


N1_CONSUMERS = {
    "engine": lambda spec, t: canonical_observables(spec, t, 10),
    "truth-recursion": lambda spec, t: truth(spec, t, 10),
    "truth-fft": lambda spec, t: truth(spec, t, ORACLE_MAX_N + 1),
}
N1_REFUSALS = {
    "no-level-1": (TrapSpectrum(max_level=0), 5.0,
                   "n1 observables need level 1, got m_max=0"),
    "level-1-underflows": (SPEC, 1e-4,
                           "temperature 0.0001 is too small for the n1 "
                           "observables: the level-1 Boltzmann factor "
                           "exp(-1/T) = 0 underflows the normal doubles"),
}


@pytest.mark.parametrize("cause", N1_REFUSALS)
@pytest.mark.parametrize("consumer", N1_CONSUMERS)
def test_every_n1_consumer_refuses_for_one_reason(consumer, cause):
    # the engine and both sources of truth() share one level-1 rule: a
    # ladder without level 1, or an exp(-1/T) below the normal doubles, is
    # refused with the same message by each
    spec, t, message = N1_REFUSALS[cause]
    with pytest.raises(DomainError) as refused:
        N1_CONSUMERS[consumer](spec, t)
    assert str(refused.value) == message


# ------------------------------------------------------------------ engine


def test_sum_rule_and_mirrored_fluctuations():
    t = 0.7 * critical_temperature(SPEC, 300)
    res = canonical_observables(SPEC, t, 300)
    assert res.n0_mean + res.ne_mean == pytest.approx(300.0, rel=1e-10)
    # n_e = N - n0 forces equal fluctuations
    assert res.delta_n0 == pytest.approx(res.delta_ne, rel=1e-8)


def test_zero_temperature_limit_fills_ground_state():
    # excited weight at T = 0.1 spacing is 3 e^{-10}, so the trap is frozen
    res = canonical_observables(SPEC, 0.1, 50)
    assert res.n0_mean == pytest.approx(50.0, abs=1e-3)
    assert res.delta_n0 == pytest.approx(0.0, abs=0.05)
    assert res.n0_mean / 50 == pytest.approx(1.0, abs=1e-5)


# The quantities the refusals name most often.
TEMP, COUNT, RATIO = "temperature", "particle number", "t_over_tc"
GC_COUNT, ENERGY, TOP = "target particle number", "state energy", "top level"
# id: (call, the quantity its message names, the value as given)
REFUSALS = {
    "offset-nan": (lambda: SPEC.with_ground_offset(math.nan), "ground_offset", "nan"),
    "offset-inf": (lambda: SPEC.with_ground_offset(math.inf), "ground_offset", "inf"),
    "t-inf": (lambda: engine(math.inf, 10), TEMP, "inf"),
    "t-nan": (lambda: engine(math.nan, 10), TEMP, "nan"),
    "gc-t-inf": (lambda: solve_fugacity(SPEC, math.inf, 10), TEMP, "inf"),
    "n-fractional": (lambda: engine(5.0, 10.5), COUNT, "10.5"),
    "n-nan": (lambda: engine(5.0, math.nan), COUNT, "nan"),
    "n-inf": (lambda: engine(5.0, math.inf), COUNT, "inf"),
    "gc-n-inf": (lambda: solve_fugacity(SPEC, 5.0, math.inf), GC_COUNT, "inf"),
    "gc-n-fractional": (lambda: solve_fugacity(SPEC, 5.0, 10.5), GC_COUNT, "10.5"),
    "tc-n-nan": (lambda: critical_temperature(SPEC, math.nan), COUNT, "nan"),
    "tc-n-fractional": (lambda: critical_temperature(SPEC, 10.5), COUNT, "10.5"),
    "tc-n-inf": (lambda: critical_temperature(SPEC, math.inf), COUNT, "inf"),
    "row-n-fractional": (lambda: compute_row(SPEC, 10.5, 0.5), COUNT, "10.5"),
    "sweep-n-fractional": (lambda: run_sweep([10.5], [0.5]), COUNT, "10.5"),
    "recursion-t-inf": (lambda: recursion_table(SPEC, math.inf, 5), TEMP, "inf"),
    "recursion-n-fractional": (
        lambda: recursion_table(SPEC, 5.0, 2.5, m_max=10), COUNT, "2.5"),
    "recursion-occupation-negative": (
        lambda: recursion_table(SPEC, 2.0, 50).occupation(-1.0), ENERGY, "-1.0"),
    "recursion-occupation-nan": (
        lambda: recursion_table(SPEC, 2.0, 50).occupation(math.nan), ENERGY, "nan"),
    "recursion-occupation-inf": (
        lambda: recursion_table(SPEC, 2.0, 50).occupation(math.inf), ENERGY, "inf"),
    "enumeration-t-inf": (
        lambda: enumerate_exact((0.0, 1.0), math.inf, 3), TEMP, "inf"),
    "enumeration-energy-inf": (
        lambda: enumerate_exact((0.0, math.inf), 1.0, 3), "state energies",
        "[ 0. inf]"),
    "demon-n-fractional": (lambda: truth(SPEC, 5.0, 10.5, 40), COUNT, "10.5"),
    "demon-n-nan": (lambda: truth(SPEC, 5.0, math.nan, 40), COUNT, "nan"),
    "demon-n-negative": (lambda: truth(SPEC, 5.0, -5, 40), COUNT, "-5"),
    "demon-n-inf": (lambda: truth(SPEC, 5.0, math.inf, 40), COUNT, "inf"),
    "crossover-t-inf": (
        lambda: damping_crossover(math.inf, InteractionParams(0.1)), TEMP, "inf"),
    "pair-energy-nan": (lambda: InteractionParams(math.nan), "pair_energy", "nan"),
    "pair-energy-inf": (lambda: InteractionParams(math.inf), "pair_energy", "inf"),
    "fraction-limit-nan": (lambda: condensate_fraction_limit(math.nan), RATIO, "nan"),
    "eq10-n-nan": (lambda: delta_n0_fraction_limit(math.nan, 0.5), COUNT, "nan"),
    "eq12-n-inf": (lambda: correlation_limit(math.inf, 0.5), COUNT, "inf"),
    "grid-stop-inf": (lambda: temperature_grid(0.1, math.inf, 0.1), "grid stop", "inf"),
    "fit-t-nan": (lambda: fit_scaling(
        [SweepRow(n, 0.5, n0_over_n=0.5, gc_n0_over_n=1.0) for n in (20, 40, 80)],
        "gc_discrepancy", math.nan), RATIO, "nan"),
    "n-bool": (lambda: engine(5.0, True), COUNT, "True"),
    "tc-n-numpy-bool": (lambda: critical_temperature(SPEC, np.True_), COUNT, "True"),
    "max-level-numpy-bool": (
        lambda: TrapSpectrum(max_level=np.True_), "max_level", "True"),
    "sweep-threads-bool": (
        lambda: run_sweep([100], [0.5], threads=True), "threads", "True"),
    "t-none": (lambda: engine(None, 10), TEMP, "None"),
    "t-str": (lambda: engine("1", 10), TEMP, "1"),
    "t-complex": (lambda: engine(1 + 0j, 10), TEMP, "(1+0j)"),
    "t-bool": (lambda: engine(True, 10), TEMP, "True"),
    "gc-t-none": (lambda: solve_fugacity(SPEC, None, 10), TEMP, "None"),
    "truth-t-none": (lambda: truth(SPEC, None, 10), TEMP, "None"),
    "recursion-t-none": (lambda: recursion_table(SPEC, None, 5), TEMP, "None"),
    "grid-start-none": (lambda: temperature_grid(None, 1.0, 0.1), "grid start", "None"),
    "pair-energy-bool": (lambda: InteractionParams(True), "pair_energy", "True"),
    "fraction-limit-bool": (lambda: condensate_fraction_limit(True), RATIO, "True"),
    "sweep-t-none": (lambda: run_sweep([100], [None]), RATIO, "None"),
    "t-int-past-doubles":(lambda: engine(10**400, 10), TEMP, str(10**400)),
    "t-decimal-past-doubles": (lambda: engine(Decimal("1e400"), 10), TEMP, "1E+400"),
    "t-decimal-rounds-to-zero": (lambda: engine(Decimal("1e-400"), 10), TEMP, "1E-400"),
    "truth-t-longdouble-past-doubles": (
        lambda: truth(SPEC, np.longdouble("1e4000"), 10), TEMP, "1e+4000"),
    "sweep-t-decimal-snan": (
        lambda: run_sweep([100], [Decimal("sNaN")]), RATIO, "sNaN"),
    "sweep-t-array": (
        lambda: run_sweep([100], [np.array([0.5, 0.6])]), RATIO, "[0.5 0.6]"),
    "sweep-t-nan": (lambda: run_sweep([100], [math.nan]), RATIO, "nan"),
    # every caller resolves its top level through auto_m_max, and every
    # top level is a whole number (none is floored)
    "recursion-m-max-negative": (
        lambda: recursion_table(SPEC, 5.0, 10, m_max=-1), TOP, "-1"),
    "gc-m-max-negative": (
        lambda: solve_fugacity(SPEC, 5.0, 10, m_max=-3), TOP, "-3"),
    "ladder-top-negative": (lambda: _level_ladder(SPEC, 5.0, -2), TOP, "-2"),
    "m-max-fractional": (lambda: engine(5.0, 10, 30.5), TOP, "30.5"),
    "m-max-negative": (lambda: engine(5.0, 10, -1), TOP, "-1"),
    "max-level-fractional": (
        lambda: TrapSpectrum(max_level=3.5), "max_level", "3.5"),
    "max-level-inf": (
        lambda: TrapSpectrum(max_level=math.inf), "max_level", "inf"),
    "max-level-nan": (
        lambda: TrapSpectrum(max_level=math.nan), "max_level", "nan"),
    "max-level-negative": (
        lambda: TrapSpectrum(max_level=-2), "max_level", "-2"),
}


@pytest.mark.parametrize("call, quantity, given", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_non_finite_or_fractional_input_is_a_domain_error(call, quantity,
                                                          given):
    # each refusal names its quantity and the value as the caller gave it
    with pytest.raises(DomainError, match=f"^{re.escape(quantity)} must .*, "
                       f"got {re.escape(given)}$"):
        call()


def test_integral_particle_numbers_of_any_type_agree():
    def moments(*args):
        return repr(raw_moments(canonical_observables(*args)))

    base = moments(SPEC, 5.0, 10)
    for n in (np.int64(10), np.int32(10), 10.0, np.float32(10)):
        assert moments(SPEC, 5.0, n) == base
        # every formula takes the integer rule's int, not the caller's type
        assert type(canonical_observables(SPEC, 5.0, n).n) is int
        assert repr([critical_temperature(SPEC, n), correlation_limit(n, 0.5),
                     solve_fugacity(SPEC, 5.0, n).relative_fugacity]) == repr(
            [critical_temperature(SPEC, 10), correlation_limit(10, 0.5),
             solve_fugacity(SPEC, 5.0, 10).relative_fugacity])
    # integral level indices of numpy type too
    assert moments(SPEC, 5.0, 10, np.int64(30)) == moments(SPEC, 5.0, 10, 30)
    # a temperature of any real type is the double 5.0 to every formula,
    # and every result holds Python floats, whose repr has no type name
    def results(t):
        return repr([canonical_observables(SPEC, t, 100),
                     solve_fugacity(SPEC, t, 100), truth(SPEC, t, 100)])

    at_double = results(5.0)
    for t in (5, np.int64(5), np.float16(5), np.float32(5), np.float64(5),
              np.longdouble(5), Fraction(5), Decimal(5)):
        assert results(t) == at_double, type(t)
        assert type(canonical_observables(SPEC, t, 100).t) is float
    assert moments(TrapSpectrum(max_level=np.int64(45)), 5.0, 60) == moments(
        TrapSpectrum(max_level=45), 5.0, 60)


@pytest.mark.parametrize("n", [5000, 500, 50])
def test_bad_offset_breaks_conditioning(n):
    # a huge artificial tilt underflows every excited level weight; the
    # projection integral of the bare oscillation carries no signal, and
    # its Re Z is rounding noise of either sign (-1.6e-15, 1.1e-15 and
    # 6.9e-17 measured at these N), which the engine must refuse
    with pytest.raises(ConvergenceError, match="lost all significant digits"):
        at_offset(SPEC, 0.5, n, 350.0)


def test_variances_clamped_nonnegative():
    res = canonical_observables(SPEC, 0.25, 4)
    assert res.n0_variance >= 0.0
    assert res.ne_variance >= 0.0


# ---------------------------------------------------------- shift invariance


def test_shift_invariance_at_two_forced_offsets():
    # observables and the offset-free log Z do not depend on the evaluation
    # offset, for offsets within a few T/sqrt(var) of the saddle
    t, n = 5.0, 120
    eps = canonical_observables(SPEC, t, n).ground_offset
    a, b = (at_offset(SPEC, t, n, f * eps) for f in (0.7, 1.3))
    want = raw_moments(a)
    for name, got in raw_moments(b).items():
        assert got == pytest.approx(want[name], rel=1e-11), name
    assert b.log_z_zero_offset == pytest.approx(a.log_z_zero_offset, rel=1e-10)
    assert b.log_z - a.log_z == pytest.approx(-n * 0.6 * eps / t, rel=1e-9)


# ------------------------------------------------------- numerical hygiene


def test_quadrature_insensitive_to_point_count():
    t, n = 5.0, 80
    a = canonical_observables(SPEC, t, n)
    b = on_doubled_grid(SPEC, t, n)
    assert b.intervals_total == 2 * a.intervals_total
    assert a.n0_mean == pytest.approx(b.n0_mean, rel=1e-10)
    assert a.log_z_zero_offset == pytest.approx(b.log_z_zero_offset, rel=1e-10)


def test_kernel_integrand_peaks_at_origin():
    # the engine normalises the integrand to 1 at z=0 and bounds the
    # unsummed tail by each interval's peak, so the peak must be the origin
    with KernelRecorder() as kernel:
        canonical_observables(SPEC, 4.0, 50)
    first = next(call.peak for call in kernel.calls if call.i0 == 0)
    peaks = np.concatenate([call.peak for call in kernel.calls])
    assert peaks.max() == first[0]
    assert -1e-3 < first[0] <= 1e-12
    assert kernel.calls[0].out[0, 0].real > 0.0


@pytest.fixture(scope="module")
def unchunked():
    """Rows by (N, T/Tc) at the engine's own chunking and exit decay: the
    4-point and the midpoint rule with early exit, and a full period."""
    return {(n, f): engine(f * critical_temperature(SPEC, n), n)
            for n, f in [(100, 0.5), (10_000, 1.2), (3, 0.8)]}


@pytest.mark.parametrize("chunk_points, exit_decay", [
    pytest.param(64, canonical.EXIT_DECAY, id="64"),
    pytest.param(canonical.CHUNK_POINTS, 5.0, id="boundary-before-exit"),
    pytest.param(canonical.CHUNK_POINTS, 1e-30, id="boundary-at-interval-1"),
    pytest.param(canonical.CHUNK_POINTS, 1e30, id="boundary-past-half-period"),
])
def test_chunk_size_does_not_change_results(unchunked, chunk_points,
                                            exit_decay):
    # exit decisions are per interval, on sums added in interval order, so
    # any chunking, with the predicted exit boundary anywhere or nowhere,
    # gives the same bits; no kernel call spans more than chunk_points
    four_point, midpoint, full = unchunked.values()
    assert four_point.intervals_evaluated < four_point.intervals_total
    assert midpoint.intervals_evaluated < midpoint.intervals_total
    assert full.intervals_evaluated == full.intervals_total
    for (n, f), ref in unchunked.items():
        with Recorder(canonical, "CHUNK_POINTS", chunk_points), \
                Recorder(canonical, "EXIT_DECAY", exit_decay), \
                KernelRecorder() as kernel:
            res = engine(f * critical_temperature(SPEC, n), n)
        assert repr(res) == repr(ref)
        spans = [(call.i1 - call.i0) * call.nodes.size for call in kernel.calls]
        assert max(spans) <= chunk_points
        step = chunk_points // kernel.calls[0].nodes.size
        off_grid = [call.i1 for call in kernel.calls
                    if call.i1 % step and call.i1 != res.intervals_total]
        if exit_decay == 5.0 and n > 3:
            assert off_grid and off_grid[0] < res.intervals_evaluated
        elif exit_decay == 1e-30:
            # the predicted boundary is interval 1
            assert off_grid == [1]
        elif exit_decay == 1e30:
            assert off_grid == []


@pytest.mark.parametrize("n, t_over_tc", [
    (100, 1.0),
    (100, 1.35),
    (1000, 0.5),
    (10_000, 1.2),  # midpoint rule
])
def test_exit_bound_covers_the_skipped_intervals(n, t_over_tc):
    # the intervals past the exit, evaluated after all, add at most
    # a relative 1e-12 of each accumulator's sum at the exit
    with KernelRecorder() as kernel:
        res = engine(t_over_tc * critical_temperature(SPEC, n), n)
    done, total = res.intervals_evaluated, res.intervals_total
    assert done < total
    summed = sum(call.out[:done - call.i0].sum(axis=0)
                 for call in kernel.calls)
    rest, _ = projection_chunk(*kernel.calls[0].over(done, total))
    assert np.all(np.abs(rest.sum(axis=0)) <= 1e-12 * np.abs(summed))


def test_kernel_stops_near_the_predicted_exit():
    # without the predicted boundary the first 4096-interval chunk (16384
    # points) runs for the 288 intervals this row needs
    res = canonical_observables(SPEC, critical_temperature(SPEC, 1000), 1000)
    assert res.intervals_evaluated < res.intervals_total
    assert res.points_evaluated <= 1.15 * res.intervals_evaluated * 4


def test_cost_guard_refuses_a_row_of_hours_before_any_kernel_call():
    # N = 10^9 at T/Tc = 0.05 predicts 1.9e11 level-points (over an hour of
    # kernel); the largest benchmark row, N = 10^6 at T/Tc = 0.5, 1.6e8
    started = time.perf_counter()
    with Recorder(canonical, "projection_chunk", lambda *args: None) as kernel:
        row = compute_row(SPEC, 10**9, 0.05)
    assert time.perf_counter() - started < 1.0
    assert not row.converged and kernel.calls == []
    assert row.error.startswith("DomainError: predicted kernel work of 1.9e+11")
    with pytest.raises(DomainError, match="level-points"):
        canonical_observables(SPEC, 0.05 * critical_temperature(SPEC, 10**9),
                              10**9)


def test_single_solve_state_is_the_offset_free_ladder():
    # the state is the spectrum's own solve; its fugacity fixes the saddle
    # offset
    t, n = 5.0, 100
    free = solve_fugacity(SPEC, t, n)
    res = canonical_observables(SPEC, t, n)
    assert res.gc_state == solve_fugacity(SPEC, t, n, m_max=res.m_max)
    assert res.gc_state.relative_fugacity == free.relative_fugacity
    assert res.ground_offset == -free.mu


def test_overflow_guard_reports_first_nonfinite_interval():
    def poisoned(*args):
        call = KernelCall(args, *projection_chunk(*args))
        for bad in (700, 900):
            if call.i0 <= bad < call.i1:
                call.out[bad - call.i0, 2] = np.inf
        return call.out, call.peak

    with KernelRecorder(poisoned), pytest.raises(
            ConvergenceError, match="at interval 701 of "):
        canonical_observables(SPEC, 0.6 * critical_temperature(SPEC, 1000), 1000)


# 35 rows over log10 N in [0, 3] (seven N), T/Tc in [0.01, 3] (seven
# values) and five ladders: the unbounded one, and finite ones with top
# levels 1, 12, 100 and 400. Each ladder meets every N and every T/Tc
# once, and no (N, T/Tc) pair repeats.
ENGINE_GRID = {
    None: [(1, 3.0), (3, 1.7), (10, 1.0), (30, 0.6), (100, 0.2), (300, 0.05),
           (1000, 0.01)],
    1: [(1, 0.2), (3, 0.05), (10, 0.01), (30, 3.0), (100, 1.7), (300, 1.0),
        (1000, 0.6)],
    12: [(1, 1.0), (3, 0.6), (10, 0.2), (30, 0.05), (100, 0.01), (300, 3.0),
         (1000, 1.7)],
    100: [(1, 0.05), (3, 0.01), (10, 3.0), (30, 1.7), (100, 1.0), (300, 0.6),
          (1000, 0.2)],
    400: [(1, 0.6), (3, 0.2), (10, 0.05), (30, 0.01), (100, 3.0), (300, 1.7),
          (1000, 1.0)],
}


@pytest.mark.parametrize("n, t_over_tc, top", [
    (n, t_over_tc, top) for top, rows in ENGINE_GRID.items()
    for n, t_over_tc in rows])
def test_engine_recursion_agreement_property(n, t_over_tc, top):
    # on the unbounded ladder or a finite one, every field and error
    # estimate is finite, log Z, n0, n1 and <n0 n1> agree with truth()
    # under the one rule, and each spread within the row's own estimate;
    # the engine refuses only what truth() refuses, for the same reason
    spec = TrapSpectrum(max_level=top)
    t = t_over_tc * critical_temperature(spec, n)
    try:
        res = canonical_observables(spec, t, n)
    except DomainError as refused:
        with pytest.raises(DomainError, match=f"^{re.escape(str(refused))}$"):
            truth(spec, t, n)
        return
    assert all(math.isfinite(getattr(res, f.name)) for f in fields(res)
               if f.name != "gc_state")
    assert top is None or res.m_max == top  # a finite ladder to its top
    want = truth(spec, t, n, res.m_max)
    pairs = {"log_z_zero_offset": (res.log_z_zero_offset, want.log_z),
             "n0_mean": (res.n0_mean, want.n0),
             "n1_mean": (res.n1_mean, want.n1)}
    if n > 1:  # one particle never holds n0 = n1 = 1: <n0 n1> is exactly 0
        pairs["<n0 n1>"] = (res.covariance_n0_n1 + res.n0_mean * res.n1_mean,
                            want.covariance_n0_n1 + want.n0 * want.n1)
    spread = math.sqrt(want.n0_variance)
    spreads = {"delta_n0": (res.delta_n0, spread, res.delta_n0_rel_error),
               "delta_ne": (res.delta_ne, spread, res.delta_ne_rel_error),
               "corr_01_normalized": (
                   res.covariance_n0_n1 / (res.n0_mean * res.n1_mean),
                   want.covariance_n0_n1 / (want.n0 * want.n1),
                   res.corr_01_rel_error)}
    assert all(math.isfinite(estimate) for *_, estimate in spreads.values())
    key = Row("truth", "auto" if top is None else f"max_level={top}", n,
              t_over_tc)
    for cells, rule in ((pairs, True), (spreads, False)):
        ok, report = hold({key: cells}, rule)
        assert ok, report


# Every held row outside gate 03's fig1 sweep, each on every column of the
# one map against its reference: the long-double file's rows at the edges
# of the engine's domain and near Tc at 2x10^4 and 4x10^4, four given by T
# (their ids below); truth()'s rows past the recursion's cap, at 10^5 below
# Tc and at 10^5 and 10^6 from 0.9 Tc to 3 Tc; and one particle's closed
# forms, where the tail closure is exact. Far above Tc one particle is a
# known defect: the kernel's level modulus loses about eps/q of each
# level's term, summed over roughly T^3 states (README, Known limits).
T_ROW_IDS = {"max_level=45": "truncate-45", "m_max=45": "tail-45",
             "auto": "tail-auto", "max_level=400": "finite-400"}


@pytest.mark.parametrize(
    "key", [key for key in HELD if not fig1(key)],
    ids=lambda key: (T_ROW_IDS[key.ladder] if key.t is not None
                     else f"{key.n}-{key.t_over_tc}"))
def test_engine_matches_its_truth(key):
    ok, report = hold(engine_cells([key]))
    assert ok, report


# Where both exact sources hold, deep below Tc at up to ORACLE_MAX_N
# particles, the demon forms are certified (log10 p from -536 to -3,401)
# and the recursion meets them on every quantity (measured worst 2.4e-15).
# At N = 10, T/Tc = 0.002 (T = 1/247), Var(n0), n1 and cov(n0, n1) are
# about 1e-107, carried by the k = 1 next to P's peak alone.
@pytest.mark.parametrize("n, t_over_tc", [(10_000, 0.05), (10_000, 0.1),
                                          (ORACLE_MAX_N, 0.05), (10, 0.002)])
def test_recursion_matches_the_demon_forms(n, t_over_tc):
    t = t_over_tc * critical_temperature(SPEC, n)
    got = truth(SPEC, t, n)
    certified, demon = demon_gaps(vars(got), SPEC, t, n)
    assert got.source == "recursion" and certified
    assert max(demon.values()) <= 1e-12, demon
