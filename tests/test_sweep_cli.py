import csv
import dataclasses
import inspect
import json
import math
import os
import re
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest

from bosecanon import (
    TrapSpectrum,
    canonical,
    critical_temperature,
    grand_canonical,
    sweep,
)
from bosecanon.canonical import ConvergenceError, canonical_observables
from bosecanon.cli import FIT_T, main, resolve_settings
from bosecanon.grand_canonical import solve_fugacity
from bosecanon.spectrum import DomainError
from bosecanon.sweep import (
    DISCREPANCY_CHANNELS,
    FIELD_ORDER,
    PRESETS,
    Preset,
    SweepResult,
    SweepRow,
    compute_row,
    fit_scaling,
    run_sweep,
    temperature_grid,
    write_csv,
    write_json,
)

SPEC = TrapSpectrum()


# -------------------------------------------------------------------- rows


def test_compute_row_below_transition():
    row = compute_row(SPEC, 500, 0.6)
    assert row.converged == 1
    assert row.error == ""
    assert 0.0 < row.n0_over_n < 1.0
    assert row.delta_n0 > 0.0
    assert row.corr_01_normalized < 0.0
    assert row.gc_n0_mean > 0.0
    assert math.isfinite(row.eq10_value)
    assert math.isfinite(row.eq12_value)
    assert row.t_over_spacing == pytest.approx(
        0.6 * (500 / 1.2020569031595942) ** (1 / 3), rel=1e-12
    )


def test_compute_row_above_transition_drops_condensed_forms():
    row = compute_row(SPEC, 500, 1.3)
    assert row.converged == 1
    assert math.isnan(row.eq10_value)
    assert math.isnan(row.eq12_value)
    assert math.isnan(row.fraction_limit) or row.fraction_limit == 0.0
    # almost no condensate left
    assert row.n0_over_n < 0.1


def test_compute_row_records_failures_instead_of_raising(monkeypatch):
    with monkeypatch.context() as patch:
        fail_every_row(patch)
        row = compute_row(SPEC, 5000, 0.5)
    assert row.converged == 0
    assert row.error == "ConvergenceError: forced failure"
    assert math.isnan(row.n0_mean)


@pytest.mark.parametrize("t_over_tc",
                         [-1.0, 0.0, math.nan, math.inf, None, True,
                          pytest.param(10**400, id="10**400"),
                          pytest.param(Decimal("sNaN"), id="Decimal-sNaN"),
                          pytest.param(np.array([0.5, 0.6]), id="array")])
def test_compute_row_error_names_the_t_over_tc_it_was_given(t_over_tc,
                                                            monkeypatch):
    # a bad T/Tc is refused as a bad N is, naming the caller's value, and
    # a sweep refuses it before its first row: an error row is the
    # engine's alone
    message = re.escape(f"t_over_tc must be positive and finite, got "
                        f"{t_over_tc}")
    with pytest.raises(DomainError, match=f"^{message}$"):
        compute_row(SPEC, 100, t_over_tc)
    rows = []
    monkeypatch.setattr(sweep, "compute_row", lambda *a: rows.append(a))
    with pytest.raises(DomainError, match=f"^{message}$"):
        run_sweep([100], [0.5, t_over_tc])
    assert rows == []


def test_a_row_is_fixed_by_n_and_t_over_tc():
    # no level truncation reaches a row: it resolves its levels with
    # auto_m_max, and its m_max column reports the result
    assert list(inspect.signature(compute_row).parameters) == [
        "spectrum", "n", "t_over_tc"]
    t = 0.5 * critical_temperature(SPEC, 20)
    res = canonical_observables(SPEC, t, 20)
    row = compute_row(SPEC, 20, 0.5)
    assert row.m_max == res.m_max == grand_canonical.auto_m_max(SPEC, t)
    for column in ("n0_mean", "delta_n0", "n1_mean", "log_z", "ground_offset",
                   "intervals_evaluated", "intervals_total"):
        assert repr(getattr(row, column)) == repr(getattr(res, column)), column
    result = run_sweep([20], [0.5])
    assert [repr(r) for r in result.rows] == [repr(row)]
    assert "m_max" not in result.meta


def test_self_check_perturbations_are_engine_keywords_only():
    # the invariance checks' perturbations, a forced offset and a doubled
    # grid, are no keywords of the engine: they patch its module's seams
    # (conftest at_offset, on_doubled_grid), and a call evaluates at the
    # saddle offset on the engine's own grid
    assert list(inspect.signature(canonical_observables).parameters) == [
        "spectrum", "t", "n", "m_max"]


def test_compute_row_refuses_a_huge_temperature_before_building_levels():
    # T/Tc = 10^6 at N = 100 needs 6.5e7 levels, 0.5 GB per level array
    started = time.perf_counter()
    row = compute_row(SPEC, 100, 1e6)
    assert time.perf_counter() - started < 1.0
    assert row.error.startswith("DomainError: 6.5e+07 trap levels")
    row = compute_row(SPEC, 100, 1e306)
    assert row.converged == 0
    assert row.error.startswith("DomainError: 6.5e+307 trap levels")


def test_a_particle_number_without_a_finite_double_is_a_domain_error(
        tmp_path, capsys):
    # 10^400 passes "whole number >= 1" but overflows float(): the integer
    # rule refuses it, in compute_row, run_sweep and the CLI alike
    with pytest.raises(DomainError, match="particle number"):
        compute_row(SPEC, 10**400, 0.5)
    with pytest.raises(DomainError, match="particle number"):
        run_sweep([10**400], [0.5])
    # so is a T/Tc with no double, before the first row
    with pytest.raises(DomainError, match="t_over_tc"):
        run_sweep([100], [10**400])
    assert run_cli("--particles", str(10**400), "--t-over-tc", "0.5:0.5:0.1",
                   "--out", str(tmp_path / "huge")) == 2
    assert "particle number" in capsys.readouterr().err


@pytest.mark.parametrize("n, t", [(10**6, 1e-3), (10**4, 1.4e-3), (100, 1e-320)])
def test_compute_row_refuses_a_level_1_factor_below_the_normal_doubles(n, t):
    # below T = 1/708.4, exp(-1/T) leaves the normal doubles: n1 then loses
    # its digits or reads 0, and the normalised correlation 0/0; the row is
    # refused before the fugacity solve, not after a half period of kernel
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = compute_row(SPEC, n, t / critical_temperature(SPEC, n))
    assert time.perf_counter() - started < 1.0
    assert row.converged == 0
    assert row.error.startswith("DomainError: temperature ")
    assert "level-1 Boltzmann factor" in row.error
    with pytest.raises(DomainError, match="level-1 Boltzmann factor"):
        canonical_observables(SPEC, t, n)


def test_a_level_1_factor_in_the_normal_doubles_still_converges():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = compute_row(SPEC, 10**4, 1.5e-3 / critical_temperature(SPEC, 10**4))
    assert row.converged == 1
    assert row.corr_01_normalized == pytest.approx(-1e-4, rel=1e-9)


def test_compute_row_solves_the_fugacity_once():
    # the grand-canonical columns come from the saddle's own solve, so the
    # row counts the evaluations of one solve
    row = compute_row(SPEC, 1000, 0.5)
    state = solve_fugacity(SPEC, 0.5 * critical_temperature(SPEC, 1000), 1000,
                           m_max=row.m_max)
    assert row.solve_evals == state.evaluations > 0


def test_row_costs_match_an_outside_recorder(monkeypatch):
    # the engine's own counts against wrappers on the names the benchmark's
    # tracer patches (until it reads the rows): a multi-chunk 4-point row
    # and a midpoint row
    cases = [(1000, 0.4), (10_000, 0.4)]
    serial = run_sweep([1000, 10_000], [0.4]).rows
    threaded = run_sweep([1000, 10_000], [0.4], threads=2).rows
    kernel, sums = canonical.projection_chunk, grand_canonical._occupation_sums
    calls, evals = [], 0

    def recording(*args):
        calls.append((args[6] - args[5]) * args[7].size)
        return kernel(*args)

    def counted(*args):
        nonlocal evals
        evals += 1
        return sums(*args)

    monkeypatch.setattr(canonical, "projection_chunk", recording)
    monkeypatch.setattr(grand_canonical, "_occupation_sums", counted)
    kernel_calls = {}
    for (n, f), *swept in zip(cases, serial, threaded, strict=True):
        calls.clear()
        evals = 0
        row = compute_row(SPEC, n, f)
        kernel_calls[n] = len(calls)
        assert row.points_evaluated == sum(calls) > 0
        assert row.solve_evals == evals > 0
        # the same counts on one thread and on two; the times are the row's
        for r in swept:
            assert (r.solve_evals, r.points_evaluated) == (
                row.solve_evals, row.points_evaluated)
            assert min(r.solve_s, r.integrand_s, r.moments_s) >= 0.0
    assert kernel_calls[1000] > 1


def test_compute_row_builds_the_level_ladder_once(monkeypatch):
    # the solve builds it; the engine shifts it and the state's sums read it
    builds = 0
    build = grand_canonical._level_ladder

    def counted(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(grand_canonical, "_level_ladder", counted)
    compute_row(SPEC, 1000, 0.5)
    assert builds == 1
    state = solve_fugacity(SPEC, 0.5 * critical_temperature(SPEC, 1000), 1000)
    builds = 0
    total = grand_canonical._occupation_sums(state.ladder,
                                             state.relative_fugacity)
    assert total == pytest.approx(1000, rel=1e-12)
    assert state.number_variance > 0.0
    assert builds == 0


def test_compute_row_gc_columns_match_a_direct_solve():
    n, f = 1000, 0.5
    row = compute_row(SPEC, n, f)
    gc = solve_fugacity(SPEC, f * critical_temperature(SPEC, n), n,
                        m_max=row.m_max)
    assert (row.gc_n0_mean, row.gc_n0_over_n, row.gc_delta_n0) == (
        gc.n0, gc.n0 / n, gc.delta_n0)


def test_row_dict_covers_field_order():
    row = compute_row(SPEC, 100, 0.8)
    d = row.to_dict()
    assert tuple(d) == FIELD_ORDER


# -------------------------------------------------------------------- grid


def test_temperature_grid_basic():
    grid = temperature_grid(0.2, 0.5, 0.1)
    assert grid == pytest.approx([0.2, 0.3, 0.4, 0.5])
    # one start:stop:step patch, as the CLI's --t-over-tc takes it
    assert list(inspect.signature(temperature_grid).parameters) == [
        "start", "stop", "step"]
    assert [f.name for f in dataclasses.fields(Preset)] == [
        "particles", "patches"]


def test_temperature_grid_refinement_dedupes():
    grid = Preset((20,), ((0.8, 1.2, 0.1), (0.9, 1.1, 0.05))).grid()
    assert grid == pytest.approx([0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2])
    assert len(set(grid)) == len(grid)


def test_temperature_grid_without_points_is_a_domain_error():
    # the step is too small to move 0.5, so the grid would be empty
    with pytest.raises(DomainError, match="no points"):
        temperature_grid(0.5, 0.5, 1e-20)


@pytest.mark.parametrize("patch, match", [
    ((0.1, 0.3, 0.0), "grid step"),
    ((0.1, 0.3, -0.01), "grid step"),
    ((math.nan, 0.3, 0.01), "grid start"),
    ((0.1, math.nan, 0.01), "grid stop"),
    ((0.1, math.inf, 0.01), "grid stop"),
    ((0.3, 0.1, 0.01), "lies below its start"),
    ((0.1, 0.3, 1e-16), "more than the 100000"),  # counted, not built
    # 11 distinct np.arange points that 10-digit rounding makes 2
    ((0.1, 0.1000000001, 1e-11), "grid step 1e-11 is too fine"),
    # a positive start below 5e-11 that 10-digit rounding makes 0.0
    ((1e-12, 1e-12, 1.0), "grid start 1e-12 rounds to 0.0"),
], ids=["zero-step", "negative-step", "nan-start", "nan-stop", "inf-stop",
        "reversed", "huge", "too-fine", "zero-point"])
def test_temperature_grid_checks_its_refinement_patches(patch, match):
    # a patch is a grid of its own and fails the same checks
    with pytest.raises(DomainError, match=match):
        Preset((20,), ((0.1, 0.3, 0.1), patch)).grid()


# The fig1 grid point by point, as reprs: the benchmark's fig1 rows and
# every row's t_over_tc come from these floats, so they must not move.
FIG1_GRID = [
    "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5",
    "0.55", "0.6", "0.65", "0.7", "0.75", "0.8", "0.85", "0.9", "0.91",
    "0.92", "0.93", "0.94", "0.95", "0.96", "0.97", "0.98", "0.99", "1.0",
    "1.01", "1.02", "1.03", "1.04", "1.05", "1.06", "1.07", "1.08", "1.09",
    "1.1", "1.15", "1.2", "1.25", "1.3", "1.35", "1.4",
]


def test_presets_share_standard_shape():
    assert list(PRESETS) == ["fig1"]
    preset = PRESETS["fig1"]
    assert preset.particles == (100, 1000, 10_000)
    assert preset.patches == ((0.1, 1.4, 0.05), (0.9, 1.1, 0.01))
    grid = preset.grid()
    assert [repr(t) for t in grid] == FIG1_GRID
    # the benchmark keys its rows on f"{t:.10g}": one key per point
    assert len({f"{t:.10g}" for t in grid}) == len(FIG1_GRID)


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep((20, 80, 320), [0.5, 0.8], threads=2)


def test_sweep_runs_all_rows(small_sweep):
    assert len(small_sweep.rows) == 6
    assert small_sweep.failed_rows == []
    assert small_sweep.meta["failed_rows"] == 0
    assert small_sweep.meta["workers"] == 2
    ns = sorted({r.n for r in small_sweep.rows})
    assert ns == [20, 80, 320]


def test_sweep_defaults_to_serial():
    # the sweep's only setting is threads; rows run on the unit-spacing
    # trap
    assert list(inspect.signature(run_sweep).parameters) == [
        "particles", "t_grid", "threads"]
    assert run_sweep((20,), [0.5]).meta["workers"] == 1


def test_sweep_thread_count_none_zero_negative_rejected():
    for threads in (None, 0, -3, 1.5):
        with pytest.raises(DomainError, match="threads"):
            run_sweep((20,), [0.5], threads=threads)


def test_sweep_timing_ignores_a_wall_clock_step(monkeypatch):
    # the sweep times itself on the monotonic clock: a wall clock, which
    # can be set back, must not be read at all
    def wall_clock():
        raise AssertionError("the sweep read the wall clock")

    monkeypatch.setattr(sweep.time, "time", wall_clock)
    assert run_sweep((20,), [0.5]).meta["elapsed_seconds"] >= 0


@pytest.mark.parametrize("particles, t_grid", [([], [0.5]), ([100], [])],
                         ids=["no-particles", "no-temperatures"])
def test_sweep_refuses_an_empty_particle_list_or_grid(particles, t_grid):
    with pytest.raises(DomainError, match="at least one particle number"):
        run_sweep(particles, t_grid)


def test_sweep_thread_count_does_not_change_numbers(small_sweep):
    # repr tells every field apart, NaN matching NaN
    redo = run_sweep((20, 80, 320), [0.5, 0.8], threads=1)
    assert len(redo.rows) == 6
    assert [repr(r) for r in small_sweep.rows] == [repr(r) for r in redo.rows]


def test_sweep_thread_count_does_not_change_full_chunk_rows():
    # rows that run through many full-size kernel chunks (14 at N = 1000,
    # T/Tc = 0.3, and 10 at N = 10^4), two at a time
    rows = [run_sweep([1000, 10_000], [0.3, 1.0], threads=threads).rows
            for threads in (2, 1)]
    assert len(rows[0]) == 4 and not any(r.error for r in rows[0])
    assert [repr(r) for r in rows[0]] == [repr(r) for r in rows[1]]


def test_fit_scaling_recovers_exponent(small_sweep):
    # the grand-canonical condensate mismatch shrinks roughly like 1/N
    fit = fit_scaling(small_sweep.rows, "gc_discrepancy", 0.5)
    assert fit.points == 3
    assert -1.6 < fit.exponent < -0.7
    assert math.isfinite(fit.stderr)


def test_sweep_above_twice_tc_up_to_n_1e5_meets_the_open_system():
    # far above Tc the grand-canonical ensemble's extra fluctuation is a
    # 1/N effect: the condensate mismatch falls like 1/N, and at N = 10^5
    # the canonical spread sits on the open system's (delta_ne is left
    # unbounded: above Tc it carries the known N_ex cancellation)
    rows = run_sweep([10**3, 10**4, 10**5], [2.0, 3.0]).rows
    assert all(r.converged == 1 for r in rows)
    for r in rows:
        assert r.n0_mean + r.ne_mean == pytest.approx(r.n, rel=1e-12, abs=0.0)
    for t in (2.0, 3.0):
        fit = fit_scaling(rows, "gc_discrepancy", t)
        assert fit.points == 3
        assert abs(fit.exponent - (-1.0)) <= 0.1, (t, fit)
    for r in rows:
        if r.n == 10**5:
            assert r.delta_n0 == pytest.approx(r.gc_delta_n0, rel=1e-5)


def test_fit_scaling_skips_rows_without_a_condensate_limit(tmp_path):
    # at T/Tc >= 1 the limit fraction is 0, so n0_limit_gap has no value
    # there: such rows are skipped without a warning, whether they hold
    # numpy floats (engine rows) or plain floats (rows read from a file)
    result = run_sweep([20, 40, 80], [0.6, 1.2])
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.json") as fh:
        reread = [SweepRow(**{k: math.nan if v is None else v
                              for k, v in d.items()})
                  for d in json.load(fh)["rows"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (result.rows, reread):
            with pytest.raises(DomainError, match="have 0"):
                fit_scaling(rows, "n0_limit_gap", 1.2)
            assert fit_scaling(rows, "n0_limit_gap", 0.6).points == 3


def test_fit_scaling_requires_three_sizes(small_sweep):
    subset = [r for r in small_sweep.rows if r.n in (20, 80)]
    with pytest.raises(DomainError):
        fit_scaling(subset, "gc_discrepancy", 0.5)
    with pytest.raises(DomainError):
        fit_scaling(small_sweep.rows, "gc_discrepancy", 0.123)
    with pytest.raises(DomainError):
        fit_scaling(small_sweep.rows, "no_such_field", 0.5)


# ------------------------------------------------------------------ output


def read_back(tmp_path, result):
    # the rows of both files, each field as the row's own type; NaN is
    # 'nan' in CSV and null in JSON
    write_csv(result.rows, tmp_path / "out.csv")
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.csv", newline="") as fh:
        got_csv = list(csv.DictReader(fh))
    with open(tmp_path / "out.json") as fh:
        payload = json.load(fh)
    assert list(got_csv[0]) == list(FIELD_ORDER)
    assert len(got_csv) == len(payload["rows"]) == len(result.rows)
    from_csv = [{f: type(v)(crow[f]) for f, v in row.to_dict().items()}
                for row, crow in zip(result.rows, got_csv)]
    from_json = [{f: math.nan if v is None else v for f, v in jrow.items()}
                 for jrow in payload["rows"]]
    return from_csv, from_json, payload["meta"]


def same_rows(got, rows):
    # equal field by field, NaN matching NaN
    for grow, row in zip(got, rows, strict=True):
        assert list(grow) == list(row)
        for field, want in row.items():
            value = grow[field]
            assert value == want or value != value and want != want, field


def test_csv_json_outputs_agree(tmp_path, small_sweep):
    from_csv, from_json, meta = read_back(tmp_path, small_sweep)
    assert meta == small_sweep.meta
    assert len(from_json) == 6
    same_rows(from_csv, from_json)
    # both files spell a finite float as its shortest exact text
    with open(tmp_path / "out.csv", newline="") as fh:
        for row, cells in zip(small_sweep.rows, csv.DictReader(fh),
                              strict=True):
            for field, value in row.to_dict().items():
                if isinstance(value, float) and math.isfinite(value):
                    assert (cells[field] == repr(float(value))
                            == json.dumps(value)), field


def test_csv_full_precision_round_trip(tmp_path, small_sweep):
    # a float's shortest exact text reads back to the same double, every
    # field of every row
    from_csv, _, _ = read_back(tmp_path, small_sweep)
    same_rows(from_csv, [row.to_dict() for row in small_sweep.rows])


def test_a_refused_row_costs_nothing_in_the_files_or_the_totals(tmp_path):
    # the cost guard refuses (10^9, 0.05) before any kernel call: the row
    # keeps zero counts and NaN times, 'nan' in the CSV and null in the
    # JSON, and the meta's totals are the converged row's alone
    result = run_sweep([100, 10**9], [0.05])
    ok, refused = result.rows
    assert ok.converged == 1
    assert refused.error.startswith("DomainError: predicted kernel work")
    times = ("solve_s", "integrand_s", "moments_s")
    assert (refused.solve_evals, refused.points_evaluated) == (0, 0)
    assert all(math.isnan(getattr(refused, k)) for k in times)
    assert result.meta["totals"] == {k: getattr(ok, k)
                                     for k in sweep.COST_FIELDS}
    from_csv, from_json, meta = read_back(tmp_path, result)
    for got in (from_csv, from_json):
        same_rows(got, [row.to_dict() for row in result.rows])
    assert meta == result.meta

    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    payload = json.loads((tmp_path / "out.json").read_text(),
                         parse_constant=refuse)
    assert [payload["rows"][1][k] for k in times] == [None] * 3
    with open(tmp_path / "out.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))[1]
    assert [cells[k] for k in times] == ["nan"] * 3


def test_numpy_integer_inputs_write_json(tmp_path):
    # particle numbers and level indices reach the output as plain ints,
    # also the top level of a finite ladder
    assert type(compute_row(TrapSpectrum(max_level=np.int64(45)), 20,
                            0.5).m_max) is int
    # a row holds N as an int and T/Tc as a float, whatever real types
    # the caller passed
    rows = [compute_row(SPEC, np.int64(20), 0.5),
            compute_row(SPEC, 20, np.float32(0.5)),
            compute_row(SPEC, 20.0, 0.5)]
    for row in rows:
        assert row.converged == 1
        assert type(row.n) is int and type(row.t_over_tc) is float
        # every float field holds a Python float, not a numpy scalar
        for f in dataclasses.fields(SweepRow):
            if f.type == "float":
                assert type(getattr(row, f.name)) is float, f.name
    write_json(SweepResult(rows=rows, meta={}), tmp_path / "rows.json")
    with open(tmp_path / "rows.json") as fh:
        written = json.load(fh)["rows"]
    assert [(r["n"], r["t_over_tc"]) for r in written] == [(20, 0.5)] * 3
    result = run_sweep([np.int64(20)], [0.5])
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.json") as fh:
        payload = json.load(fh)
    assert payload["meta"]["particles"] == [20]
    assert payload["rows"][0]["m_max"] == result.rows[0].m_max
    # non-finite floats, in the meta's t_grid as in the rows, are written
    # as null: a strict parser finds no bare NaN or Infinity token
    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    nonfinite = SweepResult(rows=[SweepRow(n=100, t_over_tc=0.5)],
                            meta={"t_grid": [math.nan, math.inf, -0.5, 0.5]})
    write_json(nonfinite, tmp_path / "nonfinite.json")
    payload = json.loads((tmp_path / "nonfinite.json").read_text(),
                         parse_constant=refuse)
    assert payload["meta"]["t_grid"] == [None, None, -0.5, 0.5]
    assert payload["rows"][0]["n0_mean"] is None


def test_numpy_config_fields_write_json(tmp_path):
    # settings given as numpy scalars reach the output as plain numbers
    result = run_sweep([20], [0.5], threads=np.int64(1))
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.json") as fh:
        payload = json.load(fh)
    assert payload["meta"]["workers"] == 1
    assert type(result.meta["workers"]) is int
    assert type(canonical_observables(
        SPEC, 5.0, 10, np.int64(30)).ground_offset) is float


# --------------------------------------------------------------------- cli


def run_cli(*args):
    return main(list(args))


def test_cli_small_sweep_writes_both_formats(tmp_path, capsys):
    out = tmp_path / "mini"
    code = run_cli(
        "--particles", "30",
        "--t-over-tc", "0.5:0.7:0.2",
        "--out", str(out),
    )
    assert code == 0
    assert (tmp_path / "mini.csv").exists()
    assert (tmp_path / "mini.json").exists()
    text = capsys.readouterr().out
    assert "rows" in text
    # one line of per-layer totals, as in the JSON meta
    layers, = [line for line in text.splitlines()
               if line.startswith("layers: solve ")]
    assert " evaluations), integrand " in layers
    assert " points), moments " in layers


def test_cli_preset_prints_every_channel_fit(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(PRESETS, "fig1",
                        Preset((20, 80, 320), ((FIT_T, FIT_T, 0.1),)))
    code = run_cli("--preset", "fig1", "--out", str(tmp_path / "p"))
    assert code == 0
    fits = [line for line in capsys.readouterr().out.splitlines()
            if f" at T/Tc={FIT_T}: N^(" in line]
    assert [line.split()[0] for line in fits] == list(DISCREPANCY_CHANNELS)
    # fit.points counts particle numbers, not decades
    assert all(line.endswith(" from 3 sizes") for line in fits)


def test_cli_preset_with_two_sizes_prints_no_fit(tmp_path, capsys,
                                                 monkeypatch):
    # every fit needs three particle numbers; the sweep itself succeeds
    monkeypatch.setitem(PRESETS, "fig1",
                        Preset((20, 80), ((FIT_T, FIT_T, 0.1),)))
    assert run_cli("--preset", "fig1", "--out", str(tmp_path / "p")) == 0
    out = capsys.readouterr().out
    assert out.startswith("rows: 2/2 converged") and "N^(" not in out


ROW = ["--particles", "30", "--t-over-tc", "0.5:0.5:0.1"]
UNKNOWN = "unrecognized arguments"
# the count rule of run_sweep, met before its first row
COUNT = "must be a finite integer >= 1, got 0"
CONFIGURATION_ERRORS = {
    # id: (arguments, fragment of the message)
    "unknown-preset": (["--preset", "fig9"], "invalid choice"),
    "grid-without-step": (["--particles", "10", "--t-over-tc", "0.5:0.9"],
                          "want start:stop:step"),
    "reversed-grid": (["--particles", "10", "--t-over-tc", "0.9:0.5:0.1"],
                      "lies below its start"),
    "empty-grid": (["--particles", "100", "--t-over-tc", "0.5:0.5:1e-20"],
                   "no points"),
    # about 10^16 points: refused from its count, before any array
    "huge-grid": (["--particles", "100", "--t-over-tc", "0.1:1.4:1e-16"],
                  "more than the 100000"),
    # 11 points that the grid's 10-digit rounding would merge into 2
    "too-fine-step": (["--particles", "30",
                       "--t-over-tc", "0.1:0.1000000001:1e-11"],
                      "grid step 1e-11 is too fine"),
    # a positive start that the grid's 10-digit rounding would make 0.0
    "zero-point-grid": (["--particles", "100",
                         "--t-over-tc", "1e-12:1e-12:1"],
                        "grid start 1e-12 rounds to 0.0"),
    "empty-request": ([], "nothing to do"),
    "particles-zero": (["--particles", "0", "--t-over-tc", "0.5:0.5:0.1"],
                       f"particle number {COUNT}"),
    "particles-empty": (["--particles", ",", "--t-over-tc", "0.5:0.5:0.1"],
                        "a sweep needs at least one particle number"),
    "particles-1e3": (["--particles", "1e3", "--t-over-tc", "0.5:0.5:0.1"],
                      "want whole particle numbers, got '1e3'"),
    # rows run one at a time, and a row is fixed by N and T/Tc: threads
    # and m_max are not options; the self-check is acceptance gate 08, not
    # a mode of the command line; the flags are the only settings
    "flag-threads": ([*ROW, "--threads", "2"], UNKNOWN),
    "flag-m-max": ([*ROW, "--m-max", "40"], UNKNOWN),
    "flag-validate": ([*ROW, "--validate"], UNKNOWN),
    "flag-config": ([*ROW, "--config", "run.cfg"], UNKNOWN),
    # refused before the sweep, not after it
    "out-in-missing-dir": ([*ROW, "--out", "missing/run"],
                           "missing is not a writable directory"),
    # a directory alone names no file: not hidden .csv and .json files
    "out-trailing-slash": ([*ROW, "--out", "./"], "has no file name"),
    "out-empty": ([*ROW, "--out", ""], "has no file name"),
    "out-dot": ([*ROW, "--out", "."], "has no file name"),
}


@pytest.mark.parametrize("args, fragment", CONFIGURATION_ERRORS.values(),
                         ids=CONFIGURATION_ERRORS.keys())
def test_cli_configuration_error_exits_2(tmp_path, monkeypatch, capsys,
                                         args, fragment):
    # exit 2 with the message, and nothing computed or written
    monkeypatch.chdir(tmp_path)
    rows = []
    monkeypatch.setattr(sweep, "compute_row", lambda *a: rows.append(a))
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "configuration error: " in err and fragment in err
    assert os.listdir(tmp_path) == []
    assert rows == []


@pytest.mark.parametrize("taken", ["run.csv", "run.json"])
def test_cli_refuses_an_out_whose_target_is_a_directory(
        tmp_path, monkeypatch, capsys, taken):
    # refused before the sweep, not after it, and nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / taken).mkdir()
    rows = []
    monkeypatch.setattr(sweep, "compute_row", lambda *a: rows.append(a))
    assert run_cli(*ROW, "--out", "run") == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot write --out run: {taken} is a " \
        "directory" in err
    assert os.listdir(tmp_path) == [taken]
    assert os.listdir(taken) == []
    assert rows == []


def fail_every_row(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr(sweep, "canonical_observables", no_convergence)


def test_cli_strict_failure_exit(tmp_path, monkeypatch):
    fail_every_row(monkeypatch)
    code = run_cli(
        "--particles", "30",
        "--t-over-tc", "0.5:0.5:0.1",
        "--out", str(tmp_path / "bad"),
        "--strict",
    )
    assert code == 3


def test_cli_nonstrict_failure_still_writes(tmp_path, monkeypatch):
    fail_every_row(monkeypatch)
    out = tmp_path / "soft"
    code = run_cli(
        "--particles", "30",
        "--t-over-tc", "0.5:0.5:0.1",
        "--out", str(out),
    )
    assert code == 0
    with open(out.with_suffix(".json")) as fh:
        payload = json.load(fh)
    assert payload["meta"]["failed_rows"] == 1
    assert payload["rows"][0]["error"]


def test_resolve_settings_preset_fills_gaps():
    st = resolve_settings(["--preset", "fig1"])
    # the settings are the flags, and no other
    assert sorted(vars(st)) == ["out", "particles", "preset", "strict",
                                "t_grid"]
    assert list(st.particles) == [100, 1000, 10_000]
    assert st.t_grid is not None and len(st.t_grid) > 20
    st2 = resolve_settings(["--preset", "fig1", "--particles", "7"])
    assert list(st2.particles) == [7]
