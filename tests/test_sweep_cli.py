import csv
import dataclasses
import inspect
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

import bosecanon
from bosecanon import (
    TrapSpectrum,
    canonical,
    critical_temperature,
    grand_canonical,
    sweep,
    validate,
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
    # a bad T/Tc is a row error too; a bad N is refused (critical_temperature)
    for t_over_tc in (math.nan, math.inf, 0.0):
        assert compute_row(SPEC, 50, t_over_tc).error.startswith("DomainError")


def test_package_has_no_quadrature_config():
    # m_max is a plain parameter and the self-check perturbations are
    # keywords of canonical_observables: no settings object is left
    for module in (bosecanon, canonical):
        assert [name for name in dir(module) if name.endswith("Config")] == []


def test_m_max_is_the_one_row_setting():
    res = canonical_observables(SPEC, 0.5 * critical_temperature(SPEC, 20),
                                20, 30)
    row = compute_row(SPEC, 20, 0.5, m_max=30)
    assert row.m_max == res.m_max == 30
    for column in ("n0_mean", "delta_n0", "n1_mean", "log_z", "ground_offset",
                   "intervals_evaluated", "intervals_total"):
        assert repr(getattr(row, column)) == repr(getattr(res, column)), column
    result = run_sweep([20], [0.5], m_max=np.int64(30))
    assert [repr(r) for r in result.rows] == [repr(row)]
    assert result.meta["m_max"] == 30
    assert run_sweep([20], [0.5]).meta["m_max"] is None
    for bad in (0, -1, 30.5):
        with pytest.raises(DomainError, match="m_max"):
            run_sweep([20], [0.5], m_max=bad)


def test_self_check_perturbations_are_engine_keywords_only():
    base = canonical_observables(SPEC, 5.0, 10)
    dense = canonical_observables(SPEC, 5.0, 10, intervals_per_oscillation=2)
    assert dense.intervals_total == 2 * base.intervals_total
    forced = canonical_observables(SPEC, 5.0, 10,
                                   ground_offset=base.ground_offset)
    assert forced.ground_offset == base.ground_offset
    with pytest.raises(TypeError):
        canonical_observables(SPEC, 5.0, 10, None, base.ground_offset)
    with pytest.raises(TypeError):
        canonical_observables(SPEC, 5.0, 10, None, None, 2)
    for keyword in ({"ground_offset": 1.0}, {"intervals_per_oscillation": 2}):
        with pytest.raises(TypeError):
            compute_row(SPEC, 10, 0.5, **keyword)


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
    assert run_cli("--particles", str(10**400), "--t-over-tc", "0.5:0.5:0.1",
                   "--out", str(tmp_path / "huge")) == 2
    assert "particle number" in capsys.readouterr().err


@pytest.mark.parametrize("n, t", [(10_000, 1e-320), (100, 2e-323)])
def test_compute_row_refuses_a_temperature_whose_saddle_offset_underflows(
        n, t):
    # -mu rounds to 0.0, so the ground factor would be exactly 1; a level
    # spacing of T keeps the level-1 factor at 1/e, clear of the level-1
    # rule that refuses these temperatures on the unit spacing
    spec = TrapSpectrum(level_spacing=t)
    row = compute_row(spec, n, t / critical_temperature(spec, n))
    assert row.error.startswith("DomainError: temperature")
    assert "saddle offset underflows" in row.error
    with pytest.raises(DomainError, match="saddle offset underflows"):
        canonical_observables(spec, t, n)
    # a forced offset is positive and is not refused
    tiny = TrapSpectrum(level_spacing=1e-320)
    canonical_observables(tiny, 1e-320, 100, ground_offset=1e-322)
    # at N = 100 the offset at 1e-320 is still positive
    assert compute_row(tiny, 100,
                       1e-320 / critical_temperature(tiny, 100)).converged == 1


@pytest.mark.parametrize("n, t", [(10**6, 1e-3), (10**4, 1.4e-3), (100, 1e-320)])
def test_compute_row_refuses_a_level_1_factor_below_the_normal_doubles(n, t):
    # below T = 1/708.4 spacings exp(-spacing/T) leaves the normal doubles:
    # n1 then loses its digits or reads 0, and the normalised correlation
    # 0/0; the row is refused before the fugacity solve, not after a half
    # period of kernel
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


def test_compute_row_records_one_level_spectrum_as_error():
    row = compute_row(TrapSpectrum(max_level=0), 10, 0.5)
    assert row.converged == 0
    assert row.error.startswith("DomainError")


def test_compute_row_solves_the_fugacity_once(monkeypatch):
    # the grand-canonical columns come from the saddle's own solve
    evals = 0
    sums = grand_canonical._occupation_sums

    def counted(*args, **kwargs):
        nonlocal evals
        evals += 1
        return sums(*args, **kwargs)

    monkeypatch.setattr(grand_canonical, "_occupation_sums", counted)
    row = compute_row(SPEC, 1000, 0.5)
    row_evals, evals = evals, 0
    solve_fugacity(SPEC, 0.5 * critical_temperature(SPEC, 1000), 1000,
                   m_max=row.m_max)
    assert evals > 0
    assert row_evals == evals


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
    assert state.total_number == pytest.approx(1000, rel=1e-12)
    assert state.number_variance > 0.0
    assert builds == 0


@pytest.mark.parametrize("spec, rel", [
    (SPEC, 0.0),
    (TrapSpectrum(level_spacing=2.0), 1e-12),
])
def test_compute_row_gc_columns_match_a_direct_solve(spec, rel):
    n, f = 1000, 0.5
    row = compute_row(spec, n, f)
    gc = solve_fugacity(spec, f * critical_temperature(spec, n), n,
                        m_max=row.m_max)
    for got, want in ((row.gc_n0_mean, gc.n0), (row.gc_n0_over_n, gc.n0 / n),
                      (row.gc_delta_n0, gc.delta_n0)):
        assert abs(got - want) <= rel * abs(want)


def test_row_dict_covers_field_order():
    row = compute_row(SPEC, 100, 0.8)
    d = row.to_dict()
    assert tuple(d) == FIELD_ORDER


# -------------------------------------------------------------------- grid


def test_temperature_grid_basic():
    grid = temperature_grid(0.2, 0.5, 0.1)
    assert grid == pytest.approx([0.2, 0.3, 0.4, 0.5])


def test_temperature_grid_refinement_dedupes():
    grid = temperature_grid(0.8, 1.2, 0.1, refinements=((0.9, 1.1, 0.05),))
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
], ids=["zero-step", "negative-step", "nan-start", "nan-stop", "inf-stop",
        "reversed"])
def test_temperature_grid_checks_its_refinement_patches(patch, match):
    # a patch is a grid of its own and fails the same checks
    with pytest.raises(DomainError, match=match):
        temperature_grid(0.1, 0.3, 0.1, refinements=(patch,))


def test_presets_share_standard_shape():
    for name, preset in PRESETS.items():
        assert preset.particles == (100, 1000, 10_000)
        grid = preset.grid()
        assert len(grid) == 43  # the benchmark's fig1 rows are keyed on these
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(1.4)
        # near-transition refinement present
        assert any(abs(t - 0.97) < 1e-9 for t in grid)
        assert grid == sorted(grid)


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
    # the sweep's only settings are m_max and threads; rows run on the
    # unit-spacing trap
    assert list(inspect.signature(run_sweep).parameters) == [
        "particles", "t_grid", "m_max", "threads"]
    assert run_sweep((20,), [0.5]).meta["workers"] == 1
    assert resolve_settings(["--particles", "20", "--t-over-tc", "0.5:0.5:0.1"]
                            ).threads == 1
    assert resolve_settings(["--particles", "20", "--t-over-tc", "0.5:0.5:0.1",
                             "--threads", "auto"]).threads is None


def test_sweep_thread_count_none_is_one_per_cpu_zero_negative_rejected():
    assert run_sweep((20,), [0.5], threads=None).meta["workers"] == (
        os.cpu_count() or 1)
    for threads in (0, -3, 1.5):
        with pytest.raises(DomainError):
            run_sweep((20,), [0.5], threads=threads)


def test_sweep_thread_count_does_not_change_numbers(small_sweep):
    redo = run_sweep((20, 80, 320), [0.5, 0.8], threads=1)
    for a, b in zip(small_sweep.rows, redo.rows):
        for field in FIELD_ORDER:
            va, vb = getattr(a, field), getattr(b, field)
            if isinstance(va, float):
                if math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb
            else:
                assert va == vb


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


def test_csv_json_outputs_agree(tmp_path, small_sweep):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(small_sweep.rows, csv_path)
    write_json(small_sweep, json_path)

    with open(csv_path, newline="") as fh:
        got_csv = list(csv.DictReader(fh))
    with open(json_path) as fh:
        payload = json.load(fh)

    assert list(got_csv[0]) == list(FIELD_ORDER)
    assert len(got_csv) == len(payload["rows"]) == 6
    assert "meta" in payload
    for crow, jrow in zip(got_csv, payload["rows"]):
        for field in FIELD_ORDER:
            cval, jval = crow[field], jrow[field]
            if field == "error":
                assert cval == (jval or "")
                continue
            cnum = float(cval)
            if jval is None:
                assert math.isnan(cnum)
            else:
                # %.17g survives a float round trip exactly
                assert cnum == float(jval)


def test_numpy_integer_inputs_write_json(tmp_path):
    # particle numbers and level indices reach the output as plain ints,
    # also the top level of a finite ladder
    assert type(compute_row(TrapSpectrum(max_level=np.int64(45)), 20,
                            0.5).m_max) is int
    result = run_sweep([np.int64(20)], [0.5], m_max=np.int64(45))
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.json") as fh:
        payload = json.load(fh)
    assert payload["meta"]["particles"] == [20]
    assert payload["rows"][0]["m_max"] == 45


def test_numpy_config_fields_write_json(tmp_path):
    # settings given as numpy scalars reach the output as plain numbers
    result = run_sweep([20], [0.5], m_max=np.int64(30))
    write_json(result, tmp_path / "out.json")
    with open(tmp_path / "out.json") as fh:
        payload = json.load(fh)
    assert payload["meta"]["m_max"] == 30
    assert type(result.meta["m_max"]) is int
    assert type(canonical_observables(
        SPEC, 5.0, 10, np.int64(30), ground_offset=np.float32(2.5),
        intervals_per_oscillation=np.int64(1)).ground_offset) is float


def test_csv_full_precision_round_trip(tmp_path, small_sweep):
    path = tmp_path / "p.csv"
    write_csv(small_sweep.rows, path)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    for raw, row in zip(got, small_sweep.rows):
        assert float(raw["log_z"]) == row.log_z
        assert float(raw["n0_mean"]) == row.n0_mean


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


def test_cli_format_selection(tmp_path):
    out = tmp_path / "solo"
    code = run_cli(
        "--particles", "30",
        "--t-over-tc", "0.5:0.5:0.1",
        "--out", str(out),
        "--format", "csv",
    )
    assert code == 0
    assert (tmp_path / "solo.csv").exists()
    assert not (tmp_path / "solo.json").exists()


def test_cli_preset_prints_every_channel_fit(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(PRESETS, "fig1",
                        Preset((20, 80, 320), FIT_T, FIT_T, 0.1, refinements=()))
    code = run_cli("--preset", "fig1", "--out", str(tmp_path / "p"))
    assert code == 0
    fits = [line for line in capsys.readouterr().out.splitlines()
            if f" at T/Tc={FIT_T}: N^(" in line]
    assert [line.split()[0] for line in fits] == list(DISCREPANCY_CHANNELS)
    # fit.points counts particle numbers, not decades
    assert all(line.endswith(" from 3 sizes") for line in fits)


def test_cli_rejects_unknown_preset(capsys):
    assert run_cli("--preset", "fig9") == 2
    assert "configuration error: " in capsys.readouterr().err


def test_cli_rejects_malformed_grid():
    assert run_cli("--particles", "10", "--t-over-tc", "0.5:0.9") == 2
    assert run_cli("--particles", "10", "--t-over-tc", "0.9:0.5:0.1") == 2


def test_cli_rejects_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run_cli("--particles", "100", "--t-over-tc", "0.5:0.5:1e-20",
                   "--out", str(out)) == 2
    assert "no points" in capsys.readouterr().err
    assert not (tmp_path / "empty.csv").exists()


def test_cli_rejects_empty_request():
    assert run_cli() == 2


def fail_every_row(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("forced failure", {})

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


def test_cli_validate_passes(capsys):
    code = run_cli("--validate")
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text


# The engine calls of each suite that --validate perturbs, told apart by
# their settings: the oracle suite runs at m_max 20 and 40, the invariance
# suites set one keyword from the probe's default evaluation (whose m_max
# is above 40).
SUITE_CALLS = {
    "oracle_equivalence": lambda c: c.get("m_max") in (20, 40),
    "offset_invariance": lambda c: c.get("ground_offset") is not None,
    "m_max_doubling": lambda c: c.get("m_max") not in (None, 20, 40),
    "grid_refinement": lambda c: c.get("intervals_per_oscillation") == 2,
}


@pytest.mark.parametrize("target, field", [
    *(pytest.param(name, "n0_mean", id=name) for name in sorted(SUITE_CALLS)),
    pytest.param("oracle_equivalence", "log_z_zero_offset",
                 id="oracle_equivalence-log_z"),
])
def test_cli_validate_fails_exactly_the_perturbed_suite(monkeypatch, capsys,
                                                        target, field):
    # a relative 1e-6 error in one field under one suite's config only
    engine = validate.canonical_observables

    def nudged(spectrum, t, n, m_max=None, **keywords):
        res = engine(spectrum, t, n, m_max, **keywords)
        if SUITE_CALLS[target]({"m_max": m_max, **keywords}):
            res = dataclasses.replace(
                res, **{field: getattr(res, field) * (1 + 1e-6)})
        return res

    monkeypatch.setattr(validate, "canonical_observables", nudged)
    assert run_cli("--validate") == 1
    status = dict(line.split()[:2]
                  for line in capsys.readouterr().out.splitlines())
    assert status.pop("validation:") == "FAIL"
    assert status == {name: "FAIL" if name == target else "PASS"
                      for name in (*SUITE_CALLS, "worker_independence")}


@pytest.mark.parametrize("field, value", [
    ("m_max", 10**6), ("error", "DomainError: skewed"), ("delta_n0", math.nan),
])
def test_worker_suite_compares_every_field(monkeypatch, field, value):
    # an int, a string or a NaN that changes with the worker count fails
    # the suite as a changed float does: one differing field, deviation 1
    sweep = validate.run_sweep

    def skewed(particles, t_grid, threads=1):
        result = sweep(particles, t_grid, threads=threads)
        if threads > 1:
            result.rows[1] = dataclasses.replace(result.rows[1],
                                                 **{field: value})
        return result

    monkeypatch.setattr(validate, "run_sweep", skewed)
    suite = validate._worker_independence()
    assert suite.max_deviation == 1.0 and not suite.passed


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep defaults\n"
        "particles = 30\n"
        "t-over-tc = 0.5:0.5:0.1\n"
        "format = json\n"
        f"out = {tmp_path / 'fromfile'}\n"
    )
    code = run_cli("--config", str(cfg))
    assert code == 0
    assert (tmp_path / "fromfile.json").exists()
    assert not (tmp_path / "fromfile.csv").exists()

    # flags win over the file
    code = run_cli("--config", str(cfg), "--format", "csv",
                   "--out", str(tmp_path / "override"))
    assert code == 0
    assert (tmp_path / "override.csv").exists()
    assert not (tmp_path / "override.json").exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("particlez = 30\n")
    assert run_cli("--config", str(cfg)) == 2


def test_resolve_settings_preset_fills_gaps():
    st = resolve_settings(["--preset", "fig1", "--threads", "2"])
    assert list(st.particles) == [100, 1000, 10_000]
    assert st.t_grid is not None and len(st.t_grid) > 20
    st2 = resolve_settings(["--preset", "fig1", "--particles", "7"])
    assert list(st2.particles) == [7]


def test_cli_has_no_tail_flag(capsys):
    # a truncated ladder is a finite TrapSpectrum, not a tail switch
    assert run_cli("--particles", "10", "--t-over-tc", "0.5:0.5:0.1",
                   "--tail", "mb") == 2
    assert "configuration error: " in capsys.readouterr().err
    st = resolve_settings(["--particles", "10", "--t-over-tc", "0.5:0.5:0.1"])
    assert not hasattr(st, "tail")


@pytest.mark.parametrize("flag, value", [
    ("--rel-tol", "1e-10"),
    ("--ground-offset", "1.0"),
    ("--max-n", "60"),
    ("--tolerance", "1e-6"),
])
def test_cli_has_no_quadrature_knob_flags(capsys, flag, value):
    # the early-exit tolerance is a constant, a forced offset is a keyword
    # of canonical_observables for invariance studies, not a sweep setting,
    # and --validate's probes and tolerances are fixed
    assert run_cli("--particles", "30", "--t-over-tc", "0.5:0.5:0.1",
                   flag, value) == 2
    assert "configuration error: " in capsys.readouterr().err


@pytest.mark.parametrize("line, flags", [
    ("t_over_tc = 0.2:0.4:0.1", ["--t-over-tc", "0.2:0.4:0.1"]),
    ("t-over-tc = 0.2:0.4:0.1", ["--t-over-tc", "0.2:0.4:0.1"]),
    ("threads = auto", ["--threads", "auto"]),
    ("strict = yes", ["--strict"]),
    ("strict = no", []),
    ("format = json", ["--format", "json"]),
    ("m-max = 40", ["--m-max", "40"]),
])
def test_config_line_equals_flag(tmp_path, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    # the preset supplies whatever grid the line or flag leaves out
    from_file = vars(resolve_settings(["--preset", "fig1",
                                       "--config", str(cfg)]))
    from_flag = vars(resolve_settings(["--preset", "fig1", *flags]))
    assert from_file.pop("config") == str(cfg)
    assert from_flag.pop("config") is None
    assert from_file == from_flag


@pytest.mark.parametrize("line", [
    "max-n = many",
    "rel-tol = tight",  # a removed flag is an unknown key
    "strict = maybe",
    "config = other.cfg",
    "part = 30",  # a flag prefix is not a key
])
def test_cli_rejects_bad_config_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run_cli("--particles", "20", "--t-over-tc", "0.5:0.6:0.1",
                   "--config", str(cfg)) == 2
    assert "configuration error: " in capsys.readouterr().err
