import csv
import json
import math

import numpy as np
import pytest

from bosecanon import TrapSpectrum, critical_temperature, grand_canonical, sweep
from bosecanon.canonical import ConvergenceError, QuadratureConfig
from bosecanon.cli import FIT_T, main, resolve_settings
from bosecanon.grand_canonical import solve_fugacity
from bosecanon.spectrum import DomainError
from bosecanon.sweep import (
    DISCREPANCY_CHANNELS,
    FIELD_ORDER,
    PRESETS,
    Preset,
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


def test_compute_row_records_failures_instead_of_raising():
    cfg = QuadratureConfig(ground_offset=4000.0)
    row = compute_row(SPEC, 5000, 0.5, cfg)
    assert row.converged == 0
    assert row.error != ""
    assert math.isnan(row.n0_mean)


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


@pytest.mark.parametrize("spec, rel", [
    (SPEC, 0.0),
    (TrapSpectrum(level_spacing=2.0, ground_offset=0.3), 1e-12),
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


def test_presets_share_standard_shape():
    for name, preset in PRESETS.items():
        assert preset.particles == (100, 1000, 10_000)
        grid = preset.grid()
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
    assert run_sweep((20,), [0.5]).meta["workers"] == 1
    assert resolve_settings(["--particles", "20", "--t-over-tc", "0.5:0.5:0.1"]
                            ).threads == 1
    assert resolve_settings(["--particles", "20", "--t-over-tc", "0.5:0.5:0.1",
                             "--threads", "auto"]).threads is None


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


def test_fit_scaling_recovers_exponent(small_sweep):
    # the grand-canonical condensate mismatch shrinks roughly like 1/N
    fit = fit_scaling(small_sweep.rows, "gc_discrepancy", 0.5)
    assert fit.points == 3
    assert -1.6 < fit.exponent < -0.7
    assert math.isfinite(fit.stderr)


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
    code = run_cli("--validate", "--max-n", "25")
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text


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
])
def test_cli_has_no_quadrature_knob_flags(capsys, flag, value):
    # the early-exit tolerance is a constant and a forced offset is a
    # QuadratureConfig field for invariance studies, not a sweep setting
    assert run_cli("--particles", "30", "--t-over-tc", "0.5:0.5:0.1",
                   flag, value) == 2
    assert "configuration error: " in capsys.readouterr().err


@pytest.mark.parametrize("line, flags", [
    ("t_over_tc = 0.2:0.4:0.1", ["--t-over-tc", "0.2:0.4:0.1"]),
    ("t-over-tc = 0.2:0.4:0.1", ["--t-over-tc", "0.2:0.4:0.1"]),
    ("threads = auto", ["--threads", "auto"]),
    ("strict = yes", ["--strict"]),
    ("strict = no", []),
    ("max_n = 25", ["--max-n", "25"]),
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
