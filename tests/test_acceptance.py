"""End-to-end release gate.

Each test covers one numbered check, or rows against the long-double
truth file or the FFT agreement file, and emits a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
The bounds are asserted, so a plain pytest run fails loudly as well.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bosecanon import TrapSpectrum, critical_temperature
from bosecanon.asymptotics import (
    DELTA_N0_PREFACTOR,
    InteractionParams,
    damping_crossover,
)
from bosecanon.canonical import canonical_observables
from bosecanon.oracle import enumerate_exact, recursion_table, truth
from bosecanon.spectrum import ZETA3
from bosecanon.sweep import (DISCREPANCY_CHANNELS, PRESETS, compute_row,
                             fit_scaling, run_sweep)

SPEC = TrapSpectrum()


def _gate(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def standard_sweep():
    preset = PRESETS["fig1"]
    result = run_sweep(preset.particles, preset.grid())
    assert result.failed_rows == []
    return result


def _rows_at(result, t):
    return {r.n: r for r in result.rows if abs(r.t_over_tc - t) < 1e-9}


# 1 ------------------------------------------------------------------------


def _occupation_at(table, energy, t, n):
    # survival-probability sum over the prefix of the recursion ladder
    k = np.arange(1, n + 1)
    return float(
        np.exp(-k * energy / t + table.log_z[n - k] - table.log_z[n]).sum()
    )


def test_01_recursion_equivalence_full_grid():
    temps = (0.5, 2.0, 5.0, 10.0)
    ladders = (20, 40)
    bound = 1e-8
    started = time.perf_counter()
    worst = 0.0
    for t in temps:
        for m in ladders:
            ladder = TrapSpectrum(max_level=m)  # truncated: no tail
            table = recursion_table(ladder, t, 100)
            prev = 0.0  # log Z(0)
            for n in range(1, 101):
                res = canonical_observables(ladder, t, n)
                got_ratio = math.exp(res.log_z_zero_offset - prev)
                want_ratio = math.exp(table.log_z[n] - table.log_z[n - 1])
                prev = res.log_z_zero_offset
                dev = abs(got_ratio - want_ratio) / want_ratio
                n0 = _occupation_at(table, 0.0, t, n)
                n1 = _occupation_at(table, 1.0, t, n)
                dev = max(dev, abs(res.n0_mean - n0) / n0)
                dev = max(dev, abs(res.n1_mean - n1) / max(n1, 1e-300))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    _gate(
        "1",
        worst <= bound and elapsed <= 60.0,
        f"integral vs recursion over 800 (N,T,M) points: max rel dev "
        f"{worst:.3e} (bound {bound:.0e}), {elapsed:.1f}s (budget 60s)",
    )


# 2 ------------------------------------------------------------------------


def test_02_enumeration_equivalence_two_level(raw_moments):
    bound = 1e-12
    worst = 0.0
    spec = TrapSpectrum(max_level=1)
    energies = [0.0, 1.0, 1.0, 1.0]
    for t in (1.2 / 0.9, 0.8 / 1.7):
        for n in (1, 2, 3, 4):
            exact = enumerate_exact(energies, t, n)
            res = canonical_observables(spec, t, n)
            raw = raw_moments(res)
            pairs = (
                (raw["<n0>"], exact.mean[0]),
                (raw["<n0^2>"], exact.second[0]),
                (raw["<n1>"], exact.mean[1]),
                (raw["<n0 n1>"], exact.cross[0, 1]),
            )
            for got, want in pairs:
                if want == 0.0:
                    worst = max(worst, abs(got))
                else:
                    worst = max(worst, abs(got - want) / abs(want))
            log_z = math.log(exact.z)
            worst = max(worst, abs(res.log_z_zero_offset - log_z)
                        / max(1.0, abs(log_z)))
    _gate(
        "2",
        worst <= bound,
        f"four moments and log Z vs brute-force enumeration (N<=4, two "
        f"levels): max rel dev {worst:.3e} (bound {bound:.0e})",
    )


# 3 ------------------------------------------------------------------------


def test_03_condensate_fraction_curves(standard_sweep):
    rows = standard_sweep.rows
    in_range = all(0.0 < r.n0_over_n < 1.0 for r in rows)
    from_below = True
    for t in (0.8, 0.85, 0.9):
        at = _rows_at(standard_sweep, t)
        limit = 1.0 - t**3
        seq = [at[n].n0_over_n for n in (100, 1000, 10000)]
        from_below &= seq[0] < seq[1] < seq[2] < limit
    fit = fit_scaling(rows, "n0_limit_gap", 0.6)
    in_band = abs(fit.exponent - (-0.33)) <= 0.1
    _gate(
        "3",
        in_range and from_below and in_band,
        f"N0/N curves in (0,1): {in_range}; monotone approach to 1-t^3 from "
        f"below near the transition: {from_below}; gap exponent at t=0.6: "
        f"{fit.exponent:+.3f} (band -0.33 +- 0.1)",
    )


# 4 ------------------------------------------------------------------------


def test_04_grand_canonical_gap_scaling(standard_sweep):
    rows = standard_sweep.rows
    exps = {}
    for t in (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8):
        exps[t] = fit_scaling(rows, "gc_discrepancy", t).exponent
    ok = all(abs(e - (-1.15)) <= 0.15 for e in exps.values())
    lo, hi = min(exps.values()), max(exps.values())
    _gate(
        "4",
        ok,
        f"(N0_gc - N0_c)/N0_gc exponent over t in [0.4, 0.8]: "
        f"{lo:+.3f}..{hi:+.3f} (band -1.15 +- 0.15)",
    )


# 5 ------------------------------------------------------------------------


def test_05_fluctuation_tracks_closed_form(standard_sweep):
    gap = DISCREPANCY_CHANNELS["delta_n0_eq10_gap"]
    window = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    tracks = True
    shrink = True
    for t in window:
        at = _rows_at(standard_sweep, t)
        tracks &= gap(at[10000]) < 0.75
        if t <= 0.8:  # the transition edge itself is smeared at small N
            shrink &= gap(at[100]) > gap(at[1000]) > gap(at[10000])
    fit = fit_scaling(standard_sweep.rows, "delta_n0_eq10_gap", 0.5)
    in_band = abs(fit.exponent - (-0.25)) <= 0.1
    # normalized fluctuation saturates above the transition, dies below it
    sat = all(
        _rows_at(standard_sweep, t)[n].normalized_delta_n0 > 0.95
        for t in (1.2, 1.3, 1.4)
        for n in (100, 1000, 10000)
    )
    low = _rows_at(standard_sweep, 0.3)
    dies = all(low[n].normalized_delta_n0 < 0.1 for n in (100, 1000, 10000))
    dies &= (
        low[100].normalized_delta_n0
        > low[1000].normalized_delta_n0
        > low[10000].normalized_delta_n0
    )
    _gate(
        "5",
        tracks and shrink and in_band and sat and dies,
        f"relative condensate fluctuation follows the closed form over "
        f"t in [0.3, 0.9] (tracks {tracks}, shrinks with N {shrink}); "
        f"gap exponent at t=0.5: {fit.exponent:+.3f} (band -0.25 +- 0.1); "
        f"normalized form -> 1 above the transition ({sat}) and -> 0 below "
        f"({dies})",
    )


# 6 ------------------------------------------------------------------------


def test_06_cross_correlation_tracks_closed_form(standard_sweep):
    below = [r for r in standard_sweep.rows if r.t_over_tc <= 0.9]
    positive = all(-r.corr_01_normalized > 0.0 for r in below)
    fit = fit_scaling(standard_sweep.rows, "corr_eq12_gap", 0.5)
    in_band = abs(fit.exponent - (-0.33)) <= 0.1
    _gate(
        "6",
        positive and in_band,
        f"-<dn0 dn1>/(N0 N1) positive on {len(below)} rows below the "
        f"transition: {positive}; gap exponent at t=0.5: {fit.exponent:+.3f} "
        f"(band -0.33 +- 0.1)",
    )


# rows against the long-double truth and the FFT agreement file ------------

# log Z, <n0>, Var(n0), <n1> and <n0 n1> of the model, from the recursion
# run in long double (tests/longdouble_truth.py writes the file).
LONGDOUBLE_TRUTH = Path(__file__).parent / "data" / "longdouble_truth.csv"
# The same five values past the recursion's cap, from one FFT of P(n0)
# (tests/fft_agreement.py): a second method on the engine's model, not an
# exact truth.
FFT_AGREEMENT = Path(__file__).parent / "data" / "fft_agreement.csv"

# The spread columns where they miss 1e-10 of the file, a known defect:
# each is a second moment minus a product of means and loses digits to the
# cancellation (README, Known limits), delta_n0 below Tc and delta_ne at
# and above it. The bound is the row's measured gap, rounded up to one
# digit. normalized_delta_n0 inherits delta_n0's error and reads its
# bounds; its measured gaps round to the same digit on every row.
# Centred moments in the engine (ROADMAP item 2) tighten every entry.
SPREAD_DEFECT = {
    "delta_n0": {
        (100, 0.4): 2e-10, (1000, 0.1): 2e-9, (1000, 0.15): 2e-10,
        (1000, 0.2): 9e-10, (1000, 0.25): 3e-10, (1000, 0.3): 2e-10,
        (1000, 0.4): 3e-10, (1000, 0.45): 3e-10, (10000, 0.1): 3e-7,
        (10000, 0.15): 2e-7, (10000, 0.2): 4e-8, (10000, 0.25): 8e-8,
        (10000, 0.3): 4e-8, (10000, 0.35): 4e-9, (10000, 0.4): 3e-8,
        (10000, 0.45): 3e-9, (10000, 0.5): 8e-9, (10000, 0.55): 2e-9,
        (10000, 0.6): 2e-9, (10000, 0.65): 8e-9, (10000, 0.7): 2e-9,
        (10000, 0.75): 4e-9, (10000, 0.8): 3e-9, (10000, 0.85): 2e-10,
        (10000, 0.9): 3e-10, (10000, 0.91): 4e-10, (10000, 0.92): 3e-10,
        (20000, 0.9): 2e-9, (40000, 0.9): 2e-8,
    },
    "delta_ne": {
        (1000, 1.04): 2e-10, (1000, 1.09): 3e-10, (1000, 1.15): 4e-10,
        (1000, 1.2): 3e-10, (1000, 1.25): 6e-10, (1000, 1.35): 8e-10,
        (1000, 1.4): 8e-10, (10000, 0.99): 5e-10, (10000, 1.0): 6e-10,
        (10000, 1.01): 2e-9, (10000, 1.02): 3e-9, (10000, 1.03): 2e-9,
        (10000, 1.04): 6e-9, (10000, 1.05): 5e-10, (10000, 1.06): 2e-9,
        (10000, 1.07): 2e-9, (10000, 1.08): 5e-9, (10000, 1.09): 2e-8,
        (10000, 1.1): 2e-8, (10000, 1.15): 3e-8, (10000, 1.2): 3e-8,
        (10000, 1.25): 5e-8, (10000, 1.3): 2e-7, (10000, 1.35): 2e-7,
        (10000, 1.4): 8e-8, (20000, 1.0): 4e-9, (20000, 1.05): 6e-8,
        (20000, 1.2): 5e-7, (40000, 0.97): 2e-10, (40000, 1.0): 2e-8,
        (40000, 1.05): 2e-7, (40000, 1.2): 7e-7,
    },
    "corr_01_normalized": {(10000, 0.1): 2e-10},
}
SPREAD_DEFECT["normalized_delta_n0"] = SPREAD_DEFECT["delta_n0"]
# The means where they miss 1e-10 of the FFT file, a known defect: the
# engine's quadrature noise in n0 at N = 10^6 near Tc (4.52e-10 measured at
# T/Tc = 0.97, rounded up to one digit as above).
MEAN_DEFECT = {"n0_mean": {(1000000, 0.97): 5e-10}}
KNOWN_DEFECT = {**SPREAD_DEFECT, **MEAN_DEFECT}

# The file's rows at 2x10^4 and 4x10^4 near Tc (0.4 s of engine time).
NEAR_TC_ROWS = [(n, f) for n in (20_000, 40_000)
                for f in (0.9, 0.97, 1.0, 1.05, 1.2)]


def _reference_rows(path):
    """A file's rows on the unbounded ladder given by T/Tc, by (N, T/Tc)."""
    with path.open() as fh:
        return {(int(r["n"]), float(r["t_over_tc"])): r
                for r in csv.DictReader(x for x in fh if not x.startswith("#"))
                if r["t_over_tc"] and not r.get("max_level")
                and not r.get("m_max")}


def _gate_against(tag, what, rows, path, held):
    # every column of a sweep row the file's five values fix, as a relative
    # gap; the held ones within 1e-10, or their KNOWN_DEFECT entry
    exact = _reference_rows(path)
    bound = 1e-10
    worst, misses = {}, []
    for row in rows:
        key = (row.n, row.t_over_tc)
        x = exact[key]
        assert float(x["t"]) == row.t_over_spacing
        n0, var, n1 = (float(x[k]) for k in ("n0", "n0_variance", "n1"))
        log_z = float(x["log_z"])
        spread = math.sqrt(var)
        pairs = {
            "n0_mean": (row.n0_mean, n0),
            "n1_mean": (row.n1_mean, n1),
            "ne_mean": (row.ne_mean, row.n - n0),
            "log_z_zero_offset": (
                row.log_z + row.n * row.ground_offset / row.t_over_spacing,
                log_z),
            "delta_n0": (row.delta_n0, spread),
            "normalized_delta_n0": (row.normalized_delta_n0,
                                    spread / math.sqrt(n0 * (n0 + 1.0))),
            "delta_ne": (row.delta_ne, spread),
            "corr_01_normalized": (row.corr_01_normalized,
                                   float(x["n0_n1"]) / (n0 * n1) - 1.0),
        }
        for name, (got, want) in pairs.items():
            scale = abs(want)
            if name == "log_z_zero_offset":
                scale = max(1.0, scale)
            dev = abs(got - want) / scale
            worst[name] = max(worst.get(name, 0.0), dev)
            allowed = KNOWN_DEFECT.get(name, {}).get(key, bound)
            if name in held and not dev <= allowed:
                misses.append(f"{name} at {key} {dev:.2e} > {allowed:.0e}")
    _gate(
        tag,
        not misses,
        f"{len(rows)} {what}, worst relative gap (bound {bound:.0e}, or the "
        f"row's KNOWN_DEFECT entry, on {', '.join(held)}): "
        + ", ".join(f"{name} {dev:.2e}" for name, dev in worst.items())
        + "".join(f"; {miss}" for miss in misses),
    )


MEANS = ("n0_mean", "n1_mean", "ne_mean", "log_z_zero_offset")
EVERY_COLUMN = (*MEANS, *SPREAD_DEFECT)


def test_fig1_rows_match_the_long_double_truth(standard_sweep):
    fig1 = {(r.n, r.t_over_tc) for r in standard_sweep.rows}
    # every known-defect entry names a row one of the two tests reads
    for entries in SPREAD_DEFECT.values():
        assert set(entries) <= fig1 | set(NEAR_TC_ROWS), entries
    _gate_against("truth", "fig1 rows against the long-double truth",
                  standard_sweep.rows, LONGDOUBLE_TRUTH, EVERY_COLUMN)


def test_near_tc_rows_at_2e4_and_4e4_match_the_long_double_truth():
    rows = [compute_row(SPEC, n, f) for n, f in NEAR_TC_ROWS]
    _gate_against("truth-near-Tc", "rows at N = 2e4, 4e4 near Tc against "
                  "the long-double truth", rows, LONGDOUBLE_TRUTH,
                  EVERY_COLUMN)


def test_rows_at_1e5_agree_with_the_fft_method():
    # the means only: the spread columns carry the known defect (delta_ne
    # is 1.6e-4 off at T/Tc = 2), and are printed
    rows = [compute_row(SPEC, n, f) for n, f in _reference_rows(FFT_AGREEMENT)
            if n == 10**5]
    assert len(rows) == 7
    _gate_against("fft", "rows at N = 1e5 against the FFT method", rows,
                  FFT_AGREEMENT, MEANS)


def test_rows_at_1e6_agree_with_the_fft_method():
    # the means, as at 1e5 (about 4 s of engine time); the spread columns
    # are printed (delta_ne is 0.155 off at T/Tc = 3)
    rows = [compute_row(SPEC, n, f) for n, f in _reference_rows(FFT_AGREEMENT)
            if n == 10**6]
    assert len(rows) == 7
    assert {(r.n, r.t_over_tc) for r in rows} >= set(MEAN_DEFECT["n0_mean"])
    _gate_against("fft-1e6", "rows at N = 1e6 against the FFT method", rows,
                  FFT_AGREEMENT, MEANS)


# 7 ------------------------------------------------------------------------


def test_07_first_excited_state_fugacity_correction():
    n = 1000
    ok = True
    details = []
    for tfrac in (0.3, 0.5):
        t = tfrac * critical_temperature(SPEC, n)
        res = canonical_observables(SPEC, t, n)
        n1_open = 1.0 / math.expm1(1.0 / t)
        scale = t / res.n0_mean  # leading fractional size, spacing units
        # the fixed-N result must sit on the open-system value to within
        # the correction scale ...
        frac_gap = abs(res.n1_mean - n1_open) / n1_open
        ok &= frac_gap <= 2.0 * scale
        # ... and the one-over-N0 fugacity correction itself must carry
        # that leading fractional size, within a factor-2 band
        mu = -t * math.log1p(1.0 / res.n0_mean)
        n1_corrected = 1.0 / math.expm1((1.0 - mu) / t)
        ratio = ((n1_open - n1_corrected) / n1_open) / scale
        ok &= 0.5 <= ratio <= 2.0
        details.append(
            f"t/Tc={tfrac}: gap/scale={frac_gap / scale:.1e}, "
            f"correction/scale={ratio:.2f}"
        )
    _gate(
        "7",
        ok,
        "first-excited occupation vs open-system form at mu=0 (N=1000): "
        + "; ".join(details)
        + " (bands: gap <= 2x scale, correction in [0.5, 2]x scale)",
    )


# 8 ------------------------------------------------------------------------


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _log_z_dev(a, b):
    return abs(a - b) / max(abs(a), 1.0)


def test_08_invariance_suites(raw_moments, at_offset, on_doubled_grid):
    bound = 1e-8
    # each invariance suite's second evaluation at a probe, built from the
    # probe's default result: the offset forced 2 T/sqrt(var) past the
    # saddle, the ladder doubled, the grid doubled
    variations = {
        "offset_invariance": lambda a: at_offset(
            SPEC, a.t, a.n, a.ground_offset
            + 2.0 * a.t / math.sqrt(a.gc_state.number_variance)),
        "m_max_doubling": lambda a: canonical_observables(SPEC, a.t, a.n,
                                                          2 * a.m_max),
        "grid_refinement": lambda a: on_doubled_grid(SPEC, a.t, a.n),
    }
    worst = dict.fromkeys(["oracle_equivalence", *variations], 0.0)
    # the offset-free log Z, n0 and n1 against the recursion (N <= 100)
    for m_max in (20, 40):
        for t in (0.5, 2.0, 5.0, 10.0):
            for n in (1, 2, 7, 25, 100):
                exact = truth(SPEC, t, n, m_max)
                res = canonical_observables(SPEC, t, n, m_max)
                worst["oracle_equivalence"] = max(
                    worst["oracle_equivalence"],
                    _log_z_dev(exact.log_z, res.log_z_zero_offset),
                    _rel(res.n0_mean, exact.n0), _rel(res.n1_mean, exact.n1))
    # three probes straddling the transition, each evaluated once by default
    # and once more per suite with one setting changed, which must leave the
    # six raw moments alone
    probes = [canonical_observables(SPEC, f * critical_temperature(SPEC, n), n)
              for n, f in ((50, 0.5), (100, 0.7), (100, 1.2))]
    for name, vary in variations.items():
        for a in probes:
            b = vary(a)
            worst[name] = max(
                worst[name],
                *(_rel(x, y) for x, y in zip(raw_moments(a).values(),
                                             raw_moments(b).values())),
                _log_z_dev(a.log_z_zero_offset, b.log_z_zero_offset))
    summary = ", ".join(f"{name} {dev:.3e}" for name, dev in worst.items())
    _gate(
        "8",
        max(worst.values()) <= bound,
        f"oracle equivalence and offset/ladder/grid invariance <= "
        f"{bound:.0e}: {summary}",
    )


# 9 ------------------------------------------------------------------------


def test_09_closed_form_spot_values():
    tc = critical_temperature(SPEC, 1000)
    tc_ok = abs(tc - 9.405) <= 1e-3

    want = math.sqrt(math.pi**2 / (6.0 * ZETA3))
    pf_ok = abs(DELTA_N0_PREFACTOR - want) <= 1e-12
    pf_ok &= abs(DELTA_N0_PREFACTOR - 1.16980) <= 1e-4

    # with T a power of two the boundary coupling is exactly representable,
    # so the two damping scales must coincide to the last bit
    t = 32.0
    cross = damping_crossover(t, InteractionParams(t**-2.0))
    cross_ok = cross.ratio == 1.0 and cross.fixed_n_scale == math.sqrt(t**3)

    _gate(
        "9",
        tc_ok and pf_ok and cross_ok,
        f"Tc(1000) = {tc:.5f} (9.405 +- 0.001); fluctuation prefactor "
        f"sqrt(pi^2/(6 zeta(3))) = {DELTA_N0_PREFACTOR:.6f} (arithmetic, "
        f"= 1.16980 +- 1e-4); damping crossover scales equal at the "
        f"boundary coupling: {cross_ok}",
    )
