"""Parameter sweeps over (N, T/Tc): ensemble comparison tables and fits.

One SweepRow per grid point carries the canonical observables, their
grand-canonical counterparts at the same mean number, the limiting
estimates, engine diagnostics and the row's cost, with temperatures in
both T/Tc and trap units and occupations both absolute and N-normalised.
A bad N or T/Tc is refused before the first row; a row the engine
refuses or fails on becomes an error record instead of crashing the
sweep.

Rows are independent work items; each is computed sequentially inside
one worker, so results are bit-identical for any worker count. A
temperature grid is start:stop:step, and a preset merges its patches: the
one preset, fig1, is the reference figures' particle numbers on
0.1:1.4:0.05 and 0.9:1.1:0.01, finer where the curves move fastest.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .asymptotics import (
    condensate_fraction_limit,
    correlation_limit,
    delta_n0_fraction_limit,
)
from .canonical import ConvergenceError, canonical_observables
# solve_fugacity is not called here: rows take their grand-canonical
# columns from CanonicalResult.gc_state, and its cost from the row's own
# columns. The name stays only because the benchmark tracer
# (perfbench/spans.py) patches sweep.solve_fugacity, until ROADMAP item 1d
# has it read the rows instead.
from .grand_canonical import solve_fugacity  # noqa: F401
from .spectrum import (DomainError, TrapSpectrum, _finite_real, _integer,
                       critical_temperature)

__all__ = [
    "SweepRow",
    "SweepResult",
    "Preset",
    "PRESETS",
    "ScalingFit",
    "compute_row",
    "run_sweep",
    "fit_scaling",
    "temperature_grid",
    "write_csv",
    "write_json",
    "FIELD_ORDER",
]


@dataclass(frozen=True)
class SweepRow:
    """One (N, T/Tc) grid point; float fields are NaN when unpopulated.

    delta_n0_rel_error, delta_ne_rel_error and corr_01_rel_error are the
    engine's estimates of the relative error of delta_n0 (which
    normalized_delta_n0 shares), delta_ne and corr_01_normalized: each a
    second moment minus a product of means, which loses digits to that
    difference (canonical's module doc, Error estimate; README, Known
    limits). Tier-1 holds every row it checks within them.

    The last five columns before `converged` are the row's cost, copied
    from the engine, and no part of its value (left out of equality and
    repr): solve_evals, the fugacity solve's mean-number sums
    (GrandCanonicalState.evaluations); points_evaluated, the integrand
    points computed; and the wall times solve_s, integrand_s and moments_s
    of CanonicalResult. An error row keeps 0 and NaN there. The levels are
    m_max + 1.
    """

    n: int
    t_over_tc: float
    t_over_spacing: float = math.nan
    n0_mean: float = math.nan
    n0_over_n: float = math.nan
    delta_n0: float = math.nan
    normalized_delta_n0: float = math.nan
    n1_mean: float = math.nan
    corr_01_normalized: float = math.nan
    ne_mean: float = math.nan
    delta_ne: float = math.nan
    delta_n0_rel_error: float = math.nan
    delta_ne_rel_error: float = math.nan
    corr_01_rel_error: float = math.nan
    log_z: float = math.nan
    gc_n0_mean: float = math.nan
    gc_n0_over_n: float = math.nan
    gc_delta_n0: float = math.nan
    fraction_limit: float = math.nan
    eq10_value: float = math.nan
    eq12_value: float = math.nan
    m_max: int = 0
    intervals_evaluated: int = 0
    intervals_total: int = 0
    ground_offset: float = math.nan
    solve_evals: int = field(default=0, compare=False, repr=False)
    points_evaluated: int = field(default=0, compare=False, repr=False)
    solve_s: float = field(default=math.nan, compare=False, repr=False)
    integrand_s: float = field(default=math.nan, compare=False, repr=False)
    moments_s: float = field(default=math.nan, compare=False, repr=False)
    converged: int = 0
    error: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# Column order of the CSV and JSON output.
FIELD_ORDER = tuple(f.name for f in fields(SweepRow))
# A row's cost columns, the fields left out of its equality; the meta sums
# them over the rows without error.
COST_FIELDS = tuple(f.name for f in fields(SweepRow) if not f.compare)
# The spread columns' error estimates; the meta holds each one's worst value
# over the rows without error.
ERROR_FIELDS = ("delta_n0_rel_error", "delta_ne_rel_error",
                "corr_01_rel_error")


@dataclass(frozen=True)
class SweepResult:
    rows: list
    meta: dict

    @property
    def failed_rows(self) -> list:
        return [r for r in self.rows if r.error]


def compute_row(spectrum: TrapSpectrum, n: int, t_over_tc: float) -> SweepRow:
    """Evaluate one grid point on the automatic ladder (auto_m_max). A bad
    N or T/Tc is a DomainError naming the value as given; the row stores
    the int and the positive, finite float the input rules return. The
    engine's refusal of that point (level cap, level-1 rule, cost guard)
    or its ConvergenceError becomes the row's error record."""
    n = _integer("particle number", n, 1)
    t_over_tc = _finite_real("t_over_tc", t_over_tc)
    t = t_over_tc * critical_temperature(spectrum, n)
    try:
        r = canonical_observables(spectrum, t, n)
        gc = r.gc_state
    except (ConvergenceError, DomainError) as err:
        return SweepRow(n=n, t_over_tc=t_over_tc, t_over_spacing=t,
                        error=f"{type(err).__name__}: {err}")
    below = t_over_tc < 1.0
    return SweepRow(
        n=n,
        t_over_tc=t_over_tc,
        t_over_spacing=t,
        n0_mean=r.n0_mean,
        n0_over_n=r.n0_mean / n,
        delta_n0=r.delta_n0,
        normalized_delta_n0=r.delta_n0
        / math.sqrt(r.n0_mean * (r.n0_mean + 1.0)),
        n1_mean=r.n1_mean,
        corr_01_normalized=r.covariance_n0_n1 / (r.n0_mean * r.n1_mean),
        ne_mean=r.ne_mean,
        delta_ne=r.delta_ne,
        delta_n0_rel_error=r.delta_n0_rel_error,
        delta_ne_rel_error=r.delta_ne_rel_error,
        corr_01_rel_error=r.corr_01_rel_error,
        log_z=r.log_z,
        gc_n0_mean=gc.n0,
        gc_n0_over_n=gc.n0 / n,
        gc_delta_n0=gc.delta_n0,
        fraction_limit=condensate_fraction_limit(t_over_tc),
        eq10_value=delta_n0_fraction_limit(n, t_over_tc) if below else math.nan,
        eq12_value=correlation_limit(n, t_over_tc) if below else math.nan,
        m_max=r.m_max,
        intervals_evaluated=r.intervals_evaluated,
        intervals_total=r.intervals_total,
        ground_offset=r.ground_offset,
        solve_evals=gc.evaluations,
        points_evaluated=r.points_evaluated,
        solve_s=r.solve_s,
        integrand_s=r.integrand_s,
        moments_s=r.moments_s,
        converged=1,
    )


# Points allowed in one start:stop:step grid or preset patch (fig1: 27, 21).
MAX_GRID_POINTS = 10**5


def temperature_grid(start: float, stop: float, step: float) -> list:
    """The start:stop:step grid, stop included, points rounded to 10 digits
    and sorted; Preset.grid() merges several. A DomainError when it is empty,
    has over MAX_GRID_POINTS points (counted before any array is built: the
    CLI's exit 2), has a start that rounds to 0.0 (below 5e-11), or has a
    step so fine that rounding merges points."""
    step = _finite_real("grid step", step)
    stop = _finite_real("grid stop", stop)
    start = _finite_real("grid start", start)
    if stop < start:
        raise DomainError(f"grid stop {stop} lies below its start {start}")
    # np.arange's own count, ceil of this quotient; inf for a subnormal step
    count = (stop + 0.5 * step - start) / step
    if count > MAX_GRID_POINTS:
        raise DomainError(f"grid {start}:{stop}:{step} has {count:.3g} points,"
                          f" more than the {MAX_GRID_POINTS} a grid may have")
    raw = np.arange(start, stop + 0.5 * step, step)
    pts = sorted({round(float(p), 10) for p in raw})
    if not pts:
        raise DomainError(f"grid {start}:{stop}:{step} has no points")
    if pts[0] == 0.0:
        raise DomainError(f"grid start {start} rounds to 0.0 at 10 digits;"
                          " a temperature must be positive")
    if len(pts) < raw.size:  # only a step of about 1e-10 or less merges
        raise DomainError(f"grid step {step} is too fine for 10-digit points:"
                          f" {raw.size} points round to {len(pts)}")
    return pts


@dataclass(frozen=True)
class Preset:
    """Particle numbers, and the (start, stop, step) grids grid() merges."""

    particles: tuple
    patches: tuple

    def grid(self) -> list:
        return sorted({t for p in self.patches for t in temperature_grid(*p)})


# The reference figures' grid: three N decades, a finer patch around Tc.
PRESETS = {"fig1": Preset((100, 1000, 10_000),
                          ((0.1, 1.4, 0.05), (0.9, 1.1, 0.01)))}


def run_sweep(particles, t_grid, threads: int = 1) -> SweepResult:
    """Evaluate the full (N, T/Tc) grid on the unbounded ladder
    (TrapSpectrum()), rows in deterministic order; the level spacing is the
    unit of temperature (meta["level_spacing"] = 1.0). A row is fixed by
    N and T/Tc alone: each resolves its levels with auto_m_max.

    A count that is not a whole number >= 1, None included, is a
    DomainError, and so is a T/Tc that is not a real number with a
    positive, finite double (None, a string, a bool, an array, NaN, 0, -1,
    10**400) or an empty particle list or temperature grid; all are refused
    before the first row. meta["t_grid"] holds the floats the rows use,
    meta["totals"] the sum of each cost column (COST_FIELDS) over the rows
    without error, and meta["worst_rel_error"] the largest of each error
    estimate (ERROR_FIELDS) over them, NaN when no row converged.

    threads > 1 computes that many rows at once on worker threads, the
    same rows bit for bit. It is not a user setting, because it does not
    pay: rows hand the GIL back and forth between numpy's array calls. On
    a 2-vCPU x86 host the fig1 rows took 5.2-5.5 s wall on one thread and
    4.9-5.0 s on two, for 6.9-7.1 s user and 1.05-1.19 s system time
    against 5.1-5.4 s and 0.08-0.11 s, and 160k-173k voluntary context
    switches against 0-1 (resource.getrusage on the process). Only the
    benchmark's fig1_threads workload (perfbench/run.py) sets it above 1;
    the option goes once that workload is dropped (ROADMAP.md, item 1c).
    A serial sweep, the command line's included, never imports the thread
    pool: concurrent.futures, and with it logging, queue and traceback,
    load only when threads > 1. On that host this took the benchmark's
    median peak RSS from 35.70 to 35.37 MB on fig1_serial and from 35.35
    to 34.94 MB on large_n (ten runs each, --seed 1 --seconds 10).
    """
    workers = _integer("threads", threads, 1)
    spectrum = TrapSpectrum()
    particles = [_integer("particle number", n, 1) for n in particles]
    t_grid = [_finite_real("t_over_tc", t) for t in t_grid]
    if not (particles and t_grid):
        raise DomainError("a sweep needs at least one particle number and "
                          "one temperature")
    points = [(n, t) for n in particles for t in t_grid]
    started = time.perf_counter()
    if workers == 1:
        rows = [compute_row(spectrum, n, t) for n, t in points]
    else:
        # imported here: a serial sweep never loads the thread pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(compute_row, spectrum, n, t)
                       for n, t in points]
            rows = [f.result() for f in futures]
    meta = {
        "version": __version__,
        "workers": workers,
        "particles": particles,
        "t_grid": t_grid,
        "level_spacing": spectrum.level_spacing,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "failed_rows": sum(1 for r in rows if r.error),
        "totals": {k: sum(getattr(r, k) for r in rows if not r.error)
                   for k in COST_FIELDS},
        "worst_rel_error": {k: max((getattr(r, k) for r in rows
                                    if not r.error), default=math.nan)
                            for k in ERROR_FIELDS},
    }
    return SweepResult(rows=rows, meta=meta)


# Named discrepancy channels for the scaling fits: each maps a row to the
# fractional gap whose decay with N is being measured.
def _gap_to_limit(row: SweepRow) -> float:
    # no condensate limit at or above Tc: NaN skips the row
    if row.fraction_limit == 0.0:
        return math.nan
    return abs(row.fraction_limit - row.n0_over_n) / row.fraction_limit


def _gap_gc(row: SweepRow) -> float:
    return abs(row.gc_n0_over_n - row.n0_over_n) / row.gc_n0_over_n


def _gap_eq10(row: SweepRow) -> float:
    return abs(row.delta_n0 / row.n0_mean - row.eq10_value) / row.eq10_value


def _gap_eq12(row: SweepRow) -> float:
    return abs(row.corr_01_normalized - row.eq12_value) / abs(row.eq12_value)


DISCREPANCY_CHANNELS = {
    "n0_limit_gap": _gap_to_limit,
    "gc_discrepancy": _gap_gc,
    "delta_n0_eq10_gap": _gap_eq10,
    "corr_eq12_gap": _gap_eq12,
}


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    stderr: float
    points: int


def fit_scaling(rows, observable: str, t_over_tc: float) -> ScalingFit:
    """Least-squares slope of log(discrepancy) against log(N) at fixed T/Tc."""
    try:
        channel = DISCREPANCY_CHANNELS[observable]
    except KeyError:
        raise DomainError(
            f"unknown observable {observable!r}; "
            f"choose from {sorted(DISCREPANCY_CHANNELS)}"
        ) from None
    t_over_tc = _finite_real("t_over_tc", t_over_tc)
    selected = {}
    for row in rows:
        if row.error or abs(row.t_over_tc - t_over_tc) > 1e-9:
            continue
        value = channel(row)
        if math.isfinite(value) and value > 0:
            selected[row.n] = value
    if len(selected) < 3:
        raise DomainError(
            f"need at least 3 particle numbers at t_over_tc={t_over_tc}, "
            f"have {len(selected)}"
        )
    x = np.log([float(n) for n in sorted(selected)])
    y = np.log([selected[n] for n in sorted(selected)])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return ScalingFit(exponent=float(slope), stderr=se, points=len(x))


def write_csv(rows, path) -> None:
    """One row per grid point, every field; a float is written as its
    shortest text that reads back to the same double, as in the JSON."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_ORDER)
        for row in rows:
            d = row.to_dict()
            writer.writerow([d[k] for k in FIELD_ORDER])


def write_json(result: SweepResult, path) -> None:
    """Rows plus meta, as RFC 8259 JSON: a non-finite float, in a row field
    or anywhere in the meta (its t_grid, totals or worst_rel_error), becomes
    null (the CSV spells it 'nan'), and the dump refuses to write a bare NaN
    or Infinity token."""
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, list):
            return [clean(x) for x in v]
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        return v

    payload = clean({"meta": result.meta,
                     "rows": [r.to_dict() for r in result.rows]})
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")
