import csv
import dataclasses
import functools
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from bosecanon import TrapSpectrum, canonical, oracle, sweep
from bosecanon.grand_canonical import (_level_count, _level_ladder,
                                       _level_log_z, _level_variance)
from bosecanon.oracle import Truth, truth
from bosecanon.sweep import PRESETS, compute_row
from longdouble_truth import VALUES


class Recorder:
    """module.name replaced for a with block, each call recorded.

    A call goes through to the original unless a replacement is given: a
    function, called instead, or a plain value (canonical.CHUNK_POINTS),
    set and never called. `calls` holds a record of each call that
    returns, in order: by default its (args, kwargs, result)."""

    def __init__(self, module, name, replacement=None):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.target = self.original if replacement is None else replacement
        self.calls = []

    def record(self, args, kwargs, result):
        return args, kwargs, result

    def __enter__(self):
        def call(*args, **kwargs):
            result = self.target(*args, **kwargs)
            self.calls.append(self.record(args, kwargs, result))
            return result

        setattr(self.module, self.name,
                call if callable(self.target) else self.target)
        return self

    def __exit__(self, *exc_info):
        setattr(self.module, self.name, self.original)


class KernelCall(namedtuple("KernelCall", "args out peak")):
    """One projection_chunk(q, g, n, s_mb, h, i0, i1, nodes, wts, offset)
    call: its arguments, and its output and peaks."""
    i0 = property(lambda self: self.args[5])
    i1 = property(lambda self: self.args[6])
    nodes = property(lambda self: self.args[7])

    def over(self, i0, i1):
        """The same call's arguments on the intervals [i0, i1)."""
        return (*self.args[:5], i0, i1, *self.args[7:])


class KernelRecorder(Recorder):
    """canonical.projection_chunk under a Recorder. Each call is recorded
    as a KernelCall that holds copies of the output and peaks, which the
    engine sums in place."""

    def __init__(self, replacement=None):
        super().__init__(canonical, "projection_chunk", replacement)

    def record(self, args, kwargs, result):
        return KernelCall(args, *(array.copy() for array in result))


def raw_moments(res) -> dict:
    """The six sums the quadrature takes, <n0>, <n0^2>, <n1>, <n0 n1>,
    <N_ex> and <N_ex^2>, rebuilt from a CanonicalResult's means and centred
    fields. Checks that hold the engine to another evaluation compare these:
    the centred fields carry the cancellation's noise (README, Known
    limits), which a direct comparison would measure instead."""
    n0, n1, ne = res.n0_mean, res.n1_mean, res.ne_mean
    return {"<n0>": n0, "<n0^2>": res.n0_variance + n0 ** 2, "<n1>": n1,
            "<n0 n1>": res.covariance_n0_n1 + n0 * n1, "<N_ex>": ne,
            "<N_ex^2>": res.ne_variance + ne ** 2}


def at_offset(spectrum, t, n, eps):
    """canonical_observables(spectrum, t, n) evaluated at the offset eps
    instead of the saddle. The engine's one fugacity solve is patched to
    return the real state with relative fugacity exp(-eps/T), so the engine
    takes eps0 = -mu, eps up to one exp and log; gc_state is that state."""
    solve = canonical.solve_fugacity

    def forced(*args, **kwargs):
        state = solve(*args, **kwargs)
        return dataclasses.replace(
            state, relative_fugacity=math.exp(-eps / state.t))

    with Recorder(canonical, "solve_fugacity", forced):
        return canonical.canonical_observables(spectrum, t, n)


def on_doubled_grid(spectrum, t, n):
    """canonical_observables(spectrum, t, n) on twice the intervals: the
    engine's grid rule, canonical._half_interval_count, is patched to return
    twice its count."""
    count = canonical._half_interval_count
    with Recorder(canonical, "_half_interval_count",
                  lambda *args: 2 * count(*args)):
        return canonical.canonical_observables(spectrum, t, n)


def on_doubled_fft_grid(spectrum, t, n, m_max=None):
    """oracle._fft_truth(spectrum, t, n, m_max) on twice the points: the FFT
    path's grid rule, oracle._fft_grid, is patched to return twice its M."""
    grid = oracle._fft_grid
    with Recorder(oracle, "_fft_grid", lambda *args: 2 * grid(*args)):
        return oracle._fft_truth(spectrum, t, n, m_max)


def demon_forms(spectrum, t, n, m_max=None):
    """Closed forms of the "Maxwell's demon" ensemble (Grossmann & Holthaus,
    PRL 79, 3557 (1997)), as an oracle.Truth, and log10 of the Chernoff
    bound p on P(N_ex > N). The ladder's levels 1..m_max and tail sit at
    unit fugacity and the ground level holds the rest, so cov(n0, n1) =
    -n1(n1 + 1). That ensemble is the canonical one plus the
    configurations with N_ex > N, of weight at most p: it is exact where
    p N^2, that weight on second moments of counts of order N, is below
    1e-12 Var(n0), the smallest value returned."""
    ladder = _level_ladder(spectrum, t, m_max)
    q, g, tail = ladder.boltzmann[1:], ladder.degeneracies[1:], ladder.tail_weight
    # Chernoff: log P(N_ex > N) <= log E[r^N_ex] - N log r, at r = q1^(-1/2)
    r = q[0] ** -0.5
    log_p = ((g * (np.log1p(-q) - np.log1p(-r * q))).sum() + tail * (r - 1.0)
             - n * math.log(r))
    n1 = float(q[0] / (1.0 - q[0]))
    ne = _level_count(q, g, tail)
    return Truth(log_z=_level_log_z(q, g, tail), n0=n - ne,
                 n0_variance=_level_variance(q, g, tail), n1=n1,
                 covariance_n0_n1=-n1 * (n1 + 1.0), ne_mean=ne,
                 source="demon"), float(log_p / math.log(10.0))


def demon_gaps(got, spectrum, t, n, m_max=None):
    """The VALUES of got (a mapping: vars() of a Truth, or a row of the
    long-double file) against the demon forms at (N, T): whether p
    certifies the forms (p N^2 < 1e-12 Var(n0)) and each value's gap
    relative to the form, log Z's too."""
    demon, log10_p = demon_forms(spectrum, t, n, m_max)
    certified = (log10_p + 2.0 * math.log10(n)
                 < math.log10(1e-12 * demon.n0_variance))
    return certified, {name: abs(float(got[name]) - getattr(demon, name))
                       / abs(getattr(demon, name)) for name in VALUES}


class Row(NamedTuple):
    """A row of a reference (longdouble, truth or closed_form): ladder
    (auto, m_max=M or max_level=M), N, and T/Tc or else T in spacings."""
    reference: str
    ladder: str
    n: int
    t_over_tc: Optional[float]
    t: Optional[float] = None


# The long-double file, written by tests/longdouble_truth.py, whose VALUES
# (log Z, n0, Var(n0), n1, cov(n0, n1) and <N_ex>, under oracle.Truth's
# names) are its columns and every reference's.
DATA = Path(__file__).parent / "data"
# The rows held against a reference that is no file: oracle.truth() past
# the recursion's cap, its FFT path, at 10^5 below Tc and at 10^5 and 10^6
# from 0.9 Tc to 3 Tc; and one particle's closed forms. CI's large-N step
# holds LARGE_N_CI to truth() (10 s of engine time).
LISTED_ROWS = [*(Row("truth", "auto", 100_000, f) for f in (0.05, 0.3, 0.8)),
               *(Row("truth", "auto", n, f) for n in (100_000, 1_000_000)
                 for f in (0.9, 0.97, 1.0, 1.05, 1.2, 2.0, 3.0)),
               *(Row("closed_form", "auto", 1, f)
                 for f in (3.0, 30.0, 100.0, 1000.0))]
LARGE_N_CI = [Row("truth", "auto", 1_000_000, f) for f in (0.3, 0.5)]
# The one column map: a sweep row's columns that the values fix, and the
# raw <n0^2> and <n0 n1>; and the estimate each spread column is held to.
# normalized_delta_n0 is held to compute_row's formula on the row's own
# delta_n0 and n0_mean, which the map holds to the reference.
COLUMNS = ("n0_mean", "n1_mean", "ne_mean", "log_z_zero_offset", "delta_n0",
           "normalized_delta_n0", "delta_ne", "corr_01_normalized", "<n0^2>",
           "<n0 n1>")
ESTIMATES = {"delta_n0": "delta_n0_rel_error", "delta_ne": "delta_ne_rel_error",
             "corr_01_normalized": "corr_01_rel_error"}


def _csv_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(x for x in fh if not x.startswith("#")))


@functools.cache
def known_defects():
    """The ledger, {(Row, column): bound}, each bound set as its header says."""
    return {(Row(r["reference"], r["ladder"], int(r["n"]),
                 *(float(r[k]) if r[k] else None for k in ("t_over_tc", "t"))),
             r["column"]): float(r["bound"])
            for r in _csv_rows(DATA / "known_defects.csv")}


@functools.cache
def longdouble_rows():
    """The long-double file's rows, {Row: the file's row}: the ladder from
    its max_level or m_max, and T/Tc or else T."""
    rows = {}
    for r in _csv_rows(DATA / "longdouble_truth.csv"):
        ladder = next((f"{k}={r[k]}" for k in ("max_level", "m_max")
                       if r.get(k)), "auto")
        f = float(r["t_over_tc"]) if r["t_over_tc"] else None
        rows[Row("longdouble", ladder, int(r["n"]), f,
                 float(r["t"]) if f is None else None)] = r
    return rows


# Every held row: the long-double file's rows and the listed rows. The
# fig1 rows fall to test_acceptance, which holds gate 03's sweep rows, and
# every other row to test_canonical's test_engine_matches_its_truth.
HELD = [*longdouble_rows(), *LISTED_ROWS]
FIG1_GRID = set(PRESETS["fig1"].grid())


def fig1(key):
    """True for a held row that gate 03's fig1 sweep computes."""
    return ((key.reference, key.ladder, key.t) == ("longdouble", "auto", None)
            and key.n in PRESETS["fig1"].particles
            and key.t_over_tc in FIG1_GRID)


def model(key):
    """The spectrum and the asked m_max of a row's ladder."""
    kind, _, top = key.ladder.partition("=")
    return (TrapSpectrum(max_level=int(top) if kind == "max_level" else None),
            int(top) if kind == "m_max" else None)


def engine_cells(keys):
    """{Row: sweep_columns} of the engine at each held row: compute_row
    where it can express the row, else compute_row's columns of
    canonical_observables' result (a finite ladder, an asked m_max, a row
    given by T)."""
    cells = {}
    for key in keys:
        if key.ladder == "auto" and key.t is None:
            row = compute_row(TrapSpectrum(), key.n, key.t_over_tc).to_dict()
        else:
            spec, m_max = model(key)
            res = canonical.canonical_observables(spec, key.t, key.n, m_max)
            with Recorder(sweep, "canonical_observables", lambda *_: res):
                row = compute_row(spec, key.n, 1.0).to_dict()
            row["t_over_spacing"] = key.t  # not the T of T/Tc = 1
        cells[key] = sweep_columns(key, row)
    return cells


def sweep_columns(key, row):
    """{column: (engine value, reference value)} on every column of the one
    map at a held row, from the engine's sweep row there (a mapping:
    SweepRow.to_dict() or a row of the JSON output; its T, and its m_max
    for truth()), and a spread column's estimate third: (got, want,
    the row's relative error estimate)."""
    t = row["t_over_spacing"]
    if key.reference == "longdouble":
        x = longdouble_rows()[key]
        assert float(x["t"]) == t, (key, t)
        want = {k: float(x[k]) for k in VALUES}
    elif key.reference == "truth":
        want = vars(truth(TrapSpectrum(), t, key.n, row["m_max"]))
    else:  # one particle, with q = e^(-1/T): Z(1) = (1 - q)^-3,
        # n0 = (1 - q)^3 and n1 = q n0, each 0 or 1 and never both 1
        one_minus_q = -math.expm1(-1.0 / t)
        n0 = one_minus_q ** 3
        n1 = math.exp(-1.0 / t) * n0
        want = {"log_z": -3.0 * math.log(one_minus_q), "n0": n0, "n1": n1,
                "n0_variance": n0 * (1.0 - n0), "covariance_n0_n1": -n0 * n1,
                "ne_mean": 1.0 - n0}
    log_z, n0, var, n1, cov, ne = (want[k] for k in VALUES)
    spread = math.sqrt(var)
    got_n0, got_n1 = row["n0_mean"], row["n1_mean"]
    cells = dict(zip(COLUMNS, [
        (got_n0, n0), (got_n1, n1), (row["ne_mean"], ne),
        (row["log_z"] + row["n"] * row["ground_offset"] / t, log_z),
        (row["delta_n0"], spread),
        (row["normalized_delta_n0"],
         row["delta_n0"] / math.sqrt(got_n0 * (got_n0 + 1.0))),
        (row["delta_ne"], spread),
        (row["corr_01_normalized"], cov / (n0 * n1)),
        (row["delta_n0"] ** 2 + got_n0 ** 2, var + n0 ** 2),
        ((row["corr_01_normalized"] + 1.0) * got_n0 * got_n1, cov + n0 * n1),
    ], strict=True))
    for column, estimate in ESTIMATES.items():
        cells[column] += (row[estimate],)
    return cells


def hold(cells, rule=True):
    """Hold {Row: {column: (got, want) or (got, want, estimate)}} under
    tier-1's one rule: each cell's relative gap |got - want|/|want| (log
    Z's over max(1, |log Z|)), a want of exactly 0.0 skipped, within its
    known-defect bound, else 1e-10 (log Z: 1e-12), and a cell that carries
    the row's error estimate within that too; rule=False holds the
    estimates alone. Returns (True if no cell misses, a report of each
    column's worst gap and largest share of its estimate, and every
    miss)."""
    worst, over, misses = {}, {}, []
    for row, pairs in cells.items():
        for column, (got, want, *estimate) in pairs.items():
            if want == 0.0:
                continue
            log_z = column.startswith("log_z")
            gap = abs(got - want) / (max(1.0, abs(want)) if log_z
                                     else abs(want))
            worst[column] = max(worst.get(column, 0.0), gap)
            bounds = {f"its estimate {e:.2e}": e for e in estimate}
            if estimate:
                over[column] = max(over.get(column, 0.0), gap / estimate[0])
            if rule:
                bound = known_defects().get((row, column),
                                            1e-12 if log_z else 1e-10)
                bounds[f"{bound:.0e}"] = bound
            misses += [f"{column} at {row} {gap:.2e} > {name}"
                       for name, bound in bounds.items() if not gap <= bound]
    return not misses, (
        f"{len(cells)} rows, worst relative gap (bound 1e-10, log Z 1e-12, "
        "or the cell's known-defect entry; a spread also its estimate): "
        + ", ".join(f"{column} {gap:.2e}" for column, gap in worst.items())
        + "".join(f"; {column} {ratio:.2f} of its estimate"
                  for column, ratio in over.items())
        + "".join(f"; {miss}" for miss in misses))
