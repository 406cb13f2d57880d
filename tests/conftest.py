import csv
import dataclasses
import functools
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from bosecanon import canonical


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
    Call = KernelCall  # lets a replacement name its own call's intervals

    def __init__(self, replacement=None):
        super().__init__(canonical, "projection_chunk", replacement)

    def record(self, args, kwargs, result):
        return KernelCall(args, *(array.copy() for array in result))


@pytest.fixture(scope="session")
def recorder():
    return Recorder


@pytest.fixture(scope="session")
def kernel_recorder():
    return KernelRecorder


@pytest.fixture(scope="session")
def raw_moments():
    """The six sums the quadrature takes, <n0>, <n0^2>, <n1>, <n0 n1>,
    <N_ex> and <N_ex^2>, rebuilt from a CanonicalResult's means and centred
    fields. Checks that hold the engine to another evaluation compare these:
    the centred fields carry the cancellation's noise (README, Known
    limits), which a direct comparison would measure instead."""
    def moments(res) -> dict:
        n0, n1, ne = res.n0_mean, res.n1_mean, res.ne_mean
        return {"<n0>": n0, "<n0^2>": res.n0_variance + n0 ** 2, "<n1>": n1,
                "<n0 n1>": res.covariance_n0_n1 + n0 * n1, "<N_ex>": ne,
                "<N_ex^2>": res.ne_variance + ne ** 2}

    return moments


@pytest.fixture(scope="session")
def at_offset():
    """canonical_observables(spectrum, t, n) evaluated at the offset eps
    instead of the saddle. The engine's one fugacity solve is patched to
    return the real state with relative fugacity exp(-eps/T), so the engine
    takes eps0 = -mu, eps up to one exp and log; gc_state is that state."""
    solve = canonical.solve_fugacity

    def evaluate(spectrum, t, n, eps):
        def forced(*args, **kwargs):
            state = solve(*args, **kwargs)
            return dataclasses.replace(
                state, relative_fugacity=math.exp(-eps / state.t))

        with Recorder(canonical, "solve_fugacity", forced):
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate


@pytest.fixture(scope="session")
def on_doubled_grid():
    """canonical_observables(spectrum, t, n) on twice the intervals: the
    engine's grid rule, canonical._half_interval_count, is patched to return
    twice its count."""
    count = canonical._half_interval_count

    def evaluate(spectrum, t, n):
        with Recorder(canonical, "_half_interval_count",
                      lambda *args: 2 * count(*args)):
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate


# log Z, n0, Var(n0), n1 and cov(n0, n1) of the model: from the recursion in
# long double (tests/longdouble_truth.py), and past its cap from one FFT of
# P(n0) (tests/fft_agreement.py), a second method, not an exact truth.
DATA = Path(__file__).parent / "data"
REFERENCE_FILES = {"longdouble": DATA / "longdouble_truth.csv",
                   "fft": DATA / "fft_agreement.csv"}
# The rows CI's large-N step holds to truth() (10 s of engine time).
LARGE_N_CI = ((1_000_000, 0.3), (1_000_000, 0.5))


class Row(NamedTuple):
    """A row of a reference (longdouble, fft, truth or closed_form): ladder
    (auto, m_max=M or max_level=M), N, and T/Tc or else T in spacings."""
    reference: str
    ladder: str
    n: int
    t_over_tc: Optional[float]
    t: Optional[float] = None


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


def reference_rows(reference):
    """A reference file's rows by (N, T/Tc), each on the unbounded ladder."""
    return {(int(r["n"]), float(r["t_over_tc"])): r
            for r in _csv_rows(REFERENCE_FILES[reference]) if r["t_over_tc"]}


def sweep_columns(row, want):
    """{column: (engine value, reference value)} for every column of a sweep
    row (a mapping: SweepRow.to_dict() or a row of the JSON output) that a
    reference's log_z, n0, n0_variance, n1 and covariance_n0_n1 fix."""
    log_z, n0, var, n1, cov = (float(want[k]) for k in (
        "log_z", "n0", "n0_variance", "n1", "covariance_n0_n1"))
    spread = math.sqrt(var)
    return {"n0_mean": (row["n0_mean"], n0), "n1_mean": (row["n1_mean"], n1),
            "ne_mean": (row["ne_mean"], row["n"] - n0),
            "log_z_zero_offset": (row["log_z"] + row["n"]
                                  * row["ground_offset"]
                                  / row["t_over_spacing"], log_z),
            "delta_n0": (row["delta_n0"], spread),
            "normalized_delta_n0": (row["normalized_delta_n0"],
                                    spread / math.sqrt(n0 * (n0 + 1.0))),
            "delta_ne": (row["delta_ne"], spread),
            "corr_01_normalized": (row["corr_01_normalized"],
                                   cov / (n0 * n1))}


def relative_gaps(row, pairs, held=None):
    """Each column's relative gap |got - want|/|want| (log Z's over
    max(1, |log Z|)), and a message for each held column (by default all)
    whose gap exceeds its known-defect bound, else 1e-10 (log Z: 1e-12)."""
    gaps, misses = {}, []
    for column, (got, want) in pairs.items():
        log_z = column == "log_z_zero_offset"
        gaps[column] = abs(got - want) / (max(1.0, abs(want)) if log_z
                                          else abs(want))
        bound = known_defects().get((row, column), 1e-12 if log_z else 1e-10)
        if (held is None or column in held) and not gaps[column] <= bound:
            misses.append(f"{column} at {row} {gaps[column]:.2e} > "
                          f"{bound:.0e}")
    return gaps, misses
