"""Correctness gate for benchmark rows, run outside the timed region.

A row fails the gate when any of these holds:

  * it carries an error or has converged != 1;
  * it has no stored reference, or one of REFERENCE_FIELDS differs from
    the stored value by more than REFERENCE_RTOL relative (NaN must meet
    NaN);
  * for N = ORACLE_N, n0_mean or n1_mean differs by more than ORACLE_RTOL
    relative from the exact boson recursion built on the row's m_max with
    the Maxwell-Boltzmann tail closure.

The stored references (reference.json beside this file) were computed by
the engine at the commit that introduced the benchmark. Regenerate them
only when the engine's results are meant to change:

    python3 perfbench/gate.py        # rewrites perfbench/reference.json
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")
REFERENCE_RTOL = 1e-10
ORACLE_RTOL = 1e-8
ORACLE_N = 100

# Observables a row must reproduce. log_z and ground_offset are folded into
# the offset-free log Z, which does not depend on the engine's choice of
# evaluation offset; diagnostics (interval counts, residuals) are not
# results and are recorded as counts instead.
REFERENCE_FIELDS = (
    "t_over_spacing",
    "n0_mean",
    "n0_over_n",
    "delta_n0",
    "normalized_delta_n0",
    "n1_mean",
    "corr_01_normalized",
    "ne_mean",
    "delta_ne",
    "log_z_zero_offset",
    "gc_n0_mean",
    "gc_n0_over_n",
    "gc_delta_n0",
    "fraction_limit",
    "eq10_value",
    "eq12_value",
    "m_max",
)


def row_key(n, t_over_tc) -> str:
    return f"{int(n)}@{float(t_over_tc):.10g}"


def reference_values(row) -> dict:
    d = row.to_dict()
    d["log_z_zero_offset"] = d["log_z"] + d["n"] * d["ground_offset"] / d["t_over_spacing"]
    return {k: d[k] for k in REFERENCE_FIELDS}


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        stored = json.load(fh)["rows"]
    return {key: {k: (math.nan if v is None else v) for k, v in vals.items()}
            for key, vals in stored.items()}


def _rel(a, b) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def oracle_occupations(row):
    """Exact <n0>, <n1> of the model the engine resolved for this row."""
    from bosecanon import TrapSpectrum, recursion_table

    spectrum = TrapSpectrum()
    table = recursion_table(spectrum.with_ground_offset(0.0),
                            row.t_over_spacing, row.n, m_max=row.m_max,
                            tail_closure=True)
    return table.occupation(0.0), table.occupation(spectrum.level_spacing)


def check_row(row, reference: dict) -> list:
    """Reasons this row fails the gate; empty when it passes."""
    if row.error:
        return [f"error: {row.error}"]
    reasons = []
    if row.converged != 1:
        reasons.append("not converged")
    ref = reference.get(row_key(row.n, row.t_over_tc))
    if ref is None:
        reasons.append("no stored reference")
    else:
        got = reference_values(row)
        for name in REFERENCE_FIELDS:
            dev = _rel(float(got[name]), float(ref[name]))
            if not dev <= REFERENCE_RTOL:
                reasons.append(f"{name} off reference by {dev:.3g} relative")
    if row.n == ORACLE_N:
        n0, n1 = oracle_occupations(row)
        for name, exact in (("n0_mean", n0), ("n1_mean", n1)):
            dev = _rel(getattr(row, name), exact)
            if not dev <= ORACLE_RTOL:
                reasons.append(f"{name} off recursion by {dev:.3g} relative")
    return reasons


def check_rows(rows, reference: dict) -> dict:
    """Map of row key to failure reasons, for failing rows only."""
    failures = {}
    for row in rows:
        reasons = check_row(row, reference)
        if reasons:
            failures[row_key(row.n, row.t_over_tc)] = reasons
    return failures


def write_reference(path=REFERENCE_PATH) -> None:
    """Recompute every benchmark row with the engine and store it."""
    from run import WORKLOADS, import_package

    pkg = import_package()
    rows = {}
    for workload in WORKLOADS.values():
        particles, t_grid = workload.inputs(pkg.sweep)
        for n in particles:
            for t in t_grid:
                key = row_key(n, t)
                if key in rows:
                    continue
                row = pkg.compute_row(pkg.TrapSpectrum(), n, t)
                if row.error or row.converged != 1:
                    raise RuntimeError(f"row {key} failed: {row.error}")
                rows[key] = {k: (None if isinstance(v, float) and math.isnan(v) else v)
                             for k, v in reference_values(row).items()}
    with open(path, "w") as fh:
        json.dump({"rtol": REFERENCE_RTOL, "rows": rows}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_reference()
