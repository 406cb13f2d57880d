"""Self-check suites: the engine against its independent references.

This is the package's one self-check (`bosecanon --validate`). Five
suites, each reporting a deviation against a tolerance, the worst
relative one except where said:

  oracle_equivalence   partition ratios and occupations vs the recursion
  offset_invariance    observables and offset-free log Z with the
                       evaluation offset 2 T/sqrt(var) above the saddle
  m_max_doubling       stability under doubling the level truncation
  grid_refinement      stability under a twice denser z-grid
  worker_independence  sweep rows of one and of four workers: the number
                       of fields that differ, NaN matching NaN (must be 0)

The probes are fixed: the oracle suite runs N up to MAX_N within the
recursion's range, the invariance suites three (N, T) points straddling
the transition, and the worker suite three rows at N = 40. The tolerances
are constants as well. The engine meets the references to about 1e-13 on
these probes, so TOLERANCE leaves five decades for rounding while a real
defect (a wrong level, a wrong weight, a missed alias) shows far above it;
worker independence must hold bit for bit. A failing suite is shown by
perturbing a result, not by tightening a tolerance.

The three invariance suites share one saddle result per probe: the
default evaluation a. Each suite makes one more evaluation, with one
keyword of canonical_observables set from a (a forced ground_offset, a
doubled m_max, or intervals_per_oscillation=2), and compares the six
observables and the offset-free log Z, the latter relative to
max(|log Z|, 1). No suite solves a fugacity of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import canonical_observables
from .oracle import recursion_table
from .spectrum import TrapSpectrum, critical_temperature
from .sweep import FIELD_ORDER, run_sweep

__all__ = ["SuiteResult", "ValidationReport", "run_validation"]

# Largest N probed; the oracle's recursion covers it.
MAX_N = 100
TOLERANCE = 1e-8
WORKER_TOLERANCE = 0.0


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    probes: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<22s} {status}  max_dev={self.max_deviation:.3e} "
                f"tol={self.tolerance:.1e} probes={self.probes}")


@dataclass(frozen=True)
class ValidationReport:
    suites: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def lines(self) -> list:
        out = [s.line() for s in self.suites]
        out.append("validation: " + ("PASS" if self.passed else "FAIL"))
        return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _oracle_equivalence(spectrum) -> SuiteResult:
    worst = 0.0
    probes = 0
    for m_max in (20, 40):
        for t in (0.5, 2.0, 5.0, 10.0):
            t_abs = t * spectrum.level_spacing
            for n in (1, 2, 7, 25, MAX_N):
                table = recursion_table(spectrum, t_abs, n, m_max=m_max,
                                        tail_closure=True)
                r = canonical_observables(spectrum, t_abs, n, m_max)
                if n >= 2:
                    prev = canonical_observables(spectrum, t_abs, n - 1, m_max)
                    ratio_engine = math.exp(r.log_z_zero_offset
                                            - prev.log_z_zero_offset)
                else:
                    ratio_engine = math.exp(r.log_z_zero_offset)
                dev = _rel(ratio_engine, table.partition_ratio(n))
                dev = max(dev, _rel(r.n0_mean, table.occupation(0.0)))
                dev = max(dev, _rel(r.n1_mean,
                                    table.occupation(spectrum.level_spacing)))
                worst = max(worst, dev)
                probes += 1
    return SuiteResult("oracle_equivalence", worst, TOLERANCE, probes)


def _saddle_results(spectrum) -> list:
    """The default evaluation at each invariance probe."""
    tc50 = critical_temperature(spectrum, 50)
    tc100 = critical_temperature(spectrum, 100)
    return [canonical_observables(spectrum, t, n) for n, t in
            ((50, 0.5 * tc50), (100, 0.7 * tc100), (100, 1.2 * tc100))]


# Each invariance suite's second evaluation: keywords of
# canonical_observables, built from a probe's default result.
_VARIATIONS = {
    "offset_invariance": lambda a: {
        "ground_offset": a.ground_offset
        + 2.0 * a.t / math.sqrt(a.gc_state.number_variance)},
    "m_max_doubling": lambda a: {"m_max": 2 * a.m_max},
    "grid_refinement": lambda a: {"intervals_per_oscillation": 2},
}


def _invariance(name, spectrum, saddle_results) -> SuiteResult:
    worst = 0.0
    for a in saddle_results:
        b = canonical_observables(spectrum, a.t, a.n, **_VARIATIONS[name](a))
        for key, va in a.observables().items():
            worst = max(worst, _rel(va, getattr(b, key)))
        worst = max(worst, abs(a.log_z_zero_offset - b.log_z_zero_offset)
                    / max(abs(a.log_z_zero_offset), 1.0))
    return SuiteResult(name, worst, TOLERANCE, len(saddle_results))


def _worker_independence() -> SuiteResult:
    grid = [0.5, 0.9, 1.2]
    serial = run_sweep([40], grid, threads=1)
    parallel = run_sweep([40], grid, threads=4)
    differing = 0
    for ra, rb in zip(serial.rows, parallel.rows):
        da, db = ra.to_dict(), rb.to_dict()
        for key in FIELD_ORDER:
            va, vb = da[key], db[key]
            if not (va == vb or va != va and vb != vb):
                differing += 1
    return SuiteResult("worker_independence", float(differing),
                       WORKER_TOLERANCE, len(serial.rows))


def run_validation() -> ValidationReport:
    """Run every suite; any deviation above its tolerance fails the report."""
    spectrum = TrapSpectrum()
    saddle_results = _saddle_results(spectrum)
    suites = [
        _oracle_equivalence(spectrum),
        *(_invariance(name, spectrum, saddle_results) for name in _VARIATIONS),
        _worker_independence(),
    ]
    return ValidationReport(suites=suites)
