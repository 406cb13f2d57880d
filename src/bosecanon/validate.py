"""Self-check suites: the engine against its independent references.

This is the package's one self-check (`bosecanon --validate`). Five
suites, each reporting its worst relative deviation against a tolerance:

  oracle_equivalence   partition ratios and occupations vs the recursion
  offset_invariance    observables and offset-free log Z at two forced
                       evaluation offsets near the saddle
  m_max_doubling       stability under doubling the level truncation
  grid_refinement      stability under a twice denser z-grid
  worker_independence  sweep rows vs worker count (must be exact)

The probe sets are small fixed grids chosen to straddle the transition;
tolerances come from the caller so a deliberate misconfiguration can be
demonstrated to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import (
    QuadratureConfig,
    canonical_observables,
    saddle_ground_offset,
)
from .grand_canonical import auto_m_max, solve_fugacity
from .oracle import ORACLE_MAX_N, recursion_table
from .spectrum import DomainError, TrapSpectrum, critical_temperature
from .sweep import FIELD_ORDER, run_sweep

__all__ = ["SuiteResult", "ValidationReport", "run_validation"]


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


def _oracle_equivalence(spectrum, max_n, tolerance) -> SuiteResult:
    worst = 0.0
    probes = 0
    particles = sorted({1, 2, 7, 25, max_n})
    for m_max in (20, 40):
        cfg = QuadratureConfig(m_max=m_max)
        for t in (0.5, 2.0, 5.0, 10.0):
            t_abs = t * spectrum.level_spacing
            for n in particles:
                table = recursion_table(
                    spectrum.with_ground_offset(0.0), t_abs, n,
                    m_max=m_max, tail_closure=True,
                )
                r = canonical_observables(spectrum, t_abs, n, cfg)
                if n >= 2:
                    prev = canonical_observables(spectrum, t_abs, n - 1, cfg)
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
    return SuiteResult("oracle_equivalence", worst, tolerance, probes)


def _offset_probes(spectrum, max_n):
    tc100 = critical_temperature(spectrum, min(100, max_n))
    tc50 = critical_temperature(spectrum, min(50, max_n))
    return [
        (min(50, max_n), 0.5 * tc50),
        (min(100, max_n), 0.7 * tc100),
        (min(100, max_n), 1.2 * tc100),
    ]


def _offset_invariance(spectrum, max_n, tolerance) -> SuiteResult:
    worst = 0.0
    probes = 0
    for n, t in _offset_probes(spectrum, max_n):
        base = saddle_ground_offset(spectrum, t, n)
        state = solve_fugacity(spectrum.with_ground_offset(0.0), t, n)
        shift = 2.0 * t / math.sqrt(state.number_variance)
        a, b = (canonical_observables(spectrum, t, n,
                                      QuadratureConfig(ground_offset=eps0))
                for eps0 in (base, base + shift))
        for name, va in a.observables().items():
            worst = max(worst, _rel(va, getattr(b, name)))
        worst = max(worst, abs(a.log_z_zero_offset - b.log_z_zero_offset)
                    / max(abs(a.log_z_zero_offset), 1.0))
        probes += 1
    return SuiteResult("offset_invariance", worst, tolerance, probes)


def _m_max_doubling(spectrum, max_n, tolerance) -> SuiteResult:
    worst = 0.0
    probes = 0
    for n, t in _offset_probes(spectrum, max_n):
        m1 = auto_m_max(spectrum, t)
        a = canonical_observables(spectrum, t, n, QuadratureConfig(m_max=m1))
        b = canonical_observables(spectrum, t, n, QuadratureConfig(m_max=2 * m1))
        for name, va in a.observables().items():
            worst = max(worst, _rel(va, getattr(b, name)))
        probes += 1
    return SuiteResult("m_max_doubling", worst, tolerance, probes)


def _grid_refinement(spectrum, max_n, tolerance) -> SuiteResult:
    worst = 0.0
    probes = 0
    for n, t in _offset_probes(spectrum, max_n):
        a = canonical_observables(spectrum, t, n, QuadratureConfig())
        b = canonical_observables(spectrum, t, n,
                                  QuadratureConfig(intervals_per_oscillation=2))
        for name, va in a.observables().items():
            worst = max(worst, _rel(va, getattr(b, name)))
        worst = max(worst, abs(a.log_z_zero_offset - b.log_z_zero_offset)
                    / abs(b.log_z_zero_offset))
        probes += 1
    return SuiteResult("grid_refinement", worst, tolerance, probes)


def _worker_independence(spectrum, max_n, tolerance) -> SuiteResult:
    n = min(40, max_n)
    grid = [0.5, 0.9, 1.2]
    serial = run_sweep([n], grid, spectrum=spectrum, threads=1)
    parallel = run_sweep([n], grid, spectrum=spectrum, threads=4)
    worst = 0.0
    for ra, rb in zip(serial.rows, parallel.rows):
        da, db = ra.to_dict(), rb.to_dict()
        for key in FIELD_ORDER:
            va, vb = da[key], db[key]
            if isinstance(va, float) and math.isfinite(va):
                worst = max(worst, _rel(va, vb))
    return SuiteResult("worker_independence", worst, tolerance,
                       len(serial.rows))


def run_validation(max_n: int = 100,
                   tolerance: float = 1e-8) -> ValidationReport:
    """Run every suite; any deviation above tolerance fails the report."""
    if max_n > ORACLE_MAX_N:
        raise DomainError(
            f"validation is scoped to the oracle's range N <= {ORACLE_MAX_N}"
        )
    if max_n < 2 or tolerance < 0:
        raise DomainError("need max_n >= 2 and tolerance >= 0")
    spectrum = TrapSpectrum()
    suites = [
        _oracle_equivalence(spectrum, max_n, tolerance),
        _offset_invariance(spectrum, max_n, tolerance),
        _m_max_doubling(spectrum, max_n, tolerance),
        _grid_refinement(spectrum, max_n, tolerance),
        _worker_independence(spectrum, max_n, min(tolerance, 1e-12)),
    ]
    return ValidationReport(suites=suites)
