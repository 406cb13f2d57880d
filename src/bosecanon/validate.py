"""Self-check suites: the engine against its independent references.

This is the package's one self-check (`bosecanon --validate`). Four
suites, each reporting the worst relative deviation against one tolerance:

  oracle_equivalence   offset-free log Z, n0 and n1 vs oracle.truth(),
                       the recursion at every probe
  offset_invariance    observables and offset-free log Z with the
                       evaluation offset 2 T/sqrt(var) above the saddle
  m_max_doubling       stability under doubling the level truncation
  grid_refinement      stability under a twice denser z-grid

The probes are fixed: the oracle suite runs N up to MAX_N within the
recursion's range, one engine evaluation each, and the invariance suites
three (N, T) points straddling the transition. The tolerance is a constant
as well. The engine meets the references to about 1e-13 on these probes,
so TOLERANCE leaves five decades for rounding while a real defect (a wrong
level, a wrong weight, a missed alias) shows far above it. A failing suite
is shown by perturbing a result, not by tightening the tolerance.

The three invariance suites share one saddle result per probe: the
default evaluation a. Each suite makes one more evaluation, with one
keyword of canonical_observables set from a (a forced ground_offset, a
doubled m_max, or intervals_per_oscillation=2), and compares the six
observables and the offset-free log Z. Every suite takes log Z relative to
max(|log Z|, 1). No suite solves a fugacity of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import canonical_observables
from .oracle import truth
from .spectrum import TrapSpectrum, critical_temperature

__all__ = ["SuiteResult", "ValidationReport", "run_validation"]

# Largest N probed; far below ORACLE_MAX_N, so truth() is the recursion.
MAX_N = 100
TOLERANCE = 1e-8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    probes: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= TOLERANCE

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<22s} {status}  max_dev={self.max_deviation:.3e} "
                f"tol={TOLERANCE:.1e} probes={self.probes}")


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


def _log_z_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), 1.0)


def _oracle_equivalence(spectrum) -> SuiteResult:
    worst = 0.0
    probes = 0
    for m_max in (20, 40):
        for t in (0.5, 2.0, 5.0, 10.0):
            for n in (1, 2, 7, 25, MAX_N):
                exact = truth(spectrum, t, n, m_max)
                r = canonical_observables(spectrum, t, n, m_max)
                worst = max(worst,
                            _log_z_dev(exact.log_z, r.log_z_zero_offset),
                            _rel(r.n0_mean, exact.n0),
                            _rel(r.n1_mean, exact.n1))
                probes += 1
    return SuiteResult("oracle_equivalence", worst, probes)


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
        worst = max(worst, _log_z_dev(a.log_z_zero_offset,
                                      b.log_z_zero_offset))
    return SuiteResult(name, worst, len(saddle_results))


def run_validation() -> ValidationReport:
    """Run every suite; any deviation above TOLERANCE fails the report."""
    spectrum = TrapSpectrum()
    saddle_results = _saddle_results(spectrum)
    suites = [
        _oracle_equivalence(spectrum),
        *(_invariance(name, spectrum, saddle_results) for name in _VARIATIONS),
    ]
    return ValidationReport(suites=suites)
