"""Canonical-ensemble statistics of ideal bosons in a 3D harmonic trap.

Fixed-N partition functions and occupation moments are computed by
saddle-tilted contour quadrature (canonical), checked against an exact
recursion and brute-force enumeration (oracle), and compared with
grand-canonical closed forms (grand_canonical) and large-N estimates
(asymptotics). The sweep and cli modules drive batch runs; acceptance gate
08 in tests/test_acceptance.py is the package's self-check, and the
command line exits 0, 2 on a bad configuration, or 3 on a failed row
under --strict.

`import bosecanon` loads the engine only: spectrum, grand_canonical and
canonical (with _kernels). The asymptotics, oracle and sweep modules, and
the names they export here, load on first use, so a process that computes
rows through the engine alone does not compile and run them. A sweep
loads sweep and asymptotics, which every row needs, and not oracle.
"""

__version__ = "0.1.0"

from .spectrum import (
    ZETA3,
    DomainError,
    TrapSpectrum,
    critical_temperature,
)
from .canonical import (
    CanonicalResult,
    ConvergenceError,
    canonical_observables,
)
from .grand_canonical import (
    GrandCanonicalState,
    auto_m_max,
    solve_fugacity,
)

# The modules loaded on first use, each with the names it exports here.
_LAZY = {
    "asymptotics": (
        "DELTA_N0_PREFACTOR",
        "DampingCrossover",
        "InteractionParams",
        "condensate_fraction_limit",
        "correlation_limit",
        "damping_crossover",
        "delta_n0_fraction_limit",
    ),
    "oracle": (
        "EnumerationResult",
        "RecursionTable",
        "enumerate_exact",
        "recursion_table",
    ),
    "sweep": (
        "PRESETS",
        "ScalingFit",
        "SweepResult",
        "SweepRow",
        "compute_row",
        "fit_scaling",
        "run_sweep",
        "temperature_grid",
        "write_csv",
        "write_json",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names}

__all__ = [
    "ZETA3",
    "DomainError",
    "TrapSpectrum",
    "critical_temperature",
    "CanonicalResult",
    "ConvergenceError",
    "canonical_observables",
    "GrandCanonicalState",
    "auto_m_max",
    "solve_fugacity",
    *_LAZY_HOME,
]


def __getattr__(name):
    module = _LAZY_HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    # later lookups are plain attribute reads
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
