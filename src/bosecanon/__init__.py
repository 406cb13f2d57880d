"""Canonical-ensemble statistics of ideal bosons in a 3D harmonic trap.

Fixed-N partition functions and occupation moments are computed by
saddle-tilted contour quadrature (canonical), checked against an exact
recursion and brute-force enumeration (oracle), and compared with
grand-canonical closed forms (grand_canonical) and large-N estimates
(asymptotics). The sweep, validate, and cli modules drive batch runs.
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
    mean_occupation,
    occupation_fluctuation,
    solve_fugacity,
)
from .asymptotics import (
    DELTA_N0_PREFACTOR,
    DampingCrossover,
    InteractionParams,
    condensate_fraction_limit,
    correlation_limit,
    damping_crossover,
    delta_n0_fraction_limit,
)
from .oracle import (
    EnumerationResult,
    RecursionTable,
    enumerate_exact,
    recursion_table,
)
from .sweep import (
    PRESETS,
    ScalingFit,
    SweepResult,
    SweepRow,
    compute_row,
    fit_scaling,
    run_sweep,
    temperature_grid,
    write_csv,
    write_json,
)
from .validate import ValidationReport, run_validation
