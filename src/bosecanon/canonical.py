"""Fixed-N partition function and occupation moments by contour quadrature.

The canonical partition function of N bosons on the trap spectrum is the
N-th power-series coefficient of the grand generating function, extracted
as a contour integral over the unit circle:

    Z(N) = (1/2pi) int_{-pi}^{pi} dz e^{iNz}
           prod_m (1 - e^{-E_m/T} e^{-iz})^{-g_m} * C(z)

where C(z) = exp(s_mb e^{-iz}) closes the levels above m_max in Boltzmann
order on the unbounded ladder, and is 1 on a finite ladder
(TrapSpectrum(max_level=M)), the truncated model. The integrand at -z is the
conjugate of the integrand at +z, so the code integrates [0, pi] only and
keeps twice the real part; the assembled integral is exactly real.

Occupation moments ride along as cheap pointwise weight factors on the
same grid (one designated ground state, one designated state of the
first excited level, the excited-state total, and their squares and
cross product), so every observable is a ratio of two integrals sharing
one quadrature pass and one normalisation. See _kernels for the seven
accumulators.

Conditioning. The raw integrand oscillates with phase ~ N z while its
modulus peaks at z = 0; for a poorly balanced ground offset the integral
is exponentially smaller than the integrand's peak and double precision
runs out of digits (errors grow like exp of the Legendre gap between the
requested N and the offset's natural particle number). The engine
therefore evaluates at the offset that makes z = 0 a true saddle,
eps0* = -T log(fugacity(N, T)), where the integrand is a positive, nearly
Gaussian peak. Observables do not depend on the offset at all, and log Z
at any other offset follows from the exact identity
log Z(eps0) = log Z(eps0') - N (eps0 - eps0')/T, so nothing is lost.
A fixed override (QuadratureConfig.ground_offset) remains available for
invariance studies.

Grid density. A uniform M-point rule on the full period sums coefficient
aliases Z(N + k M) exactly, so the step must make the first alias
negligible. At the saddle offset the coefficient sequence decays past N
on the scale of the ground occupation plus the number spread, hence the
density floor below keyed to n0 + sqrt(var). The pi/(4N) baseline is kept
as a second floor.

Early exit. Each chunk of at most CHUNK_POINTS kernel points gets one
array-level exit decision; it is made per interval on sums added in
interval order, so results do not depend on where the chunks end. Away
from z = 0 the excited levels damp the integrand like the Gaussian
exp(-var_ex z^2/2), var_ex being their number variance at the evaluation
offset (the "Maxwell's demon" picture of Grossmann & Holthaus, PRL 79,
3557 (1997)), so the exit is predictable: one extra chunk boundary sits
EXIT_STREAK intervals past the point where var_ex z^2/2 reaches
EXIT_DECAY. A row that exits before it evaluates no kernel points past
it; a row that runs on continues on the regular chunk grid.

One fugacity solve. The offset-free grand-canonical state at mean number
N fixes the saddle offset; it is solved once per evaluation, also under a
forced offset, and returned as CanonicalResult.gc_state, which carries
the grand-canonical comparison columns of a sweep row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import N_ACCUMULATORS, projection_chunk
from .grand_canonical import GrandCanonicalState, auto_m_max, solve_fugacity
from .spectrum import DomainError, TrapSpectrum

__all__ = [
    "QuadratureConfig",
    "CanonicalResult",
    "ConvergenceError",
    "canonical_observables",
    "saddle_ground_offset",
]

# Early-exit hysteresis: this many consecutive intervals below
# CONVERGENCE_REL_TOL, plus a rigorous bound on everything beyond them,
# before stopping.
EXIT_STREAK = 32
CONVERGENCE_REL_TOL = 1e-12
# Predicted exit: var_ex z^2/2 at the exit interval measures 32.4-39.6 on
# the fig1 rows at or above 0.85 Tc and 33.3 at N = 10^6, T/Tc = 0.5; the
# EXIT_STREAK intervals added past the prediction cover the upper end. A
# larger value evaluates more points past the exit, a smaller one cuts more
# chunks short of it (one more kernel call each; the results stay the same).
EXIT_DECAY = 35.0
CHUNK_POINTS = 2048  # per kernel call: 512 4-point or 2048 midpoint intervals

# Alias suppression: full-period point count must clear N by this many
# decay lengths of the coefficient tail.
TAIL_DECAY_LENGTHS = 36.0
GRID_MARGIN = 0.55
MIN_HALF_INTERVALS = 256

# Above this N a single midpoint per interval is already accurate; below,
# a 4-point Gauss rule costs little and buys headroom.
MIDPOINT_N = 10_000


class ConvergenceError(RuntimeError):
    """Quadrature failed to produce a trustworthy result; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the contour quadrature.

    m_max: highest Bose-treated level, clamped to a finite ladder's top;
        None takes a finite ladder's top level or derives one from T
        (grand_canonical.auto_m_max).
    intervals_per_oscillation: multiplies the grid density floor.
    ground_offset: None evaluates at the saddle offset; a positive float
        forces that offset (invariance studies; poorly balanced values
        lose digits to cancellation and may fail outright).
    """

    m_max: int | None = None
    intervals_per_oscillation: int = 1
    ground_offset: float | None = None

    def __post_init__(self):
        if self.m_max is not None and self.m_max < 1:
            raise DomainError(f"m_max must be >= 1, got {self.m_max}")
        if self.intervals_per_oscillation < 1:
            raise DomainError("intervals_per_oscillation must be >= 1")
        if self.ground_offset is not None and not self.ground_offset > 0:
            raise DomainError("forced ground_offset must be positive")


@dataclass(frozen=True)
class CanonicalResult:
    """Observables and diagnostics of one fixed-(N, T) evaluation.

    log_z is normalised to the evaluation offset recorded in ground_offset;
    log_z_zero_offset = log_z + N*ground_offset/T removes it entirely and is
    what any two runs of the same physical system must agree on.

    gc_state is the grand-canonical ensemble of the offset-free ladder at
    mean number N over levels 0..m_max (solve_fugacity); -gc_state.mu is the
    saddle offset, and its occupations are the grand-canonical values at
    the same (N, T).
    """

    n: int
    t: float
    log_z: float
    log_z_zero_offset: float
    n0_mean: float
    n0_second_moment: float
    n1_mean: float
    n0_n1_mean: float
    ne_mean: float
    ne_second_moment: float
    intervals_evaluated: int
    intervals_total: int
    sum_rule_residual: float
    m_max: int
    ground_offset: float
    gc_state: GrandCanonicalState

    @property
    def n0_variance(self) -> float:
        return max(self.n0_second_moment - self.n0_mean**2, 0.0)

    @property
    def delta_n0(self) -> float:
        return math.sqrt(self.n0_variance)

    @property
    def ne_variance(self) -> float:
        return max(self.ne_second_moment - self.ne_mean**2, 0.0)

    @property
    def delta_ne(self) -> float:
        return math.sqrt(self.ne_variance)

    @property
    def covariance_n0_n1(self) -> float:
        """<dn0 dn1>, negative below the transition."""
        return self.n0_n1_mean - self.n0_mean * self.n1_mean

    @property
    def condensate_fraction(self) -> float:
        return self.n0_mean / self.n

    OBSERVABLE_NAMES = (
        "n0_mean",
        "n0_second_moment",
        "n1_mean",
        "n0_n1_mean",
        "ne_mean",
        "ne_second_moment",
    )

    def observables(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.OBSERVABLE_NAMES}


def _level_weights(spectrum: TrapSpectrum, t: float, m_max: int,
                   ground_offset: float):
    """Per-level Boltzmann factors at the given evaluation offset."""
    m = np.arange(m_max + 1, dtype=np.float64)
    q = np.exp(-(ground_offset + m * spectrum.level_spacing) / t)
    g = (m + 1.0) * (m + 2.0) / 2.0
    return q, g


def saddle_ground_offset(spectrum: TrapSpectrum, t: float, n: int,
                         m_max: int | None = None) -> float:
    """Offset making z=0 a stationary point of the integrand's phase.

    This is -T log(fugacity) of the offset-free ladder at mean number N;
    always positive for finite systems, so the z=0 singularity of a bare
    offset never arises.
    """
    ladder = spectrum.with_ground_offset(0.0)
    return -solve_fugacity(ladder, t, n, m_max=m_max).mu


def _weight_peaks(q: np.ndarray, g: np.ndarray, s_mb: float) -> np.ndarray:
    """Max modulus of each accumulator's weight factor, attained at z=0."""
    w = q / (1.0 - q)
    w0 = w[0]
    w0sq = q[0] * (1.0 + q[0]) / (1.0 - q[0]) ** 2
    w1 = w[1]
    we = float((g[1:] * w[1:]).sum()) + s_mb
    wev = float((g[1:] * w[1:] / (1.0 - q[1:])).sum()) + s_mb
    return np.array([1.0, w0, w0sq, w1, w0 * w1, we, we * we + wev])


def _quadrature_nodes(n: int):
    """Per-interval rule for N particles on the unit interval.

    One midpoint from MIDPOINT_N up, 4-point Gauss-Legendre below.
    """
    x, w = np.polynomial.legendre.leggauss(1 if n >= MIDPOINT_N else 4)
    return (x + 1.0) / 2.0, w / 2.0


def _half_interval_count(n: int, ipo: int, tail_scale: float) -> int:
    alias_floor = GRID_MARGIN * (n + TAIL_DECAY_LENGTHS * tail_scale)
    return ipo * int(max(4 * n, math.ceil(alias_floor), MIN_HALF_INTERVALS))


def canonical_observables(
    spectrum: TrapSpectrum,
    t: float,
    n: int,
    config: QuadratureConfig | None = None,
) -> CanonicalResult:
    """Evaluate Z(N, T) and the occupation moments in one quadrature pass."""
    config = config or QuadratureConfig()
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    if n < 1:
        raise DomainError(f"particle number must be >= 1, got {n}")

    m_max = auto_m_max(spectrum, t, config.m_max)
    if m_max < 1:
        raise DomainError(f"n1 observables need level 1, got m_max={m_max}")
    gc_state = solve_fugacity(spectrum.with_ground_offset(0.0), t, n,
                              m_max=m_max)
    if config.ground_offset is not None:
        eps0 = config.ground_offset
    else:
        eps0 = -gc_state.mu

    q, g = _level_weights(spectrum, t, m_max, eps0)
    s_mb = math.exp(-eps0 / t) * spectrum.tail_weight(t, m_max)
    w_peak = _weight_peaks(q, g, s_mb)

    # Coefficient tail decay scale at this offset: ground occupation plus
    # the number spread, padded for small systems.
    var = g * q / (1.0 - q) ** 2
    var0 = float(var.sum()) + s_mb
    tail_scale = w_peak[1] + math.sqrt(var0) + 20.0

    nodes, wts = _quadrature_nodes(n)
    n_half = _half_interval_count(n, config.intervals_per_oscillation, tail_scale)
    h = math.pi / n_half

    # Chunk boundary at the predicted exit; none when the excited variance
    # underflows or the prediction lies past the half period.
    var_ex = float(var[1:].sum()) + s_mb
    reach = math.sqrt(2.0 * EXIT_DECAY / var_ex) / h if var_ex > 0.0 else math.inf
    boundary = (min(n_half, math.ceil(reach) + EXIT_STREAK) if reach < n_half
                else n_half)

    # Rescale so the z=0 peak exponentiates to exactly 1.
    offset = float(s_mb - (g * np.log1p(-q)).sum())

    # Row k of `run` is the accumulator after interval done + k + 1, added up
    # in interval order from the accumulator carried in.
    step = CHUNK_POINTS // nodes.size
    acc = np.zeros(N_ACCUMULATORS, dtype=np.complex128)
    streak = 0
    done = 0
    while done < n_half:
        i1 = min((done // step + 1) * step, n_half)
        if done < boundary < i1:
            i1 = boundary
        out, peak = projection_chunk(q, g, float(n), s_mb, h, done, i1,
                                     nodes, wts, offset)
        run = np.cumsum(np.concatenate((acc[None], out)), axis=0)[1:]
        scale = np.abs(run)
        live = scale > 0.0
        with np.errstate(invalid="ignore"):  # inf/inf past an overflow
            rel = np.divide(np.abs(out), scale, out=np.zeros_like(scale),
                            where=live).max(axis=1)
        # Negligible-interval streak, carried in from the previous chunk.
        rows = np.arange(1, i1 - done + 1)
        last_busy = np.maximum.accumulate(
            np.where(rel < CONVERGENCE_REL_TOL, 0, rows))
        streaks = np.where(last_busy == 0, streak + rows, rows - last_busy)
        # Bound on everything past each interval, from its peak modulus.
        mass = np.exp(peak) * (math.pi - (done + rows) * h)
        bounded = ((mass[:, None] * w_peak <= CONVERGENCE_REL_TOL * scale)
                   | ~live)
        exits = np.flatnonzero((streaks >= EXIT_STREAK) & bounded.all(axis=1))
        last = int(exits[0]) if exits.size else rows.size - 1
        overflow = np.flatnonzero(~np.isfinite(scale[:last + 1]).all(axis=1))
        if overflow.size:
            raise ConvergenceError(
                "accumulator left the representable range",
                {"interval": done + int(overflow[0]) + 1,
                 "offset": offset, "n_half": n_half})
        acc = run[last]
        streak = int(streaks[last])
        done += last + 1
        if exits.size:
            break

    z_re = float(acc[0].real)
    if not z_re > 0.0:
        raise ConvergenceError(
            "partition integral lost all significant digits "
            f"(Re = {z_re:.3e} after {done} intervals); the evaluation "
            "offset is too far from the saddle for double precision",
            {"offset": eps0, "intervals": done, "accumulator": acc[0]},
        )

    obs = acc.real / z_re
    log_z = offset + math.log(z_re / math.pi)
    log_z_zero = log_z + n * eps0 / t
    sum_rule = abs(obs[1] + obs[5] - n) / n
    return CanonicalResult(
        n=n,
        t=t,
        log_z=log_z,
        log_z_zero_offset=log_z_zero,
        n0_mean=obs[1],
        n0_second_moment=obs[2],
        n1_mean=obs[3],
        n0_n1_mean=obs[4],
        ne_mean=obs[5],
        ne_second_moment=obs[6],
        intervals_evaluated=done,
        intervals_total=n_half,
        sum_rule_residual=sum_rule,
        m_max=m_max,
        ground_offset=eps0,
        gc_state=gc_state,
    )
