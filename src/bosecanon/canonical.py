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

Conditioning. The engine lifts the ground level from zero to an
evaluation offset eps0. The raw integrand oscillates with phase ~ N z
while its modulus peaks at z = 0; for a poorly balanced offset the
integral is exponentially smaller than the integrand's peak and double
precision runs out of digits (errors grow like exp of the Legendre gap
between the requested N and the offset's natural particle number). The
engine therefore evaluates at the offset that makes z = 0 a true saddle,
eps0* = -mu(N, T), where the integrand is a positive, nearly Gaussian
peak. Observables do not depend on the offset, and the exact identity
log Z(0) = log Z(eps0) + N eps0/T gives log Z with the ground level at
zero.

Grid density. A uniform M-point rule on the full period sums coefficient
aliases Z(N + k M) exactly, so the step must make the first alias
negligible. At the saddle offset the coefficient sequence decays past N
on the scale of the ground occupation plus the number spread, hence the
density floor below keyed to n0 + sqrt(var). The pi/(4N) baseline is kept
as a second floor.

Early exit. |F(z)| and the modulus of every accumulator's weight factor
fall monotonically on [0, pi], so an interval's peak modulus times the
length left to pi bounds everything past it. The sum stops at the first
interval where that bound lies below CONVERGENCE_REL_TOL of every
running sum; a running sum that is exactly zero holds the exit off, at
worst to the full period. Each chunk of at most CHUNK_POINTS kernel
points (4096 intervals of the 4-point rule, 16384 of the midpoint rule)
gets one array-level decision, made per interval on sums added in
interval order: the running sum is taken in place over the kernel's
output, seeded with the sum carried in, so results do not depend on
where the chunks end. The decision tests one accumulator column at a
time in a few reused chunk-length buffers, and only a copy of the sum
carried on outlives the chunk, so no chunk's arrays are alive during the
next kernel call and a row peaks at its largest kernel call.
Away from z = 0 the excited levels damp the integrand like the Gaussian
exp(-var_ex z^2/2), var_ex being their number variance at the evaluation
offset (the "Maxwell's demon" picture of Grossmann & Holthaus, PRL 79,
3557 (1997)), so the exit is predictable: one extra chunk boundary sits
where var_ex z^2/2 reaches EXIT_DECAY. A row that exits before it
evaluates no kernel points past it; a row that runs on continues on the
regular chunk grid.

Cost guard. The kernel work of a row is predicted before the first chunk:
intervals up to the predicted exit (the half period when none is
predicted) times points per interval times levels. Above MAX_LEVEL_POINTS
the row is a DomainError instead of hours of kernel time. So is, before
the fugacity solve, what truth() also refuses (grand_canonical._level_one):
a ladder without level 1, or T below 1/708.4, where the n1 weight
underflows, n1 reads 0 and the excited sums stay zero to the full period.

One fugacity solve. The grand-canonical state at mean number N, solved
once per evaluation and returned as CanonicalResult.gc_state, fixes the
saddle offset -mu; the engine's level arrays are its level ladder shifted
to that offset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import N_ACCUMULATORS, projection_chunk
from .grand_canonical import (GrandCanonicalState, _level_count,
                              _level_log_z, _level_one, _level_variance,
                              auto_m_max, solve_fugacity)
from .spectrum import DomainError, TrapSpectrum, _finite_real, _integer

__all__ = [
    "CanonicalResult",
    "ConvergenceError",
    "canonical_observables",
]

# Early exit: the first interval past which a rigorous bound puts the rest
# of the half period below this fraction of every running sum.
CONVERGENCE_REL_TOL = 1e-12
# Predicted exit: var_ex z^2/2 at the exit interval measures 32.4-39.6 on
# the fig1 rows at or above 0.85 Tc and 33.3 at N = 10^6, T/Tc = 0.5. On
# fig1, with 16384-point chunks, 39 takes the fewest level-points (146.75M
# in 233 kernel calls; 35 takes 156.40M in 253, 37 148.75M in 237, 38
# 146.94M in 234, 40 146.84M in 231, 41 147.56M in 230). A larger value
# evaluates more points past the exit, a smaller one cuts more chunks short
# of it (one more kernel call each); the results stay the same.
EXIT_DECAY = 39.0
CHUNK_POINTS = 16384  # per kernel call: 4096 4-point or 16384 midpoint intervals

# Alias suppression: full-period point count must clear N by this many
# decay lengths of the coefficient tail.
TAIL_DECAY_LENGTHS = 36.0
GRID_MARGIN = 0.55

# Cost guard on the predicted kernel work: about 35-40 minutes at the 20-24
# ns per level-point of the numpy kernel on a 2-vCPU x86 host (traced
# large_n and fig1_serial with 16384-point chunks). At low T/Tc the exit
# fires past the predicted boundary and the guard under-predicts: N = 10^5
# at T/Tc = 0.05 predicts 9.2e7 level-points and evaluates 1.25e8 (1.36x).
MAX_LEVEL_POINTS = 1e11

# Above this N a single midpoint per interval is already accurate; below,
# a 4-point Gauss rule costs little and buys headroom.
MIDPOINT_N = 10_000

# Gauss-Legendre nodes and weights on [-1, 1], the doubles that
# numpy.polynomial.legendre.leggauss returns: written out, so that a row
# does not import numpy.polynomial (1.3 MB of resident memory).
GAUSS_LEGENDRE = {
    1: ((0.0,), (2.0,)),
    4: ((-0.8611363115940526, -0.33998104358485626,
         0.33998104358485626, 0.8611363115940526),
        (0.34785484513745357, 0.6521451548625464,
         0.6521451548625464, 0.34785484513745357)),
}


class ConvergenceError(RuntimeError):
    """Quadrature failed to produce a trustworthy result; the message says
    where (the interval, the period's half-count, the offset), so a sweep
    row's error record carries it too."""


@dataclass(frozen=True)
class CanonicalResult:
    """Observables and diagnostics of one fixed-(N, T) evaluation.

    log_z is log Z with the ground level lifted to the evaluation offset
    recorded in ground_offset; log_z_zero_offset = log_z + N*ground_offset/T
    is log Z with the ground level at zero, the oracle's log_z[n], and is
    what any two runs of the same physical system must agree on.

    gc_state is the grand-canonical ensemble of the spectrum at mean number
    N over levels 0..m_max (solve_fugacity); -mu is the saddle offset, and
    its occupations are the grand-canonical values at the same (N, T).

    n0_variance, ne_variance and covariance_n0_n1 are Var(n0), Var(N_ex)
    and <dn0 dn1>, the last negative below the transition.

    The last four fields are what the evaluation cost, and no part of its
    value (left out of equality and repr; chunking moves points_evaluated,
    not the result): points_evaluated counts the integrand points the
    kernel computed, those past the exit included, and the wall times
    split the evaluation into the fugacity solve (solve_s), the kernel
    calls (integrand_s) and the rest (moments_s): set-up, the
    accumulate-and-exit loop and assembly. The solve's own count is
    gc_state.evaluations.
    """

    n: int
    t: float
    log_z: float
    log_z_zero_offset: float
    n0_mean: float
    n0_variance: float
    n1_mean: float
    covariance_n0_n1: float
    ne_mean: float
    ne_variance: float
    intervals_evaluated: int
    intervals_total: int
    m_max: int
    ground_offset: float
    gc_state: GrandCanonicalState
    points_evaluated: int = field(compare=False, repr=False)
    solve_s: float = field(compare=False, repr=False)
    integrand_s: float = field(compare=False, repr=False)
    moments_s: float = field(compare=False, repr=False)

    @property
    def delta_n0(self) -> float:
        """RMS n0 fluctuation; below Tc it loses digits to cancellation, up
        to 3.2e-4 relative at N = 10^5, T/Tc = 0.05 (README, Known limits)."""
        return math.sqrt(self.n0_variance)

    @property
    def delta_ne(self) -> float:
        """RMS N_ex fluctuation, delta_n0 at fixed N; above Tc it loses digits
        to cancellation, 0.155 relative off at N = 10^6, T/Tc = 3."""
        return math.sqrt(self.ne_variance)


def _weight_peaks(q: np.ndarray, ne: float, var_ex: float) -> np.ndarray:
    """Max modulus of each accumulator's weight factor, attained at z=0."""
    w0 = q[0] / (1.0 - q[0])
    w0sq = q[0] * (1.0 + q[0]) / (1.0 - q[0]) ** 2
    w1 = q[1] / (1.0 - q[1])
    return np.array([1.0, w0, w0sq, w1, w0 * w1, ne, ne * ne + var_ex])


def _exit_scan(run: np.ndarray, mass: np.ndarray, w_peak: np.ndarray):
    """First interval of a chunk whose tail bound mass * w_peak lies within
    CONVERGENCE_REL_TOL of every running sum, and the first interval up to
    it with a running sum out of range; None where there is none.

    One accumulator column at a time, in buffers reused across columns, so
    the test costs a few chunk-length vectors instead of seven-wide ones.
    """
    scale = np.empty(mass.size)
    bound = np.empty(mass.size)
    flags = np.empty(mass.size, dtype=bool)
    exits = np.ones(mass.size, dtype=bool)
    finite = np.ones(mass.size, dtype=bool)
    for k in range(N_ACCUMULATORS):
        np.abs(run[:, k], out=scale)
        finite &= np.isfinite(scale, out=flags)
        np.multiply(CONVERGENCE_REL_TOL, scale, out=scale)
        np.multiply(mass, w_peak[k], out=bound)
        exits &= np.less_equal(bound, scale, out=flags)
    hits = np.flatnonzero(exits)
    first_exit = int(hits[0]) if hits.size else None
    last = mass.size - 1 if first_exit is None else first_exit
    bad = np.flatnonzero(~finite[:last + 1])
    return first_exit, int(bad[0]) if bad.size else None


def _quadrature_nodes(n: int):
    """Per-interval rule for N particles on the unit interval.

    One midpoint from MIDPOINT_N up, 4-point Gauss-Legendre below.
    """
    x, w = GAUSS_LEGENDRE[1 if n >= MIDPOINT_N else 4]
    return (np.array(x) + 1.0) / 2.0, np.array(w) / 2.0


def _half_interval_count(n: int, tail_scale: float) -> int:
    alias_floor = GRID_MARGIN * (n + TAIL_DECAY_LENGTHS * tail_scale)
    return int(max(4 * n, math.ceil(alias_floor)))


def canonical_observables(
    spectrum: TrapSpectrum,
    t: float,
    n: int,
    m_max: int | None = None,
) -> CanonicalResult:
    """Evaluate Z(N, T) and the occupation moments in one quadrature pass,
    at the saddle offset.

    m_max: highest Bose-treated level, as grand_canonical.auto_m_max
        resolves it (clamped to a finite ladder's top; None is automatic).
    """
    started = time.perf_counter()
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 1)

    m_max = auto_m_max(spectrum, t, m_max)
    _level_one(t, m_max)
    tick = time.perf_counter()
    gc_state = solve_fugacity(spectrum, t, n, m_max=m_max)
    solve_s = time.perf_counter() - tick
    eps0 = -gc_state.mu

    ladder = gc_state.ladder
    q = np.exp(-(eps0 + ladder.energies) / t)
    g = ladder.degeneracies
    s_mb = math.exp(-eps0 / t) * ladder.tail_weight
    var_ex = _level_variance(q[1:], g[1:], s_mb)
    w_peak = _weight_peaks(q, _level_count(q[1:], g[1:], s_mb), var_ex)

    # Coefficient tail decay scale at this offset: ground occupation plus
    # the number spread, padded for small systems.
    tail_scale = w_peak[1] + math.sqrt(_level_variance(q, g, s_mb)) + 20.0

    nodes, wts = _quadrature_nodes(n)
    n_half = _half_interval_count(n, tail_scale)
    h = math.pi / n_half

    # Chunk boundary at the predicted exit; none when the excited variance
    # underflows or the prediction lies past the half period.
    reach = math.sqrt(2.0 * EXIT_DECAY / var_ex) / h if var_ex > 0.0 else math.inf
    boundary = math.ceil(reach) if reach < n_half else n_half
    work = boundary * nodes.size * q.size
    if work > MAX_LEVEL_POINTS:
        raise DomainError(
            f"predicted kernel work of {work:.2g} level-points exceeds the "
            f"limit of {MAX_LEVEL_POINTS:.0e} (N = {n}, T = {t})")

    # Rescale so the z=0 peak exponentiates to exactly 1.
    offset = _level_log_z(q, g, s_mb)

    # Row k of `run` is the accumulator after interval done + k + 1, added up
    # in interval order from the accumulator carried in (complex addition
    # commutes exactly, so adding it to the first row first is the same).
    step = CHUNK_POINTS // nodes.size
    acc = np.zeros(N_ACCUMULATORS, dtype=np.complex128)
    done = points = 0
    integrand_s = 0.0
    while done < n_half:
        i1 = min((done // step + 1) * step, n_half)
        if done < boundary < i1:
            i1 = boundary
        tick = time.perf_counter()
        run, peak = projection_chunk(q, g, float(n), s_mb, h, done, i1,
                                     nodes, wts, offset)
        integrand_s += time.perf_counter() - tick
        points += (i1 - done) * nodes.size
        run[0] += acc
        np.cumsum(run, axis=0, out=run)
        # Bound on everything past each interval, from its peak modulus.
        mass = np.exp(peak)
        mass *= math.pi - np.arange(done + 1, i1 + 1) * h
        first_exit, first_overflow = _exit_scan(run, mass, w_peak)
        if first_overflow is not None:
            raise ConvergenceError(
                "accumulator left the representable range at interval "
                f"{done + first_overflow + 1} of {n_half} (rescale offset "
                f"{offset!r})")
        last = i1 - done - 1 if first_exit is None else first_exit
        acc = run[last].copy()
        done += last + 1
        # the next kernel call must not find this chunk's arrays alive
        del run, peak, mass
        if first_exit is not None:
            break

    z_re = float(acc[0].real)
    if not z_re > 0.0:
        raise ConvergenceError(
            "partition integral lost all significant digits "
            f"(Re = {z_re:.3e} after {done} of {n_half} intervals at offset "
            f"{eps0!r}); double precision cannot resolve Z at N = {n}, "
            f"T = {t}")

    obs = (acc.real / z_re).tolist()  # Python floats, as every field
    log_z = offset + math.log(z_re / math.pi)
    log_z_zero = log_z + n * eps0 / t
    elapsed = time.perf_counter() - started
    return CanonicalResult(
        n=n,
        t=t,
        log_z=log_z,
        log_z_zero_offset=log_z_zero,
        n0_mean=obs[1],
        n0_variance=max(obs[2] - obs[1]**2, 0.0),
        n1_mean=obs[3],
        covariance_n0_n1=obs[4] - obs[1] * obs[3],
        ne_mean=obs[5],
        ne_variance=max(obs[6] - obs[5]**2, 0.0),
        intervals_evaluated=done,
        intervals_total=n_half,
        m_max=m_max,
        ground_offset=eps0,
        gc_state=gc_state,
        points_evaluated=points,
        solve_s=solve_s,
        integrand_s=integrand_s,
        moments_s=elapsed - solve_s - integrand_s,
    )
