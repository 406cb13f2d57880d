"""Exact fixed-N references: boson recursion, demon closed forms, enumeration.

These are deliberately independent of the contour-integral engine. The
recursion runs on the excited levels, energies measured from the ground
level, in log space (logsumexp) so magnitudes never overflow:

    Z_ex(k) = (1/k) * sum_{j=1..k} Z1_ex(j) * Z_ex(k-j),    Z_ex(0) = 1,
    Z1_ex(j) = sum_{m=1..M} g_m e^{-j*E_m/T},

a sum of positive terms over the levels of grand_canonical's one ladder
(the arithmetic is the oracle's own). np.exp is exactly 0.0 below -745.2,
so each j sums only the levels with j*E_m/T <= 745.2: it drops zeros alone,
at about 745*T*ln N exps instead of N*M. The ladder's tail weight S
is added at j=1 only, matching a generating function multiplied by
exp(w*S). The ground level, at zero energy, holds the rest of the
particles, so

    log Z(k) = log sum_{i<=k} Z_ex(i),
    P(n0 = N - k) = Z_ex(k) / Z(N).

With no excited level every Z_ex(k >= 1) is 0.

The model is the engine's, read from the spectrum alone: the unbounded
ladder is summed to m_max (auto_m_max when None) and its Boltzmann tail
closed, always (tail_closure takes True alone); the truncated model is a
finite ladder, TrapSpectrum(max_level=M), summed to its top level (a larger
m_max clamps to it) with tail weight 0.

A state treated with Bose statistics obeys P(n >= s) = e^{-sE/T} Z(N-s)/Z(N),
so the occupation of one state at energy E is

    <n> = sum_{s=1..N} e^{-sE/T} Z(N-s)/Z(N),

and, inside the excited subsystem with k particles, the one level-1 state
holds n1(k) = sum_{s=1..k} e^{-s/T} Z_ex(k-s)/Z_ex(k). truth() reads all of
n0, Var(n0), n1 and cov(n0, n1) from the one distribution P(k), each
centred over it (_centred_moments): no second moment is a difference of
two large sums.

truth() is the one place that picks an exact source for an (N, T): the
recursion up to ORACLE_MAX_N, above it the closed forms of the demon
ensemble where their Chernoff bound p on P(N_ex > N) certifies them
(p*N^2 < 1e-12 Var(n0)), and a DomainError anywhere else, or at any N
without the engine's level 1 (grand_canonical._level_one).

Enumeration sums Boltzmann weights over every multiset of N states drawn
from a tiny explicit state list; it is exact to rounding and checks the
recursion itself. The O(N^2) build, not the windowed moments, limits the
recursion to ORACLE_MAX_N particles; cost limits the enumeration to N <= 6
over at most 8 states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grand_canonical import _level_ladder, _level_one, auto_m_max
from .spectrum import DomainError, TrapSpectrum, _finite_real, _integer

__all__ = [
    "RecursionTable",
    "recursion_table",
    "truth",
    "EnumerationResult",
    "enumerate_exact",
    "ORACLE_MAX_N",
]

# The O(N^2) build takes 0.3 s at N = 10^4, 0.7-1.4 s at 2x10^4 from
# T/Tc = 0.3 to 30 (M = 135 to 11,509 levels) and 4-5 s at 5x10^4 on a
# 2-vCPU x86 host; truth()'s centred moments add at most 81 ms at 2x10^4
# (T/Tc = 0.9). At 2x10^4, T/Tc = 0.97, all five truth() values are within
# 1e-11 of a long-double run of the recursion and the moments.
ORACLE_MAX_N = 20_000


@dataclass(frozen=True)
class RecursionTable:
    """log Z(k) and log Z_ex(k) for k = 0..n, and the model they come from.
    truth() reads its moments from log_z_excited; occupation() is the mean
    of one state."""

    spectrum: TrapSpectrum
    t: float
    n: int
    m_max: int
    log_z: np.ndarray = field(repr=False)
    log_z_excited: np.ndarray = field(repr=False)

    def occupation(self, energy: float) -> float:
        """<n> of one state at a finite energy at or above the ground level."""
        energy = _finite_real("state energy", energy, allow_zero=True)
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return float(np.exp(-k * energy / self.t + self.log_z[self.n - 1 :: -1]
                            - self.log_z[self.n]).sum())


@dataclass(frozen=True)
class Truth:
    """Exact log Z(N), <n0>, Var(n0), <n1>, <n0 n1> of one (N, T) model, the
    source they come from, and the demon forms' certificate log10 P(N_ex > N)
    (None for the recursion). From the recursion every moment is centred
    over P(n0) by _centred_moments, and <n0 n1> = cov(n0, n1) + n0 n1."""

    log_z: float
    n0: float
    n0_variance: float
    n1: float
    n0_n1: float
    source: str
    log10_p: float | None = None


def recursion_table(
    spectrum: TrapSpectrum,
    t: float,
    n: int,
    m_max: int | None = None,
    tail_closure: bool = True,
) -> RecursionTable:
    """Build log Z_ex(0..n) on the excited levels, and log Z(0..n) from it."""
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    if tail_closure is not True:
        raise DomainError("the oracle always closes the tail; the truncated "
                          "model is the finite ladder TrapSpectrum(max_level=M)")
    if n > ORACLE_MAX_N:
        raise DomainError(f"recursion oracle capped at N={ORACLE_MAX_N} (got {n})")
    m_max = auto_m_max(spectrum, t, m_max)
    ladder = _level_ladder(spectrum, t, m_max)
    e, g = ladder.energies[1:], ladder.degeneracies[1:]
    top = np.searchsorted(e, 745.2 * t / np.arange(1, n + 1), side="right")
    z1 = np.array([g[:m] @ np.exp(-j / t * e[:m])
                   for j, m in enumerate(top, 1)])
    z1[:1] += ladder.tail_weight
    lz1 = np.log(z1, out=np.full(n, -math.inf), where=z1 > 0.0)
    lz = np.full(n + 1, -math.inf)
    lz[0] = 0.0
    # Z1_ex(j) falls with j: an empty Z1_ex(1) leaves every Z_ex(k >= 1) at
    # zero, else all are positive. Terms below e^-708 of the largest add
    # nothing, and numpy's exp is 30-100x slower on such (subnormal) values.
    if n and lz1[0] > -math.inf:
        for k in range(1, n + 1):
            terms = lz1[:k] + lz[k - 1 :: -1]
            mx = terms.max()
            terms -= mx
            expo = np.exp(terms, out=np.zeros(k), where=terms > -708.0)
            lz[k] = mx + math.log(expo.sum()) - math.log(k)
    return RecursionTable(spectrum, t, n, m_max,
                          np.logaddexp.accumulate(lz), lz)


def _n1_given_k(log_z_excited: np.ndarray, k: np.ndarray,
                t: float) -> np.ndarray:
    """n1(k) = sum_{s=1..k} P(n1 >= s | k), P(n1 >= s | k) =
    e^{-s/T} Z_ex(k-s)/Z_ex(k): the one level-1 state's mean with k excited
    particles, for the consecutive k given, one s per vector step."""
    lo, hi = int(k[0]), int(k[-1]) + 1
    # Z_ex(k - s) for k < s is 0: pad log Z_ex below k = 0 with -inf
    lz = np.concatenate((np.full(hi, -math.inf), log_z_excited))
    own = log_z_excited[lo:hi]
    n1 = np.zeros(k.size)
    for s in range(1, hi):
        term = np.exp(lz[hi + lo - s : 2 * hi - s] - own - s / t)
        n1 += term
        # P(n1 >= s | k) falls with s: once every term of a step is below
        # 1e-17 of its running n1(k), the terms left add less than a rounding
        if np.all(term <= 1e-17 * n1):
            break
    return n1


def _centred_moments(log_w: np.ndarray, n0: np.ndarray,
                     n1: np.ndarray) -> tuple[float, float, float, float]:
    """<n0>, Var(n0), <n1>, cov(n0, n1) over P proportional to exp(log_w),
    where n0 and n1 hold the values at each weight. Every moment is centred
    over P: no second moment is a difference of two large sums."""
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    mean0, mean1 = p @ n0, p @ n1
    d0 = n0 - mean0
    return (float(mean0), float(p @ d0 ** 2), float(mean1),
            float(p @ (d0 * (n1 - mean1))))


def _demon_forms(spectrum: TrapSpectrum, t: float, n: int,
                 m_max: int | None = None) -> Truth:
    """Closed forms of the "Maxwell's demon" ensemble (Grossmann & Holthaus,
    PRL 79, 3557 (1997)): the ladder's levels 1..m_max and tail at unit
    fugacity, the ground level holding the rest; exact, at any N, once
    P(N_ex > N) is negligible. log10_p is the Chernoff bound on
    log10 P(N_ex > N). There cov(n0, n1) = -n1(n1 + 1), so
    <n0 n1> = n1(n0 - n1 - 1)."""
    n = _integer("particle number", n, 1)
    m_max = auto_m_max(spectrum, t, m_max)
    _level_one(t, m_max)
    ladder = _level_ladder(spectrum, t, m_max)
    q, g, tail = ladder.boltzmann[1:], ladder.degeneracies[1:], ladder.tail_weight
    # Chernoff: log P(N_ex > N) <= log E[r^N_ex] - N log r, at r = q1^(-1/2)
    r = q[0] ** -0.5
    log_p = ((g * (np.log1p(-q) - np.log1p(-r * q))).sum() + tail * (r - 1.0)
             - n * math.log(r))
    n0 = float(n - (g * q / (1.0 - q)).sum() - tail)
    n1 = float(q[0] / (1.0 - q[0]))
    return Truth(log_z=float(tail - (g * np.log1p(-q)).sum()), n0=n0,
                 n0_variance=float((g * q / (1.0 - q) ** 2).sum() + tail),
                 n1=n1, n0_n1=n1 * (n0 - n1 - 1.0), source="demon",
                 log10_p=float(log_p / math.log(10.0)))


def truth(spectrum: TrapSpectrum, t: float, n: int,
          m_max: int | None = None) -> Truth:
    """The exact fixed-N values on the engine's model (m_max resolved as in
    recursion_table), from the one source that is exact there.

    Up to ORACLE_MAX_N particles it is the recursion. Above, it is the
    demon forms where they are certified. That ensemble is the canonical
    one plus the configurations with N_ex > N, of weight at most p; the
    rule holds p*N^2, that weight on second moments of counts of order N,
    below 1e-12 Var(n0), the smallest quantity returned. Any other (N, T)
    has no exact source and is a DomainError, as is one without level 1.
    """
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    m_max = auto_m_max(spectrum, t, m_max)
    _level_one(t, m_max)
    if n <= ORACLE_MAX_N:
        table = recursion_table(spectrum, t, n, m_max)
        lz = table.log_z_excited
        # P(k) is log-concave in k, so past the k within e^-80 of its peak,
        # widened by one each side, every P(k) is below e^-80 (2e-35) of an
        # off-peak weight that is kept. Those N+1 at most move no moment of
        # order N^2 by a rounding, even where the peak's neighbours alone
        # carry Var(n0) and n1 (T below 1/80); they are left out.
        k = np.flatnonzero(lz >= lz.max() - 80.0)
        k = np.arange(max(k[0] - 1, 0), min(k[-1] + 2, n + 1))
        n0, var, n1, cov = _centred_moments(lz[k], n - k, _n1_given_k(lz, k, t))
        return Truth(log_z=float(table.log_z[n]), n0=n0, n0_variance=var,
                     n1=n1, n0_n1=cov + n0 * n1, source="recursion")
    demon = _demon_forms(spectrum, t, n, m_max)
    log10_error = demon.log10_p + 2.0 * math.log10(n)
    log10_allowed = math.log10(1e-12 * demon.n0_variance)
    if not log10_error < log10_allowed:
        raise DomainError(
            f"no exact truth at N={n}, T={t}: N is above the recursion's cap "
            f"ORACLE_MAX_N={ORACLE_MAX_N}, and the demon forms are not "
            f"certified there (log10(p*N^2) = {log10_error:+.1f} is not below "
            f"log10(1e-12 Var(n0)) = {log10_allowed:+.1f})")
    return demon


@dataclass(frozen=True)
class EnumerationResult:
    """Exact sums over every way to place n particles on the given states."""

    z: float
    mean: np.ndarray        # <n_i> per state
    second: np.ndarray      # <n_i^2> per state
    cross: np.ndarray       # <n_i n_j> matrix
    configurations: int


def enumerate_exact(energies, t: float, n: int) -> EnumerationResult:
    """Brute-force canonical sums for n bosons on an explicit state list.

    Iterates over multisets (combinations with replacement) of state
    indices; each multiset is one distinct boson configuration.
    """
    energies = np.asarray(energies, dtype=np.float64)
    s = energies.size
    if not np.isfinite(energies).all():
        raise DomainError(f"state energies must be finite, got {energies}")
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    if n > 6 or s > 8:
        raise DomainError(f"enumeration capped at n<=6, states<=8 (got {n}, {s})")
    z = 0.0
    mean = np.zeros(s)
    second = np.zeros(s)
    cross = np.zeros((s, s))
    count = 0
    occ = np.zeros(s)
    for combo in itertools.combinations_with_replacement(range(s), n):
        occ[:] = 0.0
        for i in combo:
            occ[i] += 1.0
        w = math.exp(-float(np.dot(occ, energies)) / t)
        z += w
        mean += w * occ
        second += w * occ * occ
        cross += w * np.outer(occ, occ)
        count += 1
    return EnumerationResult(z, mean / z, second / z, cross / z, count)
