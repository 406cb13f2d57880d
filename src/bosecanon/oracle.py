"""Exact fixed-N references: boson recursion, demon closed forms, enumeration.

These are deliberately independent of the contour-integral engine. The
recursion runs on the excited levels, energies measured from the ground
level, in log space (logsumexp) so magnitudes never overflow:

    Z_ex(k) = (1/k) * sum_{j=1..k} Z1_ex(j) * Z_ex(k-j),    Z_ex(0) = 1,
    Z1_ex(j) = sum_{m=1..M} g_m e^{-j*E_m/T},

a sum of positive terms over the levels of grand_canonical's one ladder
(the arithmetic is the oracle's own). np.exp is exactly 0.0 below -745.2,
so each j sums only the levels with j*E_m/T <= 745.2: it drops zeros alone,
at about 745*(T/spacing)*ln N exps instead of N*M. The ladder's tail weight S
is added at j=1 only, matching a generating function multiplied by
exp(w*S). The ground level, at zero energy, holds the rest of the
particles, so

    log Z(k) = log sum_{i<=k} Z_ex(i),
    P(n0 = N - k) = Z_ex(k) / Z(N),

and n0_variance, centred over P(n0), sums positive terms only. With no
excited level every Z_ex(k >= 1) is 0.

The model is the engine's, read from the spectrum alone: the unbounded
ladder is summed to m_max (auto_m_max when None) and its Boltzmann tail
closed, always (tail_closure takes True alone); the truncated model is a
finite ladder, TrapSpectrum(max_level=M), summed to its top level (a larger
m_max clamps to it) with tail weight 0.

Occupations follow from the exact identity P(n >= k) = e^{-k*E/T} Z(N-k)/Z(N)
for any state treated with Bose statistics:

    <n>    = sum_k e^{-kE/T} Z(N-k)/Z(N)
    <n_a n_b> = sum_{s=2..N} Z(N-s)/Z(N) sum_{k=1..s-1} a^k b^{s-k}
                (distinct states; a, b = e^{-Ea/T}, e^{-Eb/T})

Enumeration sums Boltzmann weights over every multiset of N states drawn
from a tiny explicit state list; it is exact to rounding and checks the
recursion itself. The O(N^2) build, not the O(N) moments, limits the
recursion to ORACLE_MAX_N particles; cost limits the enumeration to N <= 6
over at most 8 states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grand_canonical import _level_ladder, auto_m_max
from .spectrum import DomainError, TrapSpectrum, _finite_real, _integer

__all__ = [
    "RecursionTable",
    "recursion_table",
    "demon_ensemble",
    "EnumerationResult",
    "enumerate_exact",
    "ORACLE_MAX_N",
]

# The O(N^2) build takes 0.3 s at N = 10^4, 0.7-1.4 s at 2x10^4 from
# T/Tc = 0.3 to 30 (M = 135 to 11,509 levels) and 4-5 s at 5x10^4 on a
# 2-vCPU x86 host; at 2x10^4 its log Z, occupations and n0_variance are
# within 1e-11 of a long-double run (T/Tc = 0.3 and 1).
ORACLE_MAX_N = 20_000


@dataclass(frozen=True)
class RecursionTable:
    """log Z(k) and log Z_ex(k) for k = 0..n, and the model they come from."""

    spectrum: TrapSpectrum
    t: float
    n: int
    m_max: int
    log_z: np.ndarray = field(repr=False)
    log_z_excited: np.ndarray = field(repr=False)

    def occupation(self, energy: float) -> float:
        """<n> of one state at the given energy above the ground level."""
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return float(np.exp(-k * energy / self.t + self.log_z[self.n - 1 :: -1]
                            - self.log_z[self.n]).sum())

    def n0_variance(self) -> float:
        """Var(n0), centred over P(n0 = N - k) proportional to Z_ex(k)."""
        p = np.exp(self.log_z_excited - self.log_z_excited.max())
        p /= p.sum()
        k = np.arange(self.n + 1, dtype=np.float64)
        mean = float(p @ k)
        return float(p @ (k - mean) ** 2)

    def cross_moment(self, energy_a: float, energy_b: float) -> float:
        """<n_a n_b> for two distinct states. The inner sum over k is
        c^s rho (1 - rho^{s-1})/(1 - rho), c = max(a, b), rho = e^{-|Ea-Eb|/T};
        taking the log Z ratio first keeps the rounding near 1e-14."""
        s = np.arange(2, self.n + 1, dtype=np.float64)
        log_rho = -abs(energy_a - energy_b) / self.t
        if log_rho == 0.0:
            inner = np.log(s - 1.0)
        else:
            inner = (log_rho + np.log(-np.expm1((s - 1.0) * log_rho))
                     - math.log(-math.expm1(log_rho)))
        expo = (inner - s * min(energy_a, energy_b) / self.t
                + (self.log_z[: self.n - 1][::-1] - self.log_z[self.n]))
        return float(np.exp(expo).sum())


def recursion_table(
    spectrum: TrapSpectrum,
    t: float,
    n: int,
    m_max: int | None = None,
    tail_closure: bool = True,
) -> RecursionTable:
    """Build log Z_ex(0..n) on the excited levels, and log Z(0..n) from it."""
    _finite_real("temperature", t)
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


def demon_ensemble(spectrum: TrapSpectrum, t: float, n: int, m_max: int) -> dict:
    """Closed forms of the "Maxwell's demon" ensemble (Grossmann & Holthaus,
    PRL 79, 3557 (1997)): the ladder's levels 1..m_max and tail at unit
    fugacity, the ground level holding the rest; exact, at any N, once
    P(N_ex > N) is negligible. Returns n0, Var(n0), n1, log Z and the
    Chernoff bound on log10 P(N_ex > N)."""
    _finite_real("temperature", t)
    ladder = _level_ladder(spectrum, t, auto_m_max(spectrum, t, m_max))
    q, g, tail = ladder.boltzmann[1:], ladder.degeneracies[1:], ladder.tail_weight
    # Chernoff: log P(N_ex > N) <= log E[r^N_ex] - N log r, at r = q1^(-1/2)
    r = q[0] ** -0.5
    log_p = ((g * (np.log1p(-q) - np.log1p(-r * q))).sum() + tail * (r - 1.0)
             - n * math.log(r))
    return {"n0": n - (g * q / (1.0 - q)).sum() - tail,
            "n0_variance": (g * q / (1.0 - q) ** 2).sum() + tail,
            "n1": q[0] / (1.0 - q[0]),
            "log_z": tail - (g * np.log1p(-q)).sum(),
            "log10_p": log_p / math.log(10.0)}


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
    _finite_real("temperature", t)
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
