"""Exact fixed-N references: boson recursion and brute-force enumeration.

These are deliberately independent of the contour-integral engine. The
recursion runs on the excited levels, energies measured from the ground
level, in log space (logsumexp) so magnitudes never overflow:

    Z_ex(k) = (1/k) * sum_{j=1..k} Z1_ex(j) * Z_ex(k-j),    Z_ex(0) = 1,
    Z1_ex(j) = sum_{m=1..M} g_m q^m = q (3 - 3q + q^2)/(1-q)^3 - tail(q, M)

with q = e^{-j*spacing/T} and tail = weighted_geometric_tail (none without
an M): the closed form of (1-q)^{-3} - 1 without the subtraction, which
loses every digit at small q. The tail closure adds the spectrum's
Boltzmann-order tail weight (TrapSpectrum.tail_weight) at j=1 only,
matching a generating function multiplied by exp(w*S_tail). The ground
level holds the rest of the particles, so

    log Z(k) = log sum_{i<=k} Z_ex(i) - k*E0/T,
    P(n0 = N - k) = Z_ex(k) e^{-N*E0/T} / Z(N),

and n0_variance, centred over P(n0), sums positive terms only. With no
excited level every Z_ex(k >= 1) is 0.

The model is read from the spectrum: a finite ladder is summed to its top
level, and a larger requested m_max clamps to it, as in the engine; a
finite ladder has no tail, so the closure adds nothing there.

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

from .spectrum import (DomainError, TrapSpectrum, _finite_real, _integer,
                       weighted_geometric_tail)

__all__ = [
    "RecursionTable",
    "recursion_table",
    "EnumerationResult",
    "enumerate_exact",
    "ORACLE_MAX_N",
]

# The O(N^2) build takes 0.3 s at N = 10^4, 0.5-0.9 s at 2x10^4 and 4-5 s
# at 5x10^4 on a 2-vCPU x86 host; at 2x10^4 its log Z, occupations and
# n0_variance are within 1e-11 of a long-double run (T/Tc = 0.3 and 1).
ORACLE_MAX_N = 20_000


def _log_z1_excited(spectrum: TrapSpectrum, t: float, j: int,
                    m_max: int | None, tail_closure: bool) -> float:
    """log Z1_ex(j); -inf where the excited sum is empty or underflows."""
    q = math.exp(-j * spectrum.level_spacing / t)
    s = q * (3.0 - 3.0 * q + q * q) / (1.0 - q) ** 3
    if m_max is not None:
        s = s - weighted_geometric_tail(q, m_max) if m_max > 0 else 0.0
    if tail_closure and j == 1:
        s += spectrum.tail_weight(t, m_max)
    return math.log(s) if s > 0.0 else -math.inf


@dataclass(frozen=True)
class RecursionTable:
    """log Z(k) and log Z_ex(k) for k = 0..n, and the model they come from."""

    spectrum: TrapSpectrum
    t: float
    n: int
    m_max: int | None
    tail_closure: bool
    log_z: np.ndarray = field(repr=False)
    log_z_excited: np.ndarray = field(repr=False)

    def partition_ratio(self, k: int) -> float:
        """Z(k)/Z(k-1)."""
        return math.exp(self.log_z[k] - self.log_z[k - 1])

    def _state_weights(self, energy: float) -> np.ndarray:
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return np.exp(-k * energy / self.t + self.log_z[self.n - 1 :: -1] - self.log_z[self.n])

    def occupation(self, energy: float) -> float:
        """<n> of one state at the given absolute energy."""
        return float(self._state_weights(energy).sum())

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
    tail_closure: bool = False,
) -> RecursionTable:
    """Build log Z_ex(0..n) on the excited levels, and log Z(0..n) from it."""
    _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    if n > ORACLE_MAX_N:
        raise DomainError(f"recursion oracle capped at N={ORACLE_MAX_N} (got {n})")
    if m_max is not None or spectrum.max_level is not None:
        m_max = spectrum.resolved_max_level(m_max)
    elif tail_closure:
        raise DomainError("tail closure on the unbounded ladder needs an m_max")
    lz1 = np.array([_log_z1_excited(spectrum, t, j, m_max, tail_closure)
                    for j in range(1, n + 1)])
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
    k = np.arange(n + 1, dtype=np.float64)
    log_z = np.logaddexp.accumulate(lz) - k * spectrum.ground_offset / t
    return RecursionTable(spectrum, t, n, m_max, tail_closure, log_z, lz)


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
