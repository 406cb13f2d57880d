"""Exact fixed-N references: boson recursion and brute-force enumeration.

These are deliberately independent of the contour-integral engine. The
recursion builds the N-particle partition function from single-particle
partition functions at stretched inverse temperatures,

    Z(k) = (1/k) * sum_{j=1..k} Z1(j/T) * Z(k-j),    Z(0) = 1,

evaluated entirely in log space (logsumexp) so magnitudes never overflow.
Z1 comes in three flavours so the oracle can match the engine's model
exactly, not just the physics:

  * full:      Z1(j/T) = e^{-j*E0/T} (1 - q_j)^{-3},  q_j = e^{-j*spacing/T}
               (closed form of sum_m (m+1)(m+2)/2 x^m = (1-x)^{-3})
  * truncated: the partial sum over levels 0..m_max
  * mb tail:   truncated plus the spectrum's Boltzmann-order tail weight
               (TrapSpectrum.tail_weight) added at j=1 only, matching a
               generating function multiplied by exp(w*S_tail)

The model is read from the spectrum: a finite ladder is summed to its top
level, and a larger requested m_max clamps to it, as in the engine; a
finite ladder has no tail, so the closure adds nothing there.

Occupations follow from the exact identity P(n >= k) = e^{-k*E/T} Z(N-k)/Z(N)
for any state treated with Bose statistics:

    <n>    = sum_k e^{-kE/T} Z(N-k)/Z(N)
    <n^2>  = sum_k (2k-1) e^{-kE/T} Z(N-k)/Z(N)
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
                       weighted_geometric_partial)

__all__ = [
    "RecursionTable",
    "recursion_table",
    "EnumerationResult",
    "enumerate_exact",
    "ORACLE_MAX_N",
]

# The O(N^2) build takes 0.3-0.8 s at N = 10^4, 0.7-1.9 s at 2x10^4 and
# 10-14 s at 5x10^4 on a 2-vCPU x86 host; its occupations and log Z stay
# within 2e-11 of a long-double run up to 5x10^4, so cost sets the cap.
ORACLE_MAX_N = 20_000


def _log_z1(spectrum: TrapSpectrum, t: float, j: int, m_max: int | None,
            tail_closure: bool) -> float:
    q = math.exp(-j * spectrum.level_spacing / t)
    lead = -j * spectrum.ground_offset / t
    if m_max is None:
        return lead - 3.0 * math.log1p(-q)
    s = weighted_geometric_partial(q, m_max)
    if tail_closure and j == 1:
        s += spectrum.tail_weight(t, m_max)
    return lead + math.log(s)


@dataclass(frozen=True)
class RecursionTable:
    """log Z(k) for k = 0..n, plus the model it was built from."""

    spectrum: TrapSpectrum
    t: float
    n: int
    m_max: int | None
    tail_closure: bool
    log_z: np.ndarray = field(repr=False)

    def partition_ratio(self, k: int) -> float:
        """Z(k)/Z(k-1)."""
        return math.exp(self.log_z[k] - self.log_z[k - 1])

    def _state_weights(self, energy: float) -> np.ndarray:
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return np.exp(-k * energy / self.t + self.log_z[self.n - 1 :: -1] - self.log_z[self.n])

    def occupation(self, energy: float) -> float:
        """<n> of one state at the given absolute energy."""
        return float(self._state_weights(energy).sum())

    def occupation_second_moment(self, energy: float) -> float:
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return float(((2.0 * k - 1.0) * self._state_weights(energy)).sum())

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
    """Build log Z(0..n) by the boson recursion, logsumexp-stabilised."""
    _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    if n > ORACLE_MAX_N:
        raise DomainError(f"recursion oracle capped at N={ORACLE_MAX_N} (got {n})")
    if m_max is not None or spectrum.max_level is not None:
        m_max = spectrum.resolved_max_level(m_max)
    elif tail_closure:
        raise DomainError("tail closure on the unbounded ladder needs an m_max")
    lz1 = np.array(
        [_log_z1(spectrum, t, j, m_max, tail_closure) for j in range(1, n + 1)]
    )
    lz = np.empty(n + 1)
    lz[0] = 0.0
    for k in range(1, n + 1):
        terms = lz1[:k] + lz[k - 1 :: -1]
        mx = terms.max()
        lz[k] = mx + math.log(np.exp(terms - mx).sum()) - math.log(k)
    return RecursionTable(spectrum, t, n, m_max, tail_closure, lz)


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
