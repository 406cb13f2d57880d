"""Exact fixed-N references: boson recursion, one FFT of P(n0), enumeration.

These are deliberately independent of the contour-integral engine. The
recursion runs on the excited levels, energies measured from the ground
level, in log space (logsumexp) so magnitudes never overflow:

    Z_ex(k) = (1/k) * sum_{j=1..k} Z1_ex(j) * Z_ex(k-j),    Z_ex(0) = 1,
    Z1_ex(j) = sum_{m=1..M} g_m e^{-j*E_m/T},

a sum of positive terms over the levels of grand_canonical's one ladder
(the arithmetic is the oracle's own). The ladder's tail weight S is added
at j=1 only, matching a generating function multiplied by exp(w*S). The
ground level, at zero energy, holds the rest of the particles, so

    log Z(k) = log sum_{i<=k} Z_ex(i),
    P(n0 = N - k) = Z_ex(k) / Z(N).

With no excited level every Z_ex(k >= 1) is 0.

One helper, _recursion_values, reads the recursion (log Z by the running
logaddexp) in the dtype of its arrays: double in truth(), long double in
tests/longdouble_truth.py. Three bounds follow from np.finfo of that dtype.
np.exp is exactly 0 past -reach, reach = ln 2 - ln(smallest subnormal)
(745.13 in double), so each j sums only the levels with j*E_m/T <= reach:
zeros alone, at about reach*T*ln N exps instead of N*M. A term of Z_ex(k)
below eps^2 of its largest (cut = 2 ln eps) is left out: the at most N of
them add less than a rounding. The sum for n1(k) (below) ends at the
first step whose every term is below eps^2 of its running value.

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
n0, Var(n0), n1, cov(n0, n1) and <N_ex> from the one distribution P(k),
each centred over it (_centred_moments): no second moment is a difference
of two large sums, and <N_ex> is the mean of k, not N - n0, which loses
digits where N_ex is far below N.

truth() is the one place that picks a source for an (N, T): the
recursion up to ORACLE_MAX_N and _fft_truth above it, at every
temperature. Either is a DomainError at any N without the engine's level 1
(grand_canonical._level_one) or past the ladder's level cap, and the FFT
path also above _FFT_MAX_GRID points.

_fft_truth reads the same P(n0) from one FFT of the excited generating
function. With rho a radius and x_m = rho q_m (q_m = e^{-m/T}) for the
levels m >= 1,

    F_ex(z) = prod_{m>=1} (1 - x_m e^{-iz})^{-g_m} * exp(rho S e^{-iz})

has the Fourier coefficients c_k = Z_ex(k) rho^k (S is the ladder's tail
weight above its top level). One inverse FFT of F_ex on M points gives
them, and P(n0 = N - k) is proportional to c_k rho^-k for k <= N:

  - Radius. rho is the fugacity of solve_fugacity at mean number N. Where
    the excited mean mu = sum g a + rho S (a = x/(1 - x)) is below one
    particle there, the FFT's round-off floor would erase c_1; rho is
    raised until x_1 = 1e-3. mu and the variance sigma^2 are
    grand_canonical's _level_count and _level_variance at rho.
  - Grid (_fft_grid). M is the next power of two at or above
    24 sigma + 45 l + 16, and at least 64, with l = 1/ln(1/x_1) the decay
    length of the coefficients' geometric tail.
  - Cut. |F_ex| falls monotonically on [0, pi]; it is evaluated at
    z_j = 2 pi j/M only while log|F_ex| lies within 45 of its value at
    z = 0. Negative z follow by conjugate symmetry, and the rest of the
    grid is 0.
  - Centred log per level. With u = a (2 sin^2(z/2) + i sin z),
    1 - x e^{-iz} = (1 - x)(1 + u). Each level's log(1 + u) is taken with
    its mean phase a z removed: Re = log1p(2 Re u + |u|^2)/2 and
    Im = [atan c - c] - (Re u) c + a (sin z - z), c = Im u/(1 + Re u), with
    series for atan c - c and sin z - z below 0.1. The phases removed add
    up to mu z; the integrand is multiplied by e^{i k0 z}, k0 =
    min(N, round(mu)), so the phase left is (mu - k0) z, and coefficient
    k lands at FFT index (k - k0) mod M.
  - Moments. A second FFT, of F_ex x_1 e^{-iz}/(1 - x_1 e^{-iz}) =
    F_ex a_1 e^{-iz}/(1 + u_1), gives Z_ex(k) n1(k) rho^k. Each set of
    coefficients is zeroed below 1e-15 of its own peak. On
    k in [mu - 12 sigma, min(N, mu + 12 sigma + 45 l)], P(k) is weighted
    by log c_k - (k - k0) log rho, and the five moments come from
    _centred_moments, as from the recursion. log Z(N) = log F_ex(0)
    - k0 log rho plus the log of the weights' sum.

The method is not exact arithmetic, and tier-1 holds it: within 1e-12 of
every row of the long-double recursion (tests/data/longdouble_truth.csv,
up to N = 4x10^4), within 1e-13 of itself on a grid of 2M points, and
within 1e-12 of the demon ensemble's closed forms where those are
certified, below Tc up to N = 10^7.

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

from .grand_canonical import (_level_count, _level_ladder, _level_log_z,
                              _level_one, _level_variance, auto_m_max,
                              solve_fugacity)
from .spectrum import DomainError, TrapSpectrum, _finite_real, _integer

__all__ = [
    "RecursionTable",
    "recursion_table",
    "truth",
    "EnumerationResult",
    "enumerate_exact",
    "ORACLE_MAX_N",
]

# On a 2-vCPU x86 host the O(N^2) build takes 0.3 s at N = 10^4, 0.6-1.0 s
# at 2x10^4 from T/Tc = 0.3 to 30 (M = 135 to 11,509 levels) and 4-5 s at
# 5x10^4, and the moments at most 62 ms (2x10^4, T/Tc = 0.9). At 2x10^4
# near Tc all six truth() values are within 1e-11 of the long-double file.
ORACLE_MAX_N = 20_000


@dataclass(frozen=True)
class RecursionTable:
    """log Z(0..n) of one model; occupation() is the mean of one state."""

    spectrum: TrapSpectrum
    t: float
    n: int
    m_max: int
    log_z: np.ndarray = field(repr=False)

    def occupation(self, energy: float) -> float:
        """<n> of one state at a finite energy at or above the ground level."""
        energy = _finite_real("state energy", energy, allow_zero=True)
        k = np.arange(1, self.n + 1, dtype=np.float64)
        return float(np.exp(-k * energy / self.t + self.log_z[self.n - 1 :: -1]
                            - self.log_z[self.n]).sum())


@dataclass(frozen=True)
class Truth:
    """Exact log Z(N) and the moments of one (N, T) model, each read from
    P(n0) by _centred_moments, and their source ("recursion" or "fft")."""

    log_z: float
    n0: float
    n0_variance: float
    n1: float
    covariance_n0_n1: float
    ne_mean: float
    source: str


def recursion_table(spectrum: TrapSpectrum, t: float, n: int,
                    m_max: int | None = None,
                    tail_closure: bool = True) -> RecursionTable:
    """Build log Z(0..n), the running logaddexp of log Z_ex(0..n)."""
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    if tail_closure is not True:
        raise DomainError("the oracle always closes the tail; the truncated "
                          "model is the finite ladder TrapSpectrum(max_level=M)")
    if n > ORACLE_MAX_N:
        raise DomainError(f"recursion oracle capped at N={ORACLE_MAX_N} (got {n})")
    m_max = auto_m_max(spectrum, t, m_max)
    ladder = _level_ladder(spectrum, t, m_max)
    lz = _excited_log_z(ladder.energies[1:], ladder.degeneracies[1:],
                        ladder.tail_weight, t, n)
    return RecursionTable(spectrum, t, n, m_max, np.logaddexp.accumulate(lz))


def _excited_log_z(e: np.ndarray, g: np.ndarray, tail: float, t: float,
                   n: int) -> np.ndarray:
    """log Z_ex(0..n) on the excited levels e (ascending), g states each,
    and the tail weight, by the recursion in the dtype of e and g."""
    dt, info = e.dtype, np.finfo(e.dtype)
    t = dt.type(t)
    reach = np.log(dt.type(2)) - np.log(info.smallest_subnormal)
    top = np.searchsorted(e, reach * t / np.arange(1, n + 1), side="right")
    z1 = np.zeros(n, dtype=dt)
    for j, m in enumerate(top[top > 0], 1):  # m = 0 past some j: Z1_ex = 0
        z1[j - 1] = (g[:m] * np.exp(j * e[:m] / -t)).sum()
    z1[:1] += tail
    lz1 = np.log(z1, out=np.full(n, -np.inf, dtype=dt), where=z1 > 0)
    log_k = np.log(np.arange(1, n + 1, dtype=dt))
    lz = np.full(n + 1, -np.inf, dtype=dt)
    lz[0] = 0
    # Z1_ex(j) falls with j: an empty Z1_ex(1) leaves every Z_ex(k >= 1) at
    # zero, else all are positive; np.exp never meets a subnormal past cut
    cut = 2 * np.log(info.eps)
    if n and lz1[0] > -np.inf:
        for k in range(1, n + 1):
            terms = lz1[:k] + lz[k - 1 :: -1]
            mx = terms.max()
            terms -= mx
            expo = np.exp(terms, out=np.zeros(k, dt), where=terms > cut)
            lz[k] = mx + np.log(expo.sum()) - log_k[k - 1]
    return lz


def _recursion_values(e: np.ndarray, g: np.ndarray, tail: float, t: float,
                      n: int) -> tuple[float, ...]:
    """Truth's six values in its order, as doubles, by the recursion on the
    excited levels e, g states each, and the tail weight, in the dtype of e
    and g: log Z(N), the running logaddexp of log Z_ex(0..N), and the five
    moments, with the level-1 state's mean n1(k) (module doc) at each k."""
    lz = _excited_log_z(e, g, tail, t, n)
    t = lz.dtype.type(t)
    # P(k) is log-concave: past the k within e^-80 of its peak, widened by
    # one each side, each P(k) is below e^-80 of a kept one, and the N+1 at
    # most move no moment by a rounding, even at T below 1/80
    k = np.flatnonzero(lz >= lz.max() - 80)
    lo, hi = max(k[0] - 1, 0), min(k[-1] + 2, n + 1)
    own = lz[lo:hi]
    # Z_ex(k - s) for k < s is 0: pad log Z_ex below k = 0 with -inf
    pad = np.concatenate((np.full(hi, -np.inf, dtype=lz.dtype), lz))
    n1 = np.zeros(hi - lo, dtype=lz.dtype)
    stop = np.finfo(lz.dtype).eps ** 2
    for s in range(1, hi):
        term = np.exp(pad[hi + lo - s : 2 * hi - s] - own - s / t)
        n1 += term
        if np.all(term <= stop * n1):  # P(n1 >= s | k) falls with s
            break
    return (float(np.logaddexp.reduce(lz)),
            *_centred_moments(own, n, np.arange(lo, hi, dtype=lz.dtype), n1))


def _centred_moments(log_w: np.ndarray, n: int, k: np.ndarray,
                     n1: np.ndarray) -> tuple[float, ...]:
    """<n0>, Var(n0), <n1>, cov(n0, n1) and <N_ex> over P proportional to
    exp(log_w), with k excited (n0 = N - k) and n1 at each weight. Every
    moment is centred over P: none is a difference of two large sums."""
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    n0 = n - k
    mean0, mean1 = p @ n0, p @ n1
    d0 = n0 - mean0
    return (float(mean0), float(p @ d0 ** 2), float(mean1),
            float(p @ (d0 * (n1 - mean1))), float(p @ k))


# Taylor coefficients of (atan c - c)/c^3 in c^2 and of (sin z - z)/z^3 in
# z^2; below 0.1 the truncation is under 2e-17 relative.
_ATAN_SERIES = [(-1) ** (j + 1) / (2 * j + 3) for j in range(8)]
_SIN_SERIES = [(-1) ** (j + 1) / math.factorial(2 * j + 3) for j in range(6)]
# The FFT path's cost limit, checked before any evaluation: a grid of
# 2^22 points holds 64 MiB per complex array. At Tc the rule asks for
# 2^17 points at N = 10^7 (35 ms on a 2-vCPU x86 host) and 2^22 at 10^10
# (1.1 s).
_FFT_MAX_GRID = 1 << 22


def _minus_linear(v: np.ndarray, exact: np.ndarray, series) -> np.ndarray:
    """exact - v, by its odd series in v below |v| = 0.1."""
    v2 = v * v
    poly = np.zeros_like(v)
    for coeff in reversed(series):
        poly = poly * v2 + coeff
    return np.where(np.abs(v) < 0.1, v * v2 * poly, exact - v)


def _log_g(z: np.ndarray, a: np.ndarray, g: np.ndarray, tail: float,
           shift: float) -> tuple[np.ndarray, np.ndarray]:
    """log(F_ex(z) e^{i k0 z}/F_ex(0)) at z in [0, pi], with shift =
    mu - k0; and 1 + u of level 1 there, for the n1 transform."""
    sin_z = np.sin(z)
    s2 = 2.0 * np.sin(0.5 * z) ** 2  # 1 - cos z
    re_u = np.outer(a, s2)
    im_u = np.outer(a, sin_z)
    re_r = 0.5 * np.log1p(2.0 * re_u + re_u * re_u + im_u * im_u)
    c = im_u / (1.0 + re_u)
    sin_minus_z = _minus_linear(z, sin_z, _SIN_SERIES)
    im_r = (_minus_linear(c, np.arctan(c), _ATAN_SERIES) - re_u * c
            + np.outer(a, sin_minus_z))
    real = -(g @ re_r) - tail * s2
    imag = -(g @ im_r) - tail * sin_minus_z - shift * z
    return real + 1j * imag, (1.0 + re_u[0]) + 1j * im_u[0]


def _fft_grid(sigma: float, ell: float) -> int:
    """The FFT path's grid M from the excited spread sigma and the decay
    length l of the coefficients' tail."""
    return max(64, 1 << math.ceil(math.log2(24.0 * sigma + 45.0 * ell + 16.0)))


def _fft_truth(spectrum: TrapSpectrum, t: float, n: int,
               m_max: int | None) -> Truth:
    """The six values of Truth on the engine's model (the ladder
    solve_fugacity builds, m_max resolved by auto_m_max) from one FFT of
    P(n0), as the module doc sets out. A grid above
    _FFT_MAX_GRID is a DomainError before any evaluation."""
    state = solve_fugacity(spectrum, t, n, m_max=m_max)
    ladder = state.ladder
    q, g = ladder.boltzmann[1:], ladder.degeneracies[1:]
    rho = state.relative_fugacity
    if _level_count(rho * q, g, rho * ladder.tail_weight) < 1.0:
        rho = max(rho, 1e-3 / q[0])
    x, tail = rho * q, rho * ladder.tail_weight
    mu, sigma = _level_count(x, g, tail), math.sqrt(_level_variance(x, g, tail))
    ell = -1.0 / math.log(x[0])
    m = _fft_grid(sigma, ell)
    if m > _FFT_MAX_GRID:
        raise DomainError(
            f"no truth at N={n}, T={t}: its FFT grid of M={m} points is above "
            f"the limit of {_FFT_MAX_GRID} points")
    k0 = min(n, round(mu))
    a = x / (1.0 - x)

    # z_j = 2 pi j/M on [0, pi] in blocks, up to the first point where
    # log|F_ex| has fallen by 45 (it falls monotonically)
    half = m // 2
    logs, ones = [], []
    j = 0
    while j <= half:
        stop = min(half + 1, j + max(64, j))
        lg, one_u = _log_g(2.0 * math.pi * np.arange(j, stop) / m, a, g,
                           tail, mu - k0)
        inside = lg.real >= -45.0
        logs.append(lg[inside])
        ones.append(one_u[inside])
        if not inside.all():
            break
        j = stop
    f = np.exp(np.concatenate(logs))
    z = 2.0 * math.pi * np.arange(f.size) / m
    h = f * a[0] * np.exp(-1j * z) / np.concatenate(ones)

    coeffs = []
    for values in (f, h):
        grid = np.zeros(m, dtype=np.complex128)
        grid[:values.size] = values
        mirror = values[1:min(values.size, half)]
        grid[m - mirror.size:] = np.conj(mirror[::-1])
        c = np.fft.ifft(grid).real
        c[c < 1e-15 * c.max()] = 0.0
        coeffs.append(c)

    lo = max(0, math.ceil(mu - 12.0 * sigma))
    hi = min(n, math.floor(mu + 12.0 * sigma + 45.0 * ell))
    k = np.arange(lo, hi + 1)
    c, b = (coeff[(k - k0) % m] for coeff in coeffs)
    k, c, b = k[c > 0.0], c[c > 0.0], b[c > 0.0]
    log_w = np.log(c) - (k - k0) * math.log(rho)
    top = log_w.max()
    log_z = (_level_log_z(x, g, tail) - k0 * math.log(rho) + top
             + math.log(np.exp(log_w - top).sum()))
    return Truth(float(log_z), *_centred_moments(log_w, n, k, b / c),
                 source="fft")


def truth(spectrum: TrapSpectrum, t: float, n: int,
          m_max: int | None = None) -> Truth:
    """The exact fixed-N values on the engine's model (m_max resolved by
    auto_m_max): the recursion up to ORACLE_MAX_N particles, and one FFT of
    P(n0) above, at every temperature. A ladder without level 1, one past
    the level cap, and an FFT grid above _FFT_MAX_GRID are each a
    DomainError.
    """
    t = _finite_real("temperature", t)
    n = _integer("particle number", n, 0)
    m_max = auto_m_max(spectrum, t, m_max)
    _level_one(t, m_max)
    if n <= ORACLE_MAX_N:
        ladder = _level_ladder(spectrum, t, m_max)
        return Truth(*_recursion_values(
            ladder.energies[1:], ladder.degeneracies[1:], ladder.tail_weight,
            t, n), source="recursion")
    return _fft_truth(spectrum, t, n, m_max)


@dataclass(frozen=True)
class EnumerationResult:
    """Exact sums over every way to place n particles on the given states."""

    z: float
    mean: np.ndarray        # <n_i> per state
    cross: np.ndarray       # <n_i n_j> matrix; <n_i^2> on its diagonal


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
    cross = np.zeros((s, s))
    occ = np.zeros(s)
    for combo in itertools.combinations_with_replacement(range(s), n):
        occ[:] = 0.0
        for i in combo:
            occ[i] += 1.0
        w = math.exp(-float(np.dot(occ, energies)) / t)
        z += w
        mean += w * occ
        cross += w * np.outer(occ, occ)
    return EnumerationResult(z, mean / z, cross / z)
