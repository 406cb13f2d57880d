"""P(n0) from one FFT of the excited generating function: the method of
ROADMAP item 2, kept offline and checked, and its agreement rows.

    PYTHONPATH=src python tests/fft_agreement.py   # self-check, then write

At N particles the ground state holds N - k of them when the excited
levels hold k, so P(n0 = N - k) is proportional to Z_ex(k). With rho a
radius and x_m = rho q_m (q_m = e^{-m/T}) for the levels m >= 1, the
excited generating function

    F_ex(z) = prod_{m>=1} (1 - x_m e^{-iz})^{-g_m} * exp(rho S e^{-iz})

has the Fourier coefficients c_k = Z_ex(k) rho^k (S is the ladder's tail
weight above its top level). One inverse FFT of F_ex on M points gives
them, and P(k) is proportional to c_k rho^-k for k <= N. The choices:

  - Radius. rho is the fugacity of solve_fugacity at mean number N. Where
    the excited mean mu = sum g a + rho S (a = x/(1 - x)) is below one
    particle there, the FFT's round-off floor would erase c_1; rho is
    raised until x_1 = 1e-3. mu and the variance sigma^2 are
    grand_canonical's _level_count and _level_variance at rho.
  - Grid. M is the next power of two at or above 24 sigma + 45 l + 16,
    and at least 64, with l = 1/ln(1/x_1) the decay length of the
    coefficients' geometric tail.
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
    F_ex a_1 e^{-iz}/(1 + u_1), gives Z_ex(k) n1(k) rho^k, where n1(k) is
    the mean of one level-1 state with k excited particles. Each set of
    coefficients is zeroed below 1e-15 of its own peak. On
    k in [mu - 12 sigma, min(N, mu + 12 sigma + 45 l)], P(k) is weighted
    by log c_k - (k - k0) log rho, and <n0>, Var(n0), <n1>,
    cov(n0, n1) and <N_ex>, the mean of k, come from
    oracle._centred_moments, as truth() takes them from the recursion.
    log Z(N) = log F_ex(0) - k0 log rho plus the log of the weights' sum.

Self-check (before any write, and in tier-1): all six values, log Z, <n0>,
Var(n0), <n1>, cov(n0, n1) and <N_ex>, against every row of
tests/data/longdouble_truth.csv, with 1e-12 relative as the target
(log Z: 1e-12 max(1, |log Z|); cov: 1e-12 |cov + n0 n1|; the gaps of
tests/longdouble_truth.py), and each value against the same method on a
grid of 2M points within 1e-13, on the same scales. It prints the worst
gap per value, lists every row that misses, and exits 1 if one does.

Rows: N in {10^5, 10^6} x T/Tc in {0.9, 0.97, 1.0, 1.05, 1.2, 2, 3} on the
unbounded ladder, past the recursion's cap, where the repo has no exact
value near Tc. Each row holds the method's grid M, its six values and its
own 2M gap. The script runs no engine: tier-1 holds the engine to these
rows, a second method and not an exact truth, and recomputes them.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

from bosecanon import TrapSpectrum, critical_temperature
from bosecanon.grand_canonical import (_level_count, _level_log_z,
                                       _level_variance, solve_fugacity)
from bosecanon.oracle import _centred_moments
from longdouble_truth import VALUES, gaps

DATA = Path(__file__).parent / "data"
TRUTH = DATA / "longdouble_truth.csv"
OUT = DATA / "fft_agreement.csv"
TRUTH_REL = 1e-12
DOUBLING_REL = 1e-13
ROWS = [(n, f) for n in (10**5, 10**6)
        for f in (0.9, 0.97, 1.0, 1.05, 1.2, 2.0, 3.0)]
HEADER = ("# A second method, not an exact truth: one FFT of the excited "
          "generating function (tests/fft_agreement.py writes its grid M, "
          "its values and its relative gap to itself on 2M points).\n")

# Taylor coefficients of (atan c - c)/c^3 in c^2 and of (sin z - z)/z^3 in
# z^2; below 0.1 the truncation is under 2e-17 relative.
ATAN_SERIES = [(-1) ** (j + 1) / (2 * j + 3) for j in range(8)]
SIN_SERIES = [(-1) ** (j + 1) / math.factorial(2 * j + 3) for j in range(6)]


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
    sin_minus_z = _minus_linear(z, sin_z, SIN_SERIES)
    im_r = (_minus_linear(c, np.arctan(c), ATAN_SERIES) - re_u * c
            + np.outer(a, sin_minus_z))
    real = -(g @ re_r) - tail * s2
    imag = -(g @ im_r) - tail * sin_minus_z - shift * z
    return real + 1j * imag, (1.0 + re_u[0]) + 1j * im_u[0]


def fft_values(spectrum: TrapSpectrum, t: float, n: int,
               m_max: int | None = None, grid_factor: int = 1) -> dict:
    """log Z(N), <n0>, Var(n0), <n1>, cov(n0, n1) and <N_ex> of the engine's
    model (the ladder solve_fugacity builds, m_max resolved by auto_m_max),
    with the grid grid_factor times the rule's M; and the M used."""
    state = solve_fugacity(spectrum, t, n, m_max=m_max)
    ladder = state.ladder
    q, g = ladder.boltzmann[1:], ladder.degeneracies[1:]
    rho = state.relative_fugacity
    if _level_count(rho * q, g, rho * ladder.tail_weight) < 1.0:
        rho = max(rho, 1e-3 / q[0])
    x, tail = rho * q, rho * ladder.tail_weight
    mu, sigma = _level_count(x, g, tail), math.sqrt(_level_variance(x, g, tail))
    ell = -1.0 / math.log(x[0])
    m = max(64, 1 << math.ceil(math.log2(24.0 * sigma + 45.0 * ell + 16.0)))
    m *= grid_factor
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
    moments = _centred_moments(log_w, (n - k).astype(np.float64), b / c)
    ne = _centred_moments(log_w, k.astype(np.float64), b / c)[0]
    top = log_w.max()
    log_z = (_level_log_z(x, g, tail) - k0 * math.log(rho) + top
             + math.log(np.exp(log_w - top).sum()))
    return {**dict(zip(VALUES, (float(log_z), *moments, ne))), "grid": m}


def _doubling_gap(spectrum, t, n, m_max, values) -> float:
    twice = fft_values(spectrum, t, n, m_max, grid_factor=2)
    return max(gaps(values, twice).values())


def self_check() -> bool:
    """The method against every row of the long-double file, and against
    itself on twice the grid; prints the worst gaps and every miss."""
    worst = dict.fromkeys((*VALUES, "2M"), (0.0, None))
    misses = []
    started = time.perf_counter()
    with TRUTH.open() as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        max_level = int(r["max_level"]) if r["max_level"] else None
        m_asked = int(r["m_max"]) if r["m_max"] else None
        spec, n, t = TrapSpectrum(max_level=max_level), int(r["n"]), float(r["t"])
        where = (f"N={n} T/Tc={r['t_over_tc'] or '-'} T={t!r} "
                 f"max_level={r['max_level'] or '-'} m_max={r['m_max'] or '-'}")
        got = fft_values(spec, t, n, m_asked)
        row_gaps = gaps(got, r)
        row_gaps["2M"] = _doubling_gap(spec, t, n, m_asked, got)
        for name, gap in row_gaps.items():
            if gap >= worst[name][0]:
                worst[name] = (gap, where)
            bound = DOUBLING_REL if name == "2M" else TRUTH_REL
            if not gap <= bound:
                misses.append(f"{where}: {name} {gap:.2e} (target {bound:.0e})")
    print(f"{len(rows)} rows of {TRUTH.name} in "
          f"{time.perf_counter() - started:.1f} s; worst relative gap "
          f"(target {TRUTH_REL:.0e}; 2M: the same method on twice the grid, "
          f"target {DOUBLING_REL:.0e}):")
    for name, (gap, where) in worst.items():
        print(f"  {name}: {gap:.2e} ({where})")
    for miss in misses:
        print(f"MISS {miss}")
    return not misses


def agreement_rows() -> list:
    spec = TrapSpectrum()
    out = []
    for n, f in ROWS:
        t = f * critical_temperature(spec, n)
        tick = time.perf_counter()
        got = fft_values(spec, t, n)
        doubling = _doubling_gap(spec, t, n, None, got)
        out.append([n, repr(f), repr(t), got["grid"]]
                   + [repr(got[name]) for name in VALUES] + [f"{doubling:.2e}"])
        print(f"N={n} T/Tc={f}: {time.perf_counter() - tick:.2f} s (M = "
              f"{got['grid']}, 2M gap {doubling:.1e})", flush=True)
    return out


def main() -> int:
    if not self_check():
        return 1
    rows = agreement_rows()
    with OUT.open("w", newline="") as fh:
        fh.write(HEADER)
        w = csv.writer(fh)
        w.writerow(("n", "t_over_tc", "t", "grid", *VALUES, "fft_2m_gap"))
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
