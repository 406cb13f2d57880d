"""Write tests/data/longdouble_truth.csv: exact fixed-N values in long double.

    PYTHONPATH=src python tests/longdouble_truth.py

For each row (spectrum, N, T, m_max) it builds the oracle's recursion

    Z_ex(k) = (1/k) sum_{j=1..k} Z1_ex(j) Z_ex(k-j),
    Z1_ex(j) = sum_{m>=1} g_m e^{-j E_m/T} (+ the tail weight S at j = 1),

in np.longdouble on the ladder grand_canonical._level_ladder builds, the
model of oracle.truth() and of the engine, and reads log Z(N), <n0>,
Var(n0), <n1>, cov(n0, n1) and <N_ex> (ne_mean, the mean of k, which N - <n0>
loses where N_ex is far below N) from P(n0 = N - k) proportional to Z_ex(k)
with truth()'s own oracle._centred_moments, given the level-1 state's mean
n1(k) = sum_{s>=1} e^{-s/T} Z_ex(k-s)/Z_ex(k) at each k in long double.
The values are written as the doubles nearest them.

The double recursion carries up to 2.9e-11 of its own rounding in n0 near
Tc at N = 10^4; a long double (64-bit significand, eps 1.08e-19 on x86)
brings that to the 1e-15 level. The script refuses to run where
np.longdouble is not such a type (eps above 1e-18). Before it writes it
checks itself:
  - log Z, n0 and n1 against the double recursion (oracle.recursion_table,
    whose n0 and n1 are survival sums, not centred moments) wherever
    N <= ORACLE_MAX_N: within 1e-10 relative (log Z: 1e-10 max(1, |log Z|));
    at N <= 1000 log Z within 1e-13, and n0 and n1 within 1e-12, since the
    double survival sums are 6.9e-13 off mpmath at (1000, 3 Tc);
  - all six values against the same recursion in mpmath at 30 digits at
    N <= 100, within MPMATH_REL.
mpmath is not a dependency of the package; only this script imports it.

Rows: the fig1 preset (129); the edges of the engine's domain up to
N = 2x10^4 (N = 3 at T/Tc = 0.01, N = 100 and 1000 at 0.01 and 3, N = 200
at 0.5 and 1.2, N = 10^4 at 0.05 and 3, N = 2x10^4 at 0.05, and four rows
given by T: on two finite ladders, with m_max asked and on the unbounded
ladder); and N in {2x10^4, 4x10^4} at T/Tc in {0.9, 0.97, 1.0, 1.05, 1.2}:
153 rows. Tier-1 holds the engine to every row, and oracle.truth() to every
row up to N = 1000 and at (10^4, 3). The O(N^2) long-double
recursion takes most of the time: on a 2-vCPU x86 host a row took 1-5 s at
10^4, 7 s at 2x10^4 near Tc (22 s at T/Tc = 0.05) and 16-25 s at 4x10^4,
and the whole run 290 s.
"""

from __future__ import annotations

import csv
import sys
import time
from pathlib import Path

import numpy as np

from bosecanon import TrapSpectrum, critical_temperature
from bosecanon.grand_canonical import _level_ladder, auto_m_max
from bosecanon.oracle import ORACLE_MAX_N, _centred_moments, recursion_table
from bosecanon.sweep import PRESETS

LD = np.longdouble
OUT = Path(__file__).parent / "data" / "longdouble_truth.csv"
COLUMNS = ("max_level", "m_max", "n", "t_over_tc", "t", "log_z", "n0",
           "n0_variance", "n1", "covariance_n0_n1", "ne_mean")
VALUES = COLUMNS[5:]
# mpmath at 30 digits against the long-double run, relative, at N <= 100.
MPMATH_REL = 1e-15
# Z1_ex(j) keeps the levels with j E/T up to this: e^-11000 is a normal
# long double, and every level dropped weighs below it next to level 1.
EXP_REACH = 11_000


def rows():
    """(max_level, m_max asked, N, T/Tc or None, T) for every row, once."""
    spec = TrapSpectrum()
    fig1 = PRESETS["fig1"]
    at = [(n, f) for n in fig1.particles for f in fig1.grid()]
    at += [(10_000, 0.05), (10_000, 0.1), (ORACLE_MAX_N, 0.05), (10_000, 0.6),
           (10_000, 1.35), (10_000, 3.0), (3, 0.01), (100, 0.01), (100, 3.0),
           (1000, 0.01), (1000, 3.0), (200, 0.5), (200, 1.2)]
    at += [(n, f) for n in (20_000, 40_000)
           for f in (0.9, 0.97, 1.0, 1.05, 1.2)]
    out = [(None, None, n, f, f * critical_temperature(spec, n))
           for n, f in dict.fromkeys(at)]
    # rows given by T, on a finite ladder or with m_max asked
    return out + [(45, None, 60, None, 4.0), (None, 45, 60, None, 4.0),
                  (None, None, 30, None, 4.0), (400, None, 200, None, 10.0)]


def excited_log_z(ladder, t: float, n: int) -> np.ndarray:
    """log Z_ex(0..n) by the recursion in long double."""
    t = LD(t)
    e = ladder.energies[1:].astype(LD)
    g = ladder.degeneracies[1:].astype(LD)
    lz1 = np.full(n, -np.inf, dtype=LD)
    for j in range(1, n + 1):
        m = int(np.searchsorted(e, EXP_REACH * t / j, side="right"))
        z = (g[:m] * np.exp(-(j * e[:m]) / t)).sum()
        if j == 1:
            z += LD(ladder.tail_weight)
        if z > 0:
            lz1[j - 1] = np.log(z)
    lz = np.full(n + 1, -np.inf, dtype=LD)
    lz[0] = 0
    if n and lz1[0] > -np.inf:
        for k in range(1, n + 1):
            terms = lz1[:k] + lz[k - 1 :: -1]
            mx = terms.max()
            terms -= mx
            # below e^-60 of the largest a term adds less than a rounding
            expo = np.exp(terms, out=np.zeros(k, dtype=LD), where=terms > -60)
            lz[k] = mx + np.log(expo.sum()) - np.log(LD(k))
    return lz


def moments(lz: np.ndarray, n: int, t: float) -> dict:
    """truth()'s five values and <N_ex> from log Z_ex(0..n), in long
    double."""
    t = LD(t)
    mx = lz.max()
    log_z = mx + np.log(np.exp(lz - mx).sum())
    k = np.flatnonzero(lz >= mx - 80)
    lo, hi = max(k[0] - 1, 0), min(k[-1] + 2, n + 1)
    own = lz[lo:hi]
    # n1(k) for k in [lo, hi): Z_ex(k - s) is 0 below k = s
    pad = np.concatenate((np.full(hi, -np.inf, dtype=LD), lz))
    n1k = np.zeros(hi - lo, dtype=LD)
    for s in range(1, hi):
        term = np.exp(pad[hi + lo - s : 2 * hi - s] - own - s / t)
        n1k += term
        if np.all(term <= 1e-24 * n1k):
            break
    k = np.arange(lo, hi).astype(LD)
    return dict(zip(VALUES, (log_z, *_centred_moments(own, n - k, n1k),
                             _centred_moments(own, k, n1k)[0])))


def mpmath_values(ladder, t: float, n: int) -> dict:
    """The same six values from the recursion in mpmath at 30 digits."""
    import mpmath as mp

    mp.mp.dps = 30
    t = mp.mpf(t)
    e, g = ladder.energies[1:], ladder.degeneracies[1:]
    z1 = [None] + [mp.fsum(mp.mpf(gm) * mp.exp(-j * mp.mpf(em) / t)
                           for em, gm in zip(e, g)) for j in range(1, n + 1)]
    if n:
        z1[1] += mp.mpf(ladder.tail_weight)
    zx = [mp.mpf(1)]
    for k in range(1, n + 1):
        zx.append(mp.fsum(z1[j] * zx[k - j] for j in range(1, k + 1)) / k)
    total = mp.fsum(zx)
    p = [z / total for z in zx]
    n1k = [mp.fsum(mp.exp(-s / t) * zx[k - s] for s in range(1, k + 1)) / zx[k]
           for k in range(n + 1)]
    n0 = mp.fsum(pk * (n - k) for k, pk in enumerate(p))
    n1 = mp.fsum(pk * a for pk, a in zip(p, n1k))
    d0 = [n - k - n0 for k in range(n + 1)]
    return {"log_z": mp.log(total), "n0": n0,
            "n0_variance": mp.fsum(pk * d ** 2 for pk, d in zip(p, d0)),
            "n1": n1, "covariance_n0_n1": mp.fsum(
                pk * d * (a - n1) for pk, d, a in zip(p, d0, n1k)),
            "ne_mean": mp.fsum(pk * k for k, pk in enumerate(p))}


def gaps(got, want, names=VALUES) -> dict:
    """Each named value's gap to want, relative to |want| (log Z: to
    max(1, |log Z|); cov(n0, n1): to |cov + n0 n1|, the raw <n0 n1>)."""
    out = {}
    for name in names:
        w = float(want[name])
        scale = (max(1.0, abs(w)) if name == "log_z"
                 else abs(w + float(want["n0"]) * float(want["n1"]))
                 if name == "covariance_n0_n1" else abs(w))
        out[name] = abs(float(got[name]) - w) / scale
    return out


def main() -> int:
    eps = float(np.finfo(LD).eps)
    if eps > 1e-18:
        print(f"np.longdouble has eps {eps:.3g} here, not an extended "
              "type: refusing to write a long-double truth", file=sys.stderr)
        return 2
    started = time.perf_counter()
    out, failures = [], []
    for max_level, m_asked, n, f, t in rows():
        spec = TrapSpectrum(max_level=max_level)
        m_max = auto_m_max(spec, t, m_asked)
        ladder = _level_ladder(spec, t, m_max)
        tick = time.perf_counter()
        got = moments(excited_log_z(ladder, t, n), n, t)
        where = f"N={n} T={t!r} max_level={max_level} m_max={m_max}"
        if n <= ORACLE_MAX_N:
            table = recursion_table(spec, t, n, m_max)
            double = {"log_z": table.log_z[n], "n0": table.occupation(0.0),
                      "n1": table.occupation(1.0)}
            for name, gap in gaps(got, double, double).items():
                bound = (1e-10 if n > 1000 else 1e-13 if name == "log_z"
                         else 1e-12)
                if not gap <= bound:
                    failures.append(f"{where}: {name} {gap:.2e} off the "
                                    f"double recursion (bound {bound:.0e})")
        if n <= 100:
            for name, gap in gaps(got, mpmath_values(ladder, t, n)).items():
                if not gap <= MPMATH_REL:
                    failures.append(f"{where}: {name} {gap:.2e} off mpmath "
                                    f"(bound {MPMATH_REL:.0e})")
        out.append([("" if v is None else repr(v))
                    for v in (max_level, m_asked, n, f, t)]
                   + [repr(float(got[name])) for name in VALUES])
        print(f"{where}: {time.perf_counter() - tick:.1f} s", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    OUT.parent.mkdir(exist_ok=True)
    with OUT.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        w.writerows(out)
    print(f"wrote {len(out)} rows to {OUT} in "
          f"{time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
