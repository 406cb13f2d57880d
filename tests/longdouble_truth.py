"""Write tests/data/longdouble_truth.csv: exact fixed-N values in long double.

    pip install -e .[truth]  # mpmath, for the check at N <= 100
    PYTHONPATH=src python tests/longdouble_truth.py

For each row (spectrum, N, T, m_max) it makes the oracle's one call that
truth() makes, oracle._recursion_values, on the engine's ladder
(grand_canonical._level_ladder) cast to np.longdouble: it computes in the
dtype of its arrays, with the precision bounds of its np.finfo. It reads
log Z(N), the running logaddexp of log Z_ex(k), and <n0>, Var(n0), <n1>,
cov(n0, n1) and <N_ex> (ne_mean, the mean of k, which N - <n0> loses where
N_ex is far below N) from P(n0 = N - k) proportional to Z_ex(k), and
writes the doubles nearest them; tier-1 recomputes the rows up to N = 200
and holds every cell bit for bit.

The double recursion carries up to 2.9e-11 of its own rounding in n0 near
Tc at N = 10^4; a long double (64-bit significand, eps 1.08e-19 on x86)
brings that to the 1e-15 level. The script refuses to run, and tier-1's
check is skipped, where np.longdouble is not such a type (eps above
1e-18). Before it writes it checks itself:
  - log Z, n0 and n1 against the same code in double (recursion_table,
    whose n0 and n1 are survival sums, not centred moments) wherever
    N <= ORACLE_MAX_N: within 1e-10 relative (log Z: 1e-10 max(1, |log Z|));
    at N <= 1000 log Z within 1e-13, and n0 and n1 within 1e-12, since the
    double survival sums are 6.9e-13 off mpmath at (1000, 3 Tc);
  - all six values against the recursion written anew in mpmath at 30
    digits at N <= 100, within MPMATH_REL.
mpmath is the package's `truth` extra; only this script imports it.

Rows: the fig1 preset (129); the edges of the engine's domain up to
N = 2x10^4 (N = 3 at T/Tc = 0.01, N = 100 and 1000 at 0.01 and 3, N = 200
at 0.5 and 1.2, N = 10^4 at 0.05 and 3, N = 2x10^4 at 0.05, and four rows
given by T: on two finite ladders, with m_max asked and on the unbounded
ladder); and N in {2x10^4, 4x10^4} at T/Tc in {0.9, 0.97, 1.0, 1.05, 1.2}:
153 rows. Tier-1 holds the engine to every row, and oracle.truth() to every
row up to N = 1000 and at (10^4, 3). The O(N^2) long-double
recursion takes most of the time: on a 2-vCPU x86 host a row took 1-5 s at
10^4, 4-6 s at 2x10^4 near Tc (19 s at T/Tc = 0.05) and 15-19 s at
4x10^4, and the whole run 249 s.
"""

from __future__ import annotations

import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from bosecanon import TrapSpectrum, critical_temperature
from bosecanon.grand_canonical import _level_ladder, auto_m_max
from bosecanon.oracle import (ORACLE_MAX_N, Truth, _recursion_values,
                              recursion_table)
from bosecanon.sweep import PRESETS

LD = np.longdouble
OUT = Path(__file__).parent / "data" / "longdouble_truth.csv"
# the six values, under Truth's names: the one list of them
VALUES = tuple(f.name for f in dataclasses.fields(Truth) if f.name != "source")
COLUMNS = ("max_level", "m_max", "n", "t_over_tc", "t", *VALUES)
# mpmath at 30 digits against the long-double run, relative, at N <= 100.
MPMATH_REL = 1e-15
# np.longdouble is an extended type (x86's 64-bit significand), not double
EXTENDED = np.finfo(LD).eps <= 1e-18


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


def longdouble_values(ladder, t: float, n: int) -> dict:
    """The six values of one row: the oracle's recursion run on the ladder
    cast to long double."""
    return dict(zip(VALUES, _recursion_values(
        ladder.energies[1:].astype(LD), ladder.degeneracies[1:].astype(LD),
        ladder.tail_weight, t, n)))


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
    if not EXTENDED:
        print(f"np.longdouble is not extended here (eps {np.finfo(LD).eps:.3g})"
              ": refusing to write a long-double truth", file=sys.stderr)
        return 2
    started = time.perf_counter()
    out, failures = [], []
    for max_level, m_asked, n, f, t in rows():
        spec = TrapSpectrum(max_level=max_level)
        m_max = auto_m_max(spec, t, m_asked)
        ladder = _level_ladder(spec, t, m_max)
        tick = time.perf_counter()
        got = longdouble_values(ladder, t, n)
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
