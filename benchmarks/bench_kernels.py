"""Projection-kernel timing on the inputs the engine really passes it.

Each case runs one canonical_observables call with
canonical.projection_chunk wrapped, so every chunk the engine asks for is
recorded along with the row's wall time. The first recorded chunk is then
replayed through the kernel and the best of REPEATS runs is reported in
nanoseconds per level-point (trap levels x quadrature points).

Usage: python benchmarks/bench_kernels.py
"""

import time

from bosecanon import TrapSpectrum, canonical, critical_temperature

CASES = [(1_000, 0.6), (10_000, 0.6), (10_000, 1.2)]
REPEATS = 5


def capture(spectrum, n, t_over_tc):
    """Kernel argument tuples of one engine row, and the row's wall time."""
    kernel = canonical.projection_chunk
    calls = []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    canonical.projection_chunk = recording
    try:
        t = t_over_tc * critical_temperature(spectrum, n)
        start = time.perf_counter()
        canonical.canonical_observables(spectrum, t, n)
        row_s = time.perf_counter() - start
    finally:
        canonical.projection_chunk = kernel
    return calls, row_s


def time_chunk(args):
    """Best wall time of one kernel call over REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        canonical.projection_chunk(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    spectrum = TrapSpectrum()
    print(f"{'case':>16s} {'levels':>7s} {'points':>7s} {'chunks':>7s} "
          f"{'kernel':>14s} {'engine row':>11s}")
    for n, t_over_tc in CASES:
        calls, row_s = capture(spectrum, n, t_over_tc)
        q, _, _, _, _, i0, i1, nodes = calls[0][:8]
        points = (i1 - i0) * nodes.size
        ns = time_chunk(calls[0]) / (points * q.size) * 1e9
        label = f"N={n} t={t_over_tc}"
        print(f"{label:>16s} {q.size:>7d} {points:>7d} {len(calls):>7d} "
              f"{ns:>6.2f} ns/l-pt {row_s:>10.3f}s")


if __name__ == "__main__":
    main()
