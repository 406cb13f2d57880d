import tracemalloc

import numpy as np
import pytest

from bosecanon import TrapSpectrum, canonical, critical_temperature
from bosecanon._kernels import N_ACCUMULATORS, projection_chunk
from bosecanon.canonical import canonical_observables
from conftest import KernelRecorder

SPEC = TrapSpectrum()


def reference_projection_chunk(q, g, n, s_mb, h, i0, i1, nodes, wts, offset):
    """The kernel as plain array expressions, one fresh array per step.

    The two complex products of a temporary are written as ufunc calls:
    from 256 KiB numpy's temporary elision would turn `x * (1.0 + x)` into
    an in-place product with the operands swapped, and the complex multiply
    (fused multiply-add where the CPU has it) then rounds the imaginary part
    differently from the kernel's `x * w0sq`.
    """
    z = (np.arange(i0, i1, dtype=np.float64)[:, None] + nodes[None, :]) * h
    c = np.cos(z)
    s = np.sin(z)
    e = c - 1j * s
    log_mod = s_mb * c
    phase = n * z - s_mb * s
    we = s_mb * e
    wev = we.copy()
    w0 = w0sq = w1 = None
    for m in range(q.size):
        qm = q[m]
        gm = g[m]
        t1 = 1.0 - qm * c
        t2 = qm * s
        log_mod -= gm * 0.5 * np.log(t1 * t1 + t2 * t2)
        phase -= gm * np.arctan2(t2, t1)
        x = qm * e
        u = 1.0 - x
        w = x / u
        if m == 0:
            w0 = w
            w0sq = np.multiply(x, np.add(1.0, x)) / (u * u)
        else:
            if m == 1:
                w1 = w
            we += gm * w
            wev += gm * (w / u)
    rel = log_mod - offset
    v = np.exp(rel) * (wts[None, :] * h) * np.exp(1j * phase)
    out = np.empty((i1 - i0, N_ACCUMULATORS), dtype=np.complex128)
    out[:, 0] = v.sum(axis=1)
    out[:, 1] = (v * w0).sum(axis=1)
    out[:, 2] = (v * w0sq).sum(axis=1)
    out[:, 3] = (v * w1).sum(axis=1)
    out[:, 4] = (v * w0 * w1).sum(axis=1)
    out[:, 5] = (v * we).sum(axis=1)
    out[:, 6] = np.multiply(v, we * we + wev).sum(axis=1)
    peak = rel.max(axis=1)
    return out, peak


def _first_chunk(n, t_over_tc):
    with KernelRecorder() as kernel:
        canonical_observables(SPEC, t_over_tc * critical_temperature(SPEC, n),
                              n)
    return kernel.calls[0]


@pytest.mark.parametrize("n, points", [
    pytest.param(1000, 4, id="4-point"),
    pytest.param(10_000, 1, id="midpoint"),
])
def test_kernel_matches_the_plain_expressions_bit_for_bit(n, points):
    # the first, full-size chunk of a row that runs on: it starts at z = 0
    # and takes the level-0 and level-1 weights
    call = _first_chunk(n, 0.3)
    assert call.i0 == 0 and call.nodes.size == points
    assert (call.i1 - call.i0) * points == canonical.CHUNK_POINTS
    out, peak = projection_chunk(*call.args)
    ref_out, ref_peak = reference_projection_chunk(*call.args)
    assert np.array_equal(out.view(np.uint64), ref_out.view(np.uint64))
    assert np.array_equal(peak.view(np.uint64), ref_peak.view(np.uint64))


# Traced bytes per point of one full-size midpoint chunk, output included:
# 208 today (a float block that holds the float arrays and then the 7-wide
# output, five complex work arrays, the peaks); a kernel holding the
# level-0 and level-1 weights through the level loop took 328.
KERNEL_BYTES_PER_POINT = 224


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_chunk_stays_within_its_memory_budget():
    # the midpoint rule returns one 7-wide output row per point, the most
    # memory a chunk of CHUNK_POINTS points takes
    call = _first_chunk(10_000, 0.3)
    assert call.i1 - call.i0 == canonical.CHUNK_POINTS
    peak = _traced_peak(projection_chunk, *call.args)
    assert peak <= KERNEL_BYTES_PER_POINT * canonical.CHUNK_POINTS


def test_a_multi_chunk_row_peaks_at_one_kernel_call():
    # the engine releases each chunk before the next kernel call and tests
    # the exit one accumulator at a time, so a row of three chunks takes no
    # more memory than its largest kernel call
    n, t = 10_000, 0.3 * critical_temperature(SPEC, 10_000)
    with KernelRecorder() as kernel:
        canonical_observables(SPEC, t, n)
    assert len(kernel.calls) >= 3
    chunk = max(_traced_peak(projection_chunk, *call.args)
                for call in kernel.calls)
    row = _traced_peak(canonical_observables, SPEC, t, n)
    assert row <= chunk + 64 * 1024  # the level arrays and the solve


def test_quadrature_rules_are_numpys_gauss_legendre():
    for points, (x, w) in canonical.GAUSS_LEGENDRE.items():
        ref_x, ref_w = np.polynomial.legendre.leggauss(points)
        assert np.array_equal(np.array(x), ref_x)
        assert np.array_equal(np.array(w), ref_w)
