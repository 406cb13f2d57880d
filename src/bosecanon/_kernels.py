"""Hot loop for the projection quadrature.

The driver splits [0, pi] into equal intervals of width h and asks for the
weighted integrand summed over the quadrature points of intervals
[i0, i1), one chunk of at most canonical.CHUNK_POINTS points at a time
(4096 intervals of the 4-point rule, 16384 of the midpoint rule); one chunk
ends at the interval where canonical predicts its exit bound first
holds. Results come back per interval, and each interval's values depend
on that interval alone, so exit decisions upstream do not depend on where
the chunks end.

Each point z carries seven complex accumulators built from one pass over
the trap levels:

    0  bare integrand F(z)
    1  F * n0-weight            x0/(1-x0)
    2  F * n0^2-weight          x0(1+x0)/(1-x0)^2
    3  F * n1-weight            x1/(1-x1)      (one state of level 1)
    4  F * n0 n1 cross weight
    5  F * excited-count weight
    6  F * excited-count second-moment weight

with x_m = q_m e^{-iz}. The Boltzmann closure for levels above the cut
enters as the entire-function factor exp(s_mb e^{-iz}) and as the s_mb
terms of the excited-count weights. log|F| is computed relative to the
caller-supplied offset so the exponential never overflows; the running
per-interval maximum of log|F| - offset is returned for tail bounds.

The points of one chunk are evaluated as one numpy block per trap level,
so the per-call overhead of the level loop is spread over the whole chunk.
numpy releases the GIL inside every ufunc call, so rows on concurrent
threads trade it at each one (sweep.run_sweep). The blocks are work arrays
allocated once per call: every level writes its ufunc results into them
with out=, so a chunk's memory does not grow with the level count. Level 0
adds nothing to the excited-count weights, and the level-0 and level-1
weights are not held through the level loop: the output stage recomputes
them from e^{-iz} with the same operations, in the buffers of the excited-
count weights once those have been used. The seven float arrays share one
block, which then takes the 7-wide output, so the output needs no memory
of its own and fills no fresh heap beside the freed float arrays. A full
midpoint chunk peaks at about 210 bytes per point (3.4 MB), a 4-point one
at 150.

Each element sees the same operations in the same order as the plain
array expressions, so the results are the same to the bit. Plain
expressions are not a safe reference from 256 KiB up: there numpy's
temporary elision computes `a * (b + c)` in place as `(b + c) * a`, and
the complex multiply, fused multiply-add where the CPU has it, rounds the
swapped product differently. Products here are ufunc calls with their
operands in a fixed order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["projection_chunk", "USING_NUMBA", "N_ACCUMULATORS"]

N_ACCUMULATORS = 7

# There is no compiled build; kept because run records report the build.
USING_NUMBA = False


def projection_chunk(q, g, n, s_mb, h, i0, i1, nodes, wts, offset):
    """Per-interval accumulator sums and log-modulus peaks over [i0, i1)."""
    shape = (i1 - i0, nodes.size)
    size = shape[0] * shape[1]
    # One block holds the seven float arrays of the level loop and, once
    # they are all dead, the 7-wide complex output.
    block = np.empty(max(7 * size, 2 * N_ACCUMULATORS * shape[0]))
    z, c, s, log_mod, phase, t1, t2 = (
        block[k * size:(k + 1) * size].reshape(shape) for k in range(7))
    np.add(np.arange(i0, i1, dtype=np.float64)[:, None], nodes[None, :], out=z)
    np.multiply(z, h, out=z)
    np.cos(z, out=c)
    np.sin(z, out=s)
    e = c - 1j * s
    np.multiply(s_mb, c, out=log_mod)
    np.multiply(n, z, out=phase)
    phase -= np.multiply(s_mb, s, out=t1)
    we = s_mb * e
    wev = we.copy()
    # Complex work arrays; z, t1 and t2 are the float ones, written in place
    # by every level (z is free from here on).
    x = np.empty_like(e)
    u = np.empty_like(e)
    for m in range(q.size):
        qm = q[m]
        gm = g[m]
        np.multiply(qm, c, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(qm, s, out=t2)
        # phase first, so t1 and t2 can then be squared in place
        np.arctan2(t2, t1, out=z)
        np.multiply(gm, z, out=z)
        phase -= z
        np.multiply(t1, t1, out=t1)
        np.multiply(t2, t2, out=t2)
        np.add(t1, t2, out=t1)
        np.log(t1, out=t1)
        np.multiply(gm * 0.5, t1, out=t1)
        log_mod -= t1
        if m == 0:
            continue  # level 0 enters the excited counts not at all
        # w = x/u in x; gm*(w/u) first, in u, so that gm*w can take x
        np.multiply(qm, e, out=x)
        np.subtract(1.0, x, out=u)
        np.divide(x, u, out=x)
        np.divide(x, u, out=u)
        np.multiply(gm, u, out=u)
        wev += u
        np.multiply(gm, x, out=x)
        we += x
    # Output stage: the weighted integrand v in x; log_mod becomes rel, then
    # the modulus; we, wev and u take the products and the recomputed
    # level-0 and level-1 weights; the output overlays the float block,
    # whose arrays are all used up once v is.
    rel = np.subtract(log_mod, offset, out=log_mod)
    peak = rel.max(axis=1)
    amp = np.exp(rel, out=rel)
    np.multiply(amp, wts[None, :] * h, out=amp)
    v = np.multiply(1j, phase, out=x)
    np.exp(v, out=v)
    np.multiply(amp, v, out=v)
    out = block[:2 * N_ACCUMULATORS * shape[0]].view(np.complex128).reshape(
        shape[0], N_ACCUMULATORS)
    v.sum(axis=1, out=out[:, 0])
    np.multiply(v, we, out=u).sum(axis=1, out=out[:, 5])
    np.multiply(we, we, out=we)
    np.add(we, wev, out=we)
    np.multiply(v, we, out=we).sum(axis=1, out=out[:, 6])
    # level 0: x0 in we, u0 in wev, w0sq in u, then w0 in we
    x0 = np.multiply(q[0], e, out=we)
    u0 = np.subtract(1.0, x0, out=wev)
    w0sq = np.add(1.0, x0, out=u)
    np.multiply(x0, w0sq, out=w0sq)
    w0 = np.divide(x0, u0, out=x0)
    np.multiply(u0, u0, out=u0)
    np.divide(w0sq, u0, out=w0sq)
    np.multiply(v, w0sq, out=u0).sum(axis=1, out=out[:, 2])
    vw0 = np.multiply(v, w0, out=u0)
    vw0.sum(axis=1, out=out[:, 1])
    # level 1: x1, then w1, in we; u1 in u
    x1 = np.multiply(q[1], e, out=we)
    u1 = np.subtract(1.0, x1, out=u)
    w1 = np.divide(x1, u1, out=x1)
    np.multiply(vw0, w1, out=vw0).sum(axis=1, out=out[:, 4])
    np.multiply(v, w1, out=u).sum(axis=1, out=out[:, 3])
    return out, peak
