"""Hot loop for the projection quadrature.

The driver splits [0, pi] into equal intervals of width h and asks for the
weighted integrand summed over the quadrature points of intervals
[i0, i1), one chunk of at most canonical.CHUNK_POINTS points at a time
(1024 intervals of the 4-point rule, 4096 of the midpoint rule); one chunk
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
The blocks are work arrays allocated once per call: every level writes its
ufunc results into them with out=, and the output stage reuses them, so a
chunk's memory does not grow with the level count. Each element sees the
same operations in the same order as the plain array expressions, so the
results are the same to the bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["projection_chunk", "USING_NUMBA", "N_ACCUMULATORS"]

N_ACCUMULATORS = 7

# There is no compiled build; kept because run records report the build.
USING_NUMBA = False


def projection_chunk(q, g, n, s_mb, h, i0, i1, nodes, wts, offset):
    """Per-interval accumulator sums and log-modulus peaks over [i0, i1)."""
    z = (np.arange(i0, i1, dtype=np.float64)[:, None] + nodes[None, :]) * h
    c = np.cos(z)
    s = np.sin(z)
    e = c - 1j * s
    log_mod = s_mb * c
    phase = n * z - s_mb * s
    we = s_mb * e
    wev = we.copy()
    w0 = w0sq = w1 = None
    # Work arrays, written in place by every level (z is free from here on).
    t1 = np.empty_like(z)
    t2 = np.empty_like(z)
    x = np.empty_like(e)
    u = np.empty_like(e)
    w = np.empty_like(e)
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
        np.multiply(qm, e, out=x)
        np.subtract(1.0, x, out=u)
        np.divide(x, u, out=w)
        if m == 0:
            w0 = w.copy()
            w0sq = np.add(1.0, x)
            np.multiply(x, w0sq, out=w0sq)
            np.multiply(u, u, out=u)
            np.divide(w0sq, u, out=w0sq)
        else:
            if m == 1:
                w1 = w.copy()
            np.multiply(gm, w, out=x)
            we += x
            np.divide(w, u, out=w)
            np.multiply(gm, w, out=w)
            wev += w
    # Output stage: rel in log_mod, the weighted integrand v in x, each
    # weighted product in u.
    rel = np.subtract(log_mod, offset, out=log_mod)
    np.exp(rel, out=t1)
    np.multiply(t1, wts[None, :] * h, out=t1)
    np.multiply(1j, phase, out=x)
    v = np.exp(x, out=x)
    np.multiply(t1, v, out=v)
    out = np.empty((i1 - i0, N_ACCUMULATORS), dtype=np.complex128)
    out[:, 0] = v.sum(axis=1)
    out[:, 1] = np.multiply(v, w0, out=u).sum(axis=1)
    out[:, 4] = np.multiply(u, w1, out=u).sum(axis=1)
    out[:, 2] = np.multiply(v, w0sq, out=u).sum(axis=1)
    out[:, 3] = np.multiply(v, w1, out=u).sum(axis=1)
    out[:, 5] = np.multiply(v, we, out=u).sum(axis=1)
    np.multiply(we, we, out=u)
    np.add(u, wev, out=u)
    out[:, 6] = np.multiply(v, u, out=u).sum(axis=1)
    peak = rel.max(axis=1)
    return out, peak
