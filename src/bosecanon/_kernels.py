"""Hot loop for the projection quadrature.

The driver splits [0, pi] into equal intervals of width h and asks for the
weighted integrand summed over the quadrature points of intervals
[i0, i1), one chunk of at most canonical.CHUNK_POINTS points at a time
(512 intervals of the 4-point rule, 2048 of the midpoint rule); one chunk
is cut short at the exit the driver predicts. Results come back per
interval so convergence decisions upstream do not depend on where the
chunks end.

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
            w0sq = x * (1.0 + x) / (u * u)
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
    out[:, 6] = (v * (we * we + wev)).sum(axis=1)
    peak = rel.max(axis=1)
    return out, peak
