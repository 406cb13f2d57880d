import dataclasses
import math
from collections import namedtuple

import pytest

from bosecanon import canonical


class Recorder:
    """module.name replaced for a with block, each call recorded.

    A call goes through to the original unless a replacement is given: a
    function, called instead, or a plain value (canonical.CHUNK_POINTS),
    set and never called. `calls` holds a record of each call that
    returns, in order: by default its (args, kwargs, result)."""

    def __init__(self, module, name, replacement=None):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.target = self.original if replacement is None else replacement
        self.calls = []

    def record(self, args, kwargs, result):
        return args, kwargs, result

    def __enter__(self):
        def call(*args, **kwargs):
            result = self.target(*args, **kwargs)
            self.calls.append(self.record(args, kwargs, result))
            return result

        setattr(self.module, self.name,
                call if callable(self.target) else self.target)
        return self

    def __exit__(self, *exc_info):
        setattr(self.module, self.name, self.original)


class KernelCall(namedtuple("KernelCall", "args out peak")):
    """One projection_chunk(q, g, n, s_mb, h, i0, i1, nodes, wts, offset)
    call: its arguments, and its output and peaks."""
    i0 = property(lambda self: self.args[5])
    i1 = property(lambda self: self.args[6])
    nodes = property(lambda self: self.args[7])

    def over(self, i0, i1):
        """The same call's arguments on the intervals [i0, i1)."""
        return (*self.args[:5], i0, i1, *self.args[7:])


class KernelRecorder(Recorder):
    """canonical.projection_chunk under a Recorder. Each call is recorded
    as a KernelCall that holds copies of the output and peaks, which the
    engine sums in place."""
    Call = KernelCall  # lets a replacement name its own call's intervals

    def __init__(self, replacement=None):
        super().__init__(canonical, "projection_chunk", replacement)

    def record(self, args, kwargs, result):
        return KernelCall(args, *(array.copy() for array in result))


@pytest.fixture(scope="session")
def recorder():
    return Recorder


@pytest.fixture(scope="session")
def kernel_recorder():
    return KernelRecorder


@pytest.fixture(scope="session")
def raw_moments():
    """The six sums the quadrature takes, <n0>, <n0^2>, <n1>, <n0 n1>,
    <N_ex> and <N_ex^2>, rebuilt from a CanonicalResult's means and centred
    fields. Checks that hold the engine to another evaluation compare these:
    the centred fields carry the cancellation's noise (README, Known
    limits), which a direct comparison would measure instead."""
    def moments(res) -> dict:
        n0, n1, ne = res.n0_mean, res.n1_mean, res.ne_mean
        return {"<n0>": n0, "<n0^2>": res.n0_variance + n0 ** 2, "<n1>": n1,
                "<n0 n1>": res.covariance_n0_n1 + n0 * n1, "<N_ex>": ne,
                "<N_ex^2>": res.ne_variance + ne ** 2}

    return moments


@pytest.fixture(scope="session")
def at_offset():
    """canonical_observables(spectrum, t, n) evaluated at the offset eps
    instead of the saddle. The engine's one fugacity solve is patched to
    return the real state with relative fugacity exp(-eps/T), so the engine
    takes eps0 = -mu, eps up to one exp and log; gc_state is that state."""
    solve = canonical.solve_fugacity

    def evaluate(spectrum, t, n, eps):
        def forced(*args, **kwargs):
            state = solve(*args, **kwargs)
            return dataclasses.replace(
                state, relative_fugacity=math.exp(-eps / state.t))

        with Recorder(canonical, "solve_fugacity", forced):
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate


@pytest.fixture(scope="session")
def on_doubled_grid():
    """canonical_observables(spectrum, t, n) on twice the intervals: the
    engine's grid rule, canonical._half_interval_count, is patched to return
    twice its count."""
    count = canonical._half_interval_count

    def evaluate(spectrum, t, n):
        with Recorder(canonical, "_half_interval_count",
                      lambda *args: 2 * count(*args)):
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate
