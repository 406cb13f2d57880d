import dataclasses
import math

import pytest

from bosecanon import canonical


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

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canonical, "solve_fugacity", forced)
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate


@pytest.fixture(scope="session")
def on_doubled_grid():
    """canonical_observables(spectrum, t, n) on twice the intervals: the
    engine's grid rule, canonical._half_interval_count, is patched to return
    twice its count."""
    count = canonical._half_interval_count

    def evaluate(spectrum, t, n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canonical, "_half_interval_count",
                          lambda *args: 2 * count(*args))
            return canonical.canonical_observables(spectrum, t, n)

    return evaluate
