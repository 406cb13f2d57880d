import pytest


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
