"""Shared fixtures: the three reference channels and their statistics.

channel_stats at the default budget costs a couple of seconds per channel,
so the stats and the composite distributions built from them are session
scoped and shared by every test module.
"""

import pytest

from turbchan import ChannelParams, channel_stats, composite_pdt_build

GEOMETRY = dict(wavelength=800e-9, w0=0.02, aperture_radius=0.04)


def make_channel(cn2, length, **kw):
    params = dict(GEOMETRY, **kw)
    return ChannelParams(cn2=cn2, length=length, **params)


@pytest.fixture(scope="session")
def chan1():
    return make_channel(4e-14, 1000.0)


@pytest.fixture(scope="session")
def chan2():
    return make_channel(3e-15, 2000.0)


@pytest.fixture(scope="session")
def chan3():
    return make_channel(3e-15, 3000.0)


@pytest.fixture(scope="session")
def stats1(chan1):
    return channel_stats(chan1, seed=0)


@pytest.fixture(scope="session")
def stats2(chan2):
    return channel_stats(chan2, seed=0)


@pytest.fixture(scope="session")
def stats3(chan3):
    return channel_stats(chan3, seed=0)


@pytest.fixture(scope="session")
def comp1(stats1):
    return composite_pdt_build(stats1, GEOMETRY["aperture_radius"])


@pytest.fixture(scope="session")
def comp2(stats2):
    return composite_pdt_build(stats2, GEOMETRY["aperture_radius"])


@pytest.fixture(scope="session")
def comp3(stats3):
    return composite_pdt_build(stats3, GEOMETRY["aperture_radius"])


@pytest.fixture(scope="session")
def zero_width_comp():
    # Composite whose conditional width vanishes exactly: moments are
    # synthesized from the package's own displacement-normalization
    # integrals, so the mixture components are point masses.
    import math

    from turbchan import weibull_params
    from turbchan.kernels.stats import BeamStats
    from turbchan.pdt import _displacement_average

    a, wst2, sigma_bw2 = 0.04, 0.0025, 8.4e-05
    wp = weibull_params(a, math.sqrt(wst2))
    i1 = _displacement_average(1.0, math.sqrt(sigma_bw2), wp)
    i2 = _displacement_average(2.0, math.sqrt(sigma_bw2), wp)
    stats = BeamStats(mean_eta=wp.eta0_max * i1,
                      mean_eta2=wp.eta0_max ** 2 * i2,
                      sigma_bw2=sigma_bw2, wst2=wst2, se_mean_eta=0.0,
                      se_mean_eta2=0.0, se_sigma_bw2=0.0, diagnostics={})
    return composite_pdt_build(stats, a)
