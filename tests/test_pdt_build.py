"""composite_pdt_build: one transmittance law for every regime of a channel."""

import dataclasses

import numpy as np
import pytest

from conftest import GEOMETRY, make_channel
from turbchan import (StatsBudget, channel_stats, composite_mu,
                      composite_pdt_build, composite_pdt_density,
                      composite_pdt_sample, postselected_moments,
                      tracked_exceedance, tracked_pdt)

import oracles

A = GEOMETRY["aperture_radius"]


@pytest.fixture(scope="module")
def stats8():
    # The fig2 channel at 8 km: a/W_ST = 0.047, below the Weibull window.
    return channel_stats(make_channel(4e-14, 8000.0),
                         StatsBudget(10), seed=0)


@pytest.fixture(scope="module")
def vacuum():
    return channel_stats(make_channel(0.0, 1000.0))


def test_inside_window_is_the_composite(stats1, comp1):
    law = composite_pdt_build(stats1, A)
    assert law.family == "composite"
    assert dataclasses.astuple(law) == dataclasses.astuple(comp1)


def test_outside_window_is_the_trunc_lognormal(stats8):
    law = composite_pdt_build(stats8, A)
    assert law.family == "lognormal"
    assert law.sigma_bw2 == 0.0 and law.atom is None
    mu, sigma, _ = oracles.trunc_lognormal_params(stats8.mean_eta,
                                                  stats8.mean_eta2)
    assert composite_mu(law, 0.0) == mu
    assert np.all(composite_mu(law, law.radii) == mu)
    assert law.sigma_r0 == sigma
    grid = np.linspace(0.0, 1.0, 501)  # the CLI grid at pdt.eta_step 0.002
    got = composite_pdt_density(grid, law)
    want = np.array([oracles.trunc_lognormal_density(e, mu, sigma)
                     for e in grid])
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_tracking_leaves_laws_without_wandering(stats8, vacuum):
    for stats, family in ((stats8, "lognormal"), (vacuum, "degenerate")):
        law = composite_pdt_build(stats, A)
        assert law.family == family
        for fraction in (0.0, 0.5, 1.0):
            for jitter2 in (0.0, 1e-6):
                assert tracked_pdt(law, fraction, jitter2) is law


def test_vacuum_is_a_point_mass(vacuum):
    law = composite_pdt_build(vacuum, A)
    eta0 = law.atom
    assert law.family == "degenerate" and eta0 == vacuum.mean_eta
    draws = composite_pdt_sample(law, 1000, seed=3)
    assert np.all(draws == draws[0])
    assert draws[0] == pytest.approx(eta0, rel=1e-15)
    grid = np.array([-0.1, 0.0, 0.5, eta0 - 1e-12, eta0, 1.0, 1.1])
    assert tracked_exceedance(grid, law).tolist() == [1, 1, 1, 1, 0, 0, 0]
    assert np.all(composite_pdt_density(np.linspace(0.0, 1.0, 11), law)
                  == 0.0)
    assert postselected_moments(law, 0.5) == (eta0, eta0 * eta0, 1.0)
