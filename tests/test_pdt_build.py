"""composite_pdt_build: one transmittance law for every regime of a channel."""

import dataclasses

import numpy as np
import pytest

from conftest import GEOMETRY, make_channel
from turbchan import (CompositePdt, DecoyParams, StatsBudget, WeibullParams,
                      averaged_key_rate, channel_stats, channel_stats_many,
                      composite_moments, composite_mu, composite_pdt_build,
                      composite_pdt_density, composite_pdt_sample,
                      composite_rule, key_rate_integrand,
                      postselected_moments, tracked_exceedance, tracked_pdt,
                      weibull_params)
from turbchan import pdt
from turbchan.kernels.stats import BeamStats

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


@pytest.fixture(scope="module")
def fig2_laws():
    # The fig2 channel, extinction included, at the default budget:
    # {length: (law, extinction factor)}; 6 km is outside the window.
    channels = [make_channel(4e-14, L, extinction_db_per_km=1.0)
                for L in (1000.0, 2000.0, 3000.0, 4000.0, 6000.0)]
    return {c.length: (composite_pdt_build(st, A), c.extinction_eta)
            for c, st in zip(channels, channel_stats_many(channels))}


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


@pytest.mark.parametrize("length", [1000.0, 2000.0, 4000.0, 6000.0])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_rule_reproduces_postselected_moments(fig2_laws, length, fraction):
    law = tracked_pdt(fig2_laws[length][0], fraction)
    assert law.family == ("lognormal" if length == 6000.0 else "composite")
    eta, w = composite_rule(law)
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    m1, m2, _ = postselected_moments(law, 0.0)
    assert abs(w @ eta - m1) <= 1e-12 * m1
    assert abs(w @ eta ** 2 - m2) <= 1e-12 * m2


def point_mass():
    # Neither wandering nor conditional width: the atom at eta0_max, whose
    # one node lands 1 ulp off it through composite_mu.
    wp = weibull_params(A, 0.05)
    return composite_pdt_build(BeamStats(
        mean_eta=wp.eta0_max, mean_eta2=wp.eta0_max ** 2, sigma_bw2=0.0,
        wst2=0.0025, se_mean_eta=0.0, se_mean_eta2=0.0, se_sigma_bw2=0.0,
        diagnostics={}), A)


def test_rule_of_point_mass_and_zero_width(vacuum, zero_width_comp):
    law = composite_pdt_build(vacuum, A)
    eta, w = composite_rule(law)
    assert eta.tolist() == [law.atom] and w.tolist() == [1.0]
    assert (averaged_key_rate(eta, w, DecoyParams()).rate
            == key_rate_integrand(law.atom, DecoyParams()))
    # The one node of a point mass is its atom to rounding.
    law = point_mass()
    assert law.family == "degenerate"
    eta, w = composite_rule(law)
    assert w.tolist() == [1.0]
    assert abs(eta[0] - law.atom) <= 2.0 * np.spacing(law.atom)
    c = zero_width_comp
    eta, w = composite_rule(c)
    assert np.array_equal(eta, np.exp(-c.node_mu))
    assert np.array_equal(w, c.weights)


@pytest.fixture(scope="module")
def unwandering_laws(stats8, comp1):
    # The laws without wandering: outside the window, perfectly tracked, a
    # point mass.
    return [composite_pdt_build(stats8, A), tracked_pdt(comp1, 1.0),
            point_mass()]


def test_law_without_wandering_has_one_node(unwandering_laws, monkeypatch):
    # Every node of a law without wandering sits at radius 0, so one node
    # is the whole mixture: it answers as the same law on MIN_NODES nodes.
    grid = np.linspace(0.0, 1.0, 501)
    p = DecoyParams()

    def answers(law):
        # Postselected at 0 and at half the mean, where the acceptance is
        # far from the tail that 1 - (sum of node terms) cancels in.
        ps = [postselected_moments(law, 0.0)]
        ps.append(postselected_moments(law, 0.5 * ps[0][0]))
        return (composite_pdt_density(grid, law),
                tracked_exceedance(grid, law), ps,
                averaged_key_rate(*composite_rule(law), p).rate,
                composite_moments(law))

    got = [answers(law) for law in unwandering_laws]
    monkeypatch.setattr(pdt, "_node_count", lambda *a: pdt.MIN_NODES)
    for law, (dens, exc, ps, rate, m) in zip(unwandering_laws, got):
        assert law.sigma_bw2 == 0.0 and law.node_count == 1
        forced = dataclasses.replace(law)
        assert forced.node_count == pdt.MIN_NODES
        want = answers(forced)
        np.testing.assert_allclose(dens, want[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(exc, want[1], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(ps, want[2], rtol=1e-13, atol=0.0)
        assert rate == pytest.approx(want[3], rel=1e-13, abs=0.0)
        assert (m.mean_eta, m.mean_eta2) == pytest.approx(
            (want[4].mean_eta, want[4].mean_eta2), rel=1e-13, abs=0.0)
        # The half rule of one node is itself: only the floor is quoted.
        assert m.se_mean_eta == pdt.NORM_RTOL * m.mean_eta
        assert m.se_mean_eta2 == pdt.NORM_RTOL * m.mean_eta2


def test_small_acceptance_keeps_its_precision(stats8, monkeypatch):
    # The 8 km law postselected at 0.1 keeps 8.6e-6 of its mass. Its node
    # masses are summed from the tails, not as 1 - (mass below eta_min), so
    # the one-node and 64-node forms agree to rounding (1.3e-11 relative
    # when the complement was taken).
    law = composite_pdt_build(stats8, A)
    one = postselected_moments(law, 0.1)
    assert one[2] < 1e-5
    monkeypatch.setattr(pdt, "_node_count", lambda *a: pdt.MIN_NODES)
    many = postselected_moments(dataclasses.replace(law), 0.1)
    np.testing.assert_allclose(one, many, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("eta0,sigma,s,lam", [
    # Steep attenuation: node locations reach 1e14 and beyond.
    (1e-4, 0.7, 1.5, 16.1),
    (0.5, 2.0, 0.85, 22.8),
    # Most of the zero-displacement log-normal lies above eta = 1, past
    # where the sampler stalls.
    (1.2, 0.05, 0.3, 2.0),
    # Locations up to 36 conditional widths above eta = 1: each such node's
    # mass sits in a sliver of its width just below eta = 1.
    (1.2, 0.005, 0.3, 2.0),
])
def test_rule_of_synthetic_law(eta0, sigma, s, lam):
    law = CompositePdt(eta0, eta0 * eta0 * np.exp(sigma * sigma),
                       WeibullParams(0.9, 1.0, lam, 1.0), s * s, sigma)
    eta, w = composite_rule(law)
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    m1, m2, _ = postselected_moments(law, 0.0)
    assert abs(w @ eta - m1) <= 1e-12 * m1
    assert abs(w @ eta ** 2 - m2) <= 1e-12 * m2


def test_rule_point_count_is_converged(fig2_laws, monkeypatch):
    p = DecoyParams()

    def rates():
        return [averaged_key_rate(eta * ext, w, p).diagnostics["raw_mean"]
                for law, ext in fig2_laws.values()
                for eta, w in (composite_rule(tracked_pdt(law, f))
                               for f in (0.0, 1.0))]

    coarse = rates()
    monkeypatch.setattr(pdt, "RULE_POINTS", 2 * pdt.RULE_POINTS)
    fine = rates()
    assert all(abs(a - b) < 1e-10 * abs(b) for a, b in zip(coarse, fine))


@pytest.mark.parametrize("length", [1000.0, 3000.0])
@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_rule_rate_matches_draws(fig2_laws, length, fraction):
    law, ext = fig2_laws[length]
    law = tracked_pdt(law, fraction)
    p = DecoyParams()
    draws = composite_pdt_sample(law, 200_000, seed=5) * ext
    sampled = averaged_key_rate(draws, np.full(draws.size, 1.0 / draws.size),
                                p).diagnostics["raw_mean"]
    se = np.std(key_rate_integrand(draws, p, clamp=False)) / draws.size ** 0.5
    eta, w = composite_rule(law)
    ruled = averaged_key_rate(eta * ext, w, p).diagnostics["raw_mean"]
    assert abs(sampled - ruled) <= 4.0 * se
