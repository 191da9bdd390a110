"""Composite transmittance distribution: closure, limits, the Rayleigh rule."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from turbchan import (composite_moments, composite_mu, composite_pdt_build,
                      composite_pdt_density, composite_pdt_sample,
                      weibull_params)
from turbchan.errors import ApproximationBreakdown, DomainError
from turbchan.kernels.stats import BeamStats
from turbchan.pdt import XI_CUTOFF, WeibullParams

import oracles


def synth_stats(mean_eta, mean_eta2, sigma_bw2, wst2):
    return BeamStats(mean_eta=mean_eta, mean_eta2=mean_eta2,
                     sigma_bw2=sigma_bw2, wst2=wst2, se_mean_eta=0.0,
                     se_mean_eta2=0.0, se_sigma_bw2=0.0, diagnostics={})


def displacement_average(n, sigma_bw, wp):
    # Rayleigh average of the attenuation factor, computed independently.
    def f(xi):
        return (xi * math.exp(-0.5 * xi * xi)
                * math.exp(-n * (sigma_bw * xi / wp.r_scale)
                           ** wp.shape_lambda))
    val, _ = integrate.quad(f, 0.0, 12.0, limit=200)
    return val


def test_build_structure(comp1, stats1):
    # The mixture lives on a Rayleigh rule: node radii sigma_bw xi_k with
    # xi_k in [0, XI_CUTOFF] and weights summing to 1, both read-only.
    n = comp1.node_count
    assert comp1.radii.shape == comp1.weights.shape == (n,)
    assert not comp1.radii.flags.writeable
    assert not comp1.weights.flags.writeable
    assert np.all(np.diff(comp1.radii) > 0.0) and comp1.radii[0] > 0.0
    assert comp1.radii[-1] < XI_CUTOFF * math.sqrt(stats1.sigma_bw2)
    assert np.all(comp1.weights > 0.0)
    assert float(np.sum(comp1.weights)) == pytest.approx(1.0, abs=1e-14)
    assert comp1.eta0_norm > stats1.mean_eta
    assert comp1.zeta0_sq >= comp1.eta0_norm ** 2
    assert comp1.sigma_r0 > 0.0
    assert comp1.sigma_bw2 == stats1.sigma_bw2


def test_moment_closure(comp1, stats1):
    m = composite_moments(comp1)
    z1 = abs(m.mean_eta - stats1.mean_eta) / m.se_mean_eta
    z2 = abs(m.mean_eta2 - stats1.mean_eta2) / m.se_mean_eta2
    assert z1 < 3.0 and z2 < 3.0


def test_truncation_gap_documented(comp1):
    # The sampler and density live on (0, 1]; the closure moments use the
    # untruncated conditional law. In the strong-turbulence configuration a
    # visible fraction of conditional mass sits above 1, so the truncated
    # sample mean must fall below the closure mean by design.
    draws = composite_pdt_sample(comp1, 50_000, seed=4)
    m = composite_moments(comp1)
    assert float(np.mean(draws)) < m.mean_eta - 0.05


def test_density_normalization(comp1):
    norm, err = integrate.quad(lambda e: float(composite_pdt_density(e, comp1)),
                               0.0, 1.0, limit=400)
    assert norm == pytest.approx(1.0, abs=max(1e-6, 10 * err))


def test_sampler_matches_density(comp1):
    draws = composite_pdt_sample(comp1, 50_000, seed=2)
    assert np.all((draws > 0.0) & (draws <= 1.0))
    grid = np.linspace(1e-4, 0.999, 300)
    dens = composite_pdt_density(grid, comp1)
    cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    emp = np.searchsorted(np.sort(draws), grid) / draws.size
    assert np.max(np.abs(emp - cdf)) < 0.01


def test_sampling_deterministic(comp1, stats1):
    a = composite_pdt_sample(comp1, 500, seed=8)
    b = composite_pdt_sample(comp1, 500, seed=8)
    c = composite_pdt_sample(comp1, 500, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # The build draws nothing: two builds are the same mixture.
    c1 = composite_pdt_build(stats1, 0.04)
    c2 = composite_pdt_build(stats1, 0.04)
    grid = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(c1.radii, c2.radii)
    assert np.array_equal(composite_pdt_density(grid, c1),
                          composite_pdt_density(grid, c2))


def test_conditional_mean_formula(comp1):
    # E[eta | r0] = eta0 exp(-mu(r0) + mu(0) - ...) reduces to the
    # attenuation law eta0_norm exp(-(r0/R)^lambda) relative to mu(0).
    r0 = np.array([0.0, 0.005, 0.01])
    mu = composite_mu(comp1, r0)
    assert np.all(np.diff(mu) > 0.0)
    lam = comp1.weibull.shape_lambda
    rr = comp1.weibull.r_scale
    assert mu[1] - mu[0] == pytest.approx((0.005 / rr) ** lam, rel=1e-12)


def test_limit_no_wandering_is_trunc_lognormal():
    stats = synth_stats(0.5, 0.3, 0.0, 0.0025)
    c = composite_pdt_build(stats, 0.04)
    mu, sigma, _ = oracles.trunc_lognormal_params(0.5, 0.3)
    grid = np.linspace(1e-3, 1.0, 800)
    want = [oracles.trunc_lognormal_density(e, mu, sigma) for e in grid]
    diff = composite_pdt_density(grid, c) - want
    assert np.max(np.abs(diff)) < 1e-6


def test_limit_no_conditional_spread_is_weibull_form():
    from turbchan.pdt import _displacement_average
    a, wst2, sigma_bw2 = 0.04, 0.0025, 8.4e-05
    wp = weibull_params(a, math.sqrt(wst2))
    i1 = _displacement_average(1.0, math.sqrt(sigma_bw2), wp)
    i2 = _displacement_average(2.0, math.sqrt(sigma_bw2), wp)
    # Cross-check the normalization integral against an independent route.
    assert i1 == pytest.approx(
        displacement_average(1, math.sqrt(sigma_bw2), wp), rel=1e-8)
    assert i2 == pytest.approx(
        displacement_average(2, math.sqrt(sigma_bw2), wp), rel=1e-8)
    # Moments synthesized from the package's own normalization integrals
    # make the conditional width vanish exactly, forcing the closed form.
    stats = synth_stats(wp.eta0_max * i1, wp.eta0_max ** 2 * i2, sigma_bw2,
                        wst2)
    c = composite_pdt_build(stats, a)
    assert c.sigma_r0 == 0.0
    grid = np.linspace(1e-3, wp.eta0_max * 0.999, 800)
    ref = oracles.weibull_params(a, math.sqrt(wst2))
    want = [oracles.weibull_density(e, *ref, math.sqrt(sigma_bw2))
            for e in grid]
    diff = composite_pdt_density(grid, c) - want
    assert np.max(np.abs(diff)) < 1e-3


def test_breakdown_on_deficient_second_moment():
    # With wandering present, Jensen forces zeta0^2 > eta0^2 whenever the
    # input moments are consistent; equality inputs signal a closure failure.
    stats = synth_stats(0.9, 0.81, 8.4e-05, 0.0025)
    with pytest.raises(ApproximationBreakdown):
        composite_pdt_build(stats, 0.04)


def test_ratio_guard_propagates():
    # a/W_ST = 0.08 lies below the Weibull window: the law drops the
    # wandering and is the truncated log-normal; at 0.8 it is the composite.
    outside = composite_pdt_build(synth_stats(0.5, 0.3, 8.4e-05, 0.25), 0.04)
    assert outside.family == "lognormal"
    assert outside.sigma_bw2 == 0.0 and math.isinf(outside.weibull.r_scale)
    inside = composite_pdt_build(synth_stats(0.5, 0.3, 8.4e-05, 0.0025), 0.04)
    assert inside.family == "composite"
    assert inside.weibull == weibull_params(0.04, 0.05)


def test_build_rejects_nonpositive_radii():
    for a, wst2 in ((0.0, 0.0025), (0.04, 0.0)):
        with pytest.raises(DomainError):
            composite_pdt_build(synth_stats(0.5, 0.3, 8.4e-05, wst2), a)


def test_degenerate_when_both_widths_vanish():
    wp = weibull_params(0.04, 0.05)
    stats = synth_stats(wp.eta0_max, wp.eta0_max ** 2, 0.0, 0.0025)
    c = composite_pdt_build(stats, 0.04)
    assert c.family == "degenerate"
    assert c.atom == wp.eta0_max


# --- the displacement averages against adaptive quadrature ------------

# 7 s x 8 lambda x n = 1, 2 x 3 truncations: the 336 calibration shapes.
CALIBRATION_S = np.geomspace(0.05, 1.5, 7)
CALIBRATION_LAMBDA = np.geomspace(2.0, 22.8, 8)
CALIBRATION_XI_MAX = (XI_CUTOFF, 3.0, 1.0)


def test_displacement_average_matches_quadpack():
    from turbchan.pdt import _displacement_average
    worst = 0.0
    for s, lam, n, xi_max in itertools.product(
            CALIBRATION_S, CALIBRATION_LAMBDA, (1, 2), CALIBRATION_XI_MAX):
        wp = WeibullParams(0.9, 1.0, float(lam), 1.0)
        got = _displacement_average(n, float(s), wp, xi_max)

        def f(xi):
            return xi * math.exp(-0.5 * xi * xi - n * (s * xi) ** lam)

        # Break at the step of the attenuation factor, where it falls to 1/e.
        step = n ** (-1.0 / lam) / s
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            want, _ = integrate.quad(
                f, 0.0, xi_max, epsabs=0.0, epsrel=1e-13, limit=400,
                points=[step] if step < xi_max else None)
        worst = max(worst, abs(got / want - 1.0))
    assert worst <= 1e-12


# --- the Rayleigh rule against finer rules and the sampled mixture -------

FIG2_LENGTHS = (2000.0, 3000.0, 4000.0)
FRACTIONS = (0.0, 0.25, 0.5, 1.0)


@pytest.fixture(scope="module")
def fig2_traffic(comp1):
    # The composites the fig2 tables build: the 1 km headline and the
    # other lengths of its sweep inside the Weibull window (s <= 0.36,
    # lambda 2.0-2.8, sigma_r0 0.19-0.73).
    from conftest import make_channel
    from turbchan import channel_stats_many
    from turbchan.kernels.stats import StatsBudget
    stats = channel_stats_many([make_channel(4e-14, L) for L in FIG2_LENGTHS],
                               StatsBudget.from_log2_total(12), seed=0)
    return [comp1] + [composite_pdt_build(st, 0.04) for st in stats]


def test_rule_converged_on_fig2_traffic(fig2_traffic, monkeypatch):
    from turbchan import tracked_exceedance, tracked_pdt
    from turbchan import pdt
    grid = np.linspace(0.0, 1.0, 501)

    def tables(c):
        out = []
        for f in FRACTIONS:
            tc = tracked_pdt(c, f)
            out.append((composite_pdt_density(grid, tc),
                        tracked_exceedance(grid, tc)))
        return np.array(out)

    rule = [tables(c) for c in fig2_traffic]
    node_count = pdt._node_count
    monkeypatch.setattr(pdt, "_node_count", lambda *a: 4 * node_count(*a))
    # dataclasses.replace makes fresh instances, which derive the count anew.
    finer = [tables(dataclasses.replace(c)) for c in fig2_traffic]
    for got, want in zip(rule, finer):
        assert np.max(np.abs(got - want)) < 1e-6


def sampled_mixture_density(eta, c, seed, count=10_000):
    # The mixture as it was sampled before the rule: count Rayleigh radii
    # drawn from seed, equal weights.
    u = np.random.default_rng(seed).random(count)
    radii = math.sqrt(c.sigma_bw2) * np.sqrt(-2.0 * np.log1p(-u))
    mu = composite_mu(c, radii)
    z = (np.log(eta)[None, :] + mu[:, None]) / c.sigma_r0
    comp = np.exp(-0.5 * z * z) / special.ndtr(mu / c.sigma_r0)[:, None]
    return comp.mean(axis=0) / (c.sigma_r0 * math.sqrt(2.0 * math.pi) * eta)


def test_density_inside_sampled_mixture_spread(fig2_traffic):
    # Every value lies within the spread of 8 sampled 10^4-radius mixtures,
    # where the density exceeds 1e-4 of its peak: below that, 10^4 radii
    # hold too few components to serve as a reference.
    from turbchan import tracked_pdt
    grid = np.linspace(0.004, 1.0, 250)
    for c in fig2_traffic:
        for f in (0.0, 0.5):
            tc = tracked_pdt(c, f)
            dens = composite_pdt_density(grid, tc)
            sampled = np.array([sampled_mixture_density(grid, tc, seed)
                                for seed in range(8)])
            keep = dens > 1e-4 * dens.max()
            assert np.all(dens[keep] >= sampled.min(axis=0)[keep])
            assert np.all(dens[keep] <= sampled.max(axis=0)[keep])


def test_rule_raises_past_its_cap(comp1):
    # A narrow conditional law under wide wandering would need more than
    # MAX_NODES nodes: the rule refuses instead of answering wrong.
    from turbchan import tracked_exceedance
    from turbchan.errors import QuadratureNotConverged
    from turbchan.pdt import MAX_NODES, _node_count
    narrow = dataclasses.replace(comp1, sigma_r0=1e-4)
    with pytest.raises(QuadratureNotConverged):
        composite_pdt_density(0.5, narrow)
    with pytest.raises(QuadratureNotConverged):
        tracked_exceedance(0.5, narrow)
    # Sampling needs no rule and still answers.
    assert composite_pdt_sample(narrow, 100, seed=1).size == 100
    # The count follows the shape and stops at the cap.
    s = math.sqrt(comp1.sigma_bw2) / comp1.weibull.r_scale
    lam = comp1.weibull.shape_lambda
    mu0 = float(composite_mu(comp1, 0.0))
    counts = [_node_count(s, lam, sig, mu0)
              for sig in (1.0, 0.19, 0.05, 0.01)]
    assert counts == sorted(counts) and counts[-1] <= MAX_NODES
    with pytest.raises(QuadratureNotConverged):
        _node_count(1.0, lam, 0.01, mu0)


def test_rule_stops_below_resolved_transmittance(monkeypatch):
    # A steep attenuation law sends the outer nodes far below the smallest
    # resolved transmittance, 1e-12.  The count covers only the nodes that
    # carry transmittance, which spacing the nodes out to XI_TAIL would put
    # past MAX_NODES, and still matches a 4x finer rule down to 1e-12.
    from turbchan import pdt, tracked_exceedance
    from turbchan.pdt import CompositePdt, WeibullParams
    sig = 1.0
    c = CompositePdt(0.98, 0.98 ** 2 * math.exp(sig * sig),
                     WeibullParams(0.98, 1.0, 16.0, 8.0), 0.2 ** 2, sig, 1.0)
    grid = np.concatenate([np.logspace(-12, -3, 50),
                           np.linspace(0.001, 1.0, 200)])
    node_count = pdt._node_count
    n = c.node_count
    assert n <= pdt.MAX_NODES
    got = composite_pdt_density(grid, c), tracked_exceedance(grid, c)
    monkeypatch.setattr(pdt, "_node_count", lambda *a: 4 * node_count(*a))
    finer = dataclasses.replace(c)
    assert finer.node_count == 4 * n
    want = composite_pdt_density(grid, finer), tracked_exceedance(grid, finer)
    assert np.max(np.abs(got[0] - want[0])) < 1e-7 * want[0].max()
    assert np.max(np.abs(got[1] - want[1])) < 1e-7
