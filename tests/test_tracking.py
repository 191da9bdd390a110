"""Tracking fractions, exceedance functions, postselection, squeezing."""

import math

import numpy as np
import pytest
from scipy import integrate

from oracles import squeezing_out_db, trunc_lognormal_density
from turbchan import (composite_moments, composite_mu,
                      composite_pdt_density, postselected_moments,
                      tracked_exceedance, tracked_pdt,
                      transmitted_squeezing_db)
from turbchan.errors import DomainError, EmptyPostselection, InvalidTracking
from turbchan.pdt import _rayleigh_rule


def test_config_validation(comp1):
    with pytest.raises(InvalidTracking):
        tracked_pdt(comp1, 0.5, jitter2=-1e-9)
    # Jitter extends the wandering that tracking acts on.
    j2 = comp1.sigma_bw2
    assert tracked_pdt(comp1, 0.0, jitter2=j2).sigma_bw2 == 2.0 * j2


@pytest.mark.parametrize("jitter2", [math.nan, math.inf])
def test_jitter_not_finite(comp1, jitter2):
    with pytest.raises(InvalidTracking):
        tracked_pdt(comp1, 0.5, jitter2)


@pytest.mark.parametrize("fraction", [-0.1, 1.0001, 2.0])
def test_fraction_out_of_range(comp1, fraction):
    with pytest.raises(InvalidTracking):
        tracked_pdt(comp1, fraction)


def test_fraction_variance_accounting(comp1):
    bw2, j2 = comp1.sigma_bw2, 2e-05
    assert tracked_pdt(comp1, 0.5, jitter2=j2).sigma_bw2 == pytest.approx(
        0.75 * (bw2 + j2), rel=1e-15)
    assert tracked_pdt(comp1, 0.0).sigma_bw2 == bw2
    assert tracked_pdt(comp1, 1.0).sigma_bw2 == 0.0
    assert tracked_pdt(comp1, 1.0, jitter2=j2).sigma_bw2 == 0.0


def test_zero_tracking_is_identity(comp1):
    tp = tracked_pdt(comp1, 0.0)
    assert np.array_equal(tp.radii, comp1.radii)
    grid = np.linspace(0.01, 0.99, 200)
    assert np.array_equal(composite_pdt_density(grid, tp),
                          composite_pdt_density(grid, comp1))


def test_tracked_fields(comp1, stats1):
    tp = tracked_pdt(comp1, 0.5)
    assert tp.eta0_norm == comp1.eta0_norm
    assert tp.zeta0_sq == comp1.zeta0_sq
    assert tp.weibull == comp1.weibull
    assert tp.sigma_r0 == comp1.sigma_r0
    delta2 = stats1.sigma_bw2 - 0.25 * stats1.sigma_bw2
    assert tp.sigma_bw2 == delta2
    # The radii are the nodes of the same Rayleigh rule at the residual
    # scale; the narrower wandering needs no more nodes.
    assert tp.node_count <= comp1.node_count
    xi = _rayleigh_rule(tp.node_count)[0]
    assert np.array_equal(tp.radii, math.sqrt(delta2) * xi)


def test_perfect_tracking_is_single_lognormal(comp1):
    tp = tracked_pdt(comp1, 1.0)
    assert np.all(tp.radii == 0.0)
    mu0 = float(composite_mu(comp1, 0.0))
    grid = np.linspace(1e-3, 1.0, 700)
    want = [trunc_lognormal_density(e, mu0, comp1.sigma_r0) for e in grid]
    diff = composite_pdt_density(grid, tp) - want
    assert np.max(np.abs(diff)) < 1e-9


def test_perfect_tracking_of_point_components_degenerate(zero_width_comp):
    # Point components without wandering leave the point mass at eta0_norm.
    tp = tracked_pdt(zero_width_comp, 1.0)
    eta0 = zero_width_comp.eta0_norm
    assert tp.atom == eta0
    assert zero_width_comp.atom is None
    grid = np.linspace(0.0, 1.0, 101)
    assert np.all(composite_pdt_density(grid, tp) == 0.0)
    assert np.array_equal(tracked_exceedance(grid, tp),
                          (grid < eta0).astype(float))
    assert postselected_moments(tp, 0.5) == (eta0, eta0 * eta0, 1.0)


def test_exceedance_boundaries_and_monotonicity(comp1):
    grid = np.linspace(-0.1, 1.1, 400)
    f = tracked_exceedance(grid, comp1)
    assert f[0] == 1.0 and f[-1] == 0.0
    assert tracked_exceedance(0.0, comp1) == 1.0
    assert tracked_exceedance(1.0, comp1) == 0.0
    assert np.all(np.diff(f) <= 1e-12)
    assert np.all((f >= 0.0) & (f <= 1.0))


@pytest.mark.parametrize("eta0", [0.3, 0.7, 0.9])
def test_exceedance_integrates_density(comp1, eta0):
    quad, err = integrate.quad(
        lambda e: float(composite_pdt_density(e, comp1)), eta0, 1.0,
        limit=400)
    assert tracked_exceedance(eta0, comp1) == pytest.approx(
        quad, abs=max(1e-9, 10 * err))


def test_exceedance_monotone_in_tracking(comp1):
    for eta0 in (0.90, 0.93, 0.95):
        vals = [tracked_exceedance(eta0, tracked_pdt(comp1, f))
                for f in (0.0, 0.25, 0.5, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_zero_width_exceedance_is_rayleigh_cdf(zero_width_comp):
    # Point components: eta exceeds eta0 exactly when the displacement is
    # below r* = r_scale ln(eta0_norm / eta0)^(1/lambda), a Rayleigh CDF.
    c = zero_width_comp
    wp = c.weibull
    for eta0 in (0.3, 0.5, 0.6, 0.7):
        r_star = wp.r_scale * math.log(c.eta0_norm / eta0) ** (
            1.0 / wp.shape_lambda)
        want = 1.0 - math.exp(-r_star ** 2 / (2.0 * c.sigma_bw2))
        assert tracked_exceedance(eta0, c) == pytest.approx(want, rel=1e-12)
    assert tracked_exceedance(c.eta0_norm, c) == 0.0
    assert tracked_exceedance(0.85, c) == 0.0
    # It is the complement of the integrated closed-form density.
    quad = integrate.quad(lambda e: float(composite_pdt_density(e, c)),
                          0.6, c.eta0_norm, limit=400)[0]
    assert tracked_exceedance(0.6, c) == pytest.approx(quad, rel=1e-7)


@pytest.mark.parametrize("eta_min", [-0.01, 1.0, 1.5])
def test_postselection_threshold_domain(comp1, eta_min):
    with pytest.raises(DomainError):
        postselected_moments(comp1, eta_min)


def test_postselected_moments_match_quadrature(comp1):
    tp = tracked_pdt(comp1, 0.5)
    eta_min = 0.5
    dens = lambda e: float(composite_pdt_density(e, tp))
    acc_q = integrate.quad(dens, eta_min, 1.0, limit=400)[0]
    m1_q = integrate.quad(lambda e: e * dens(e), eta_min, 1.0,
                          limit=400)[0] / acc_q
    m2_q = integrate.quad(lambda e: e * e * dens(e), eta_min, 1.0,
                          limit=400)[0] / acc_q
    m1, m2, acc = postselected_moments(tp, eta_min)
    assert acc == pytest.approx(acc_q, rel=1e-8)
    assert m1 == pytest.approx(m1_q, rel=1e-8)
    assert m2 == pytest.approx(m2_q, rel=1e-8)
    assert eta_min < m1 <= 1.0
    assert m1 * m1 <= m2 <= m1


def test_acceptance_equals_exceedance(comp1):
    tp = tracked_pdt(comp1, 0.5)
    for eta_min in (0.0, 0.3, 0.7):
        _, _, acc = postselected_moments(tp, eta_min)
        assert acc == pytest.approx(tracked_exceedance(eta_min, tp),
                                    rel=1e-12)


def test_postselection_raises_mean(comp1):
    m_none, _, _ = postselected_moments(comp1, 0.0)
    m_half, _, _ = postselected_moments(comp1, 0.5)
    m_high, _, _ = postselected_moments(comp1, 0.9)
    assert m_none < m_half < m_high


def test_zero_width_postselected_moments(zero_width_comp):
    # Against the closed-form density integrated above the threshold.
    c = zero_width_comp
    dens = lambda e: float(composite_pdt_density(e, c))
    acc_q = integrate.quad(dens, 0.5, c.eta0_norm, limit=400)[0]
    m1_q = integrate.quad(lambda e: e * dens(e), 0.5, c.eta0_norm,
                          limit=400)[0] / acc_q
    m2_q = integrate.quad(lambda e: e * e * dens(e), 0.5, c.eta0_norm,
                          limit=400)[0] / acc_q
    m1, m2, acc = postselected_moments(c, 0.5)
    assert acc == pytest.approx(acc_q, rel=1e-7)
    assert m1 == pytest.approx(m1_q, rel=1e-7)
    assert m2 == pytest.approx(m2_q, rel=1e-7)
    # No threshold: the untruncated closure moments.
    m = composite_moments(c)
    m1, m2, acc = postselected_moments(c, 0.0)
    assert acc == 1.0
    assert m1 == pytest.approx(m.mean_eta, rel=1e-9)
    assert m2 == pytest.approx(m.mean_eta2, rel=1e-9)


def test_empty_postselection(zero_width_comp):
    # All point components sit at or below eta0_norm < 0.95.
    assert zero_width_comp.eta0_norm < 0.95
    with pytest.raises(EmptyPostselection):
        postselected_moments(zero_width_comp, 0.95)


def test_squeezing_matches_oracle(comp1):
    for f in (0.0, 0.5, 1.0):
        tp = tracked_pdt(comp1, f)
        m1, _, _ = postselected_moments(tp, 0.3)
        got = transmitted_squeezing_db(-3.0, tp, 0.3)
        assert got == pytest.approx(float(squeezing_out_db(-3.0, m1)),
                                    rel=1e-12)
        assert -3.0 < got < 0.0


def test_squeezing_improves_with_tracking(comp1):
    outs = [transmitted_squeezing_db(-3.0, tracked_pdt(comp1, f), 0.3)
            for f in (0.0, 0.5, 1.0)]
    assert outs[0] > outs[1] > outs[2]


def test_squeezing_improves_with_postselection(comp1):
    outs = [transmitted_squeezing_db(-3.0, comp1, em)
            for em in (0.0, 0.3, 0.7)]
    assert outs[0] > outs[1] > outs[2]


@pytest.mark.parametrize("v_in", [0.0, 1.0, 3.0])
def test_squeezing_requires_squeezed_input(comp1, v_in):
    with pytest.raises(DomainError):
        transmitted_squeezing_db(v_in, comp1, 0.3)
