"""Weibull attenuation-law fit and the wandering-only transmittance density.

The wandering-only density is the composite law with zero conditional
width: every displacement gives one transmittance on the attenuation law.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from turbchan import composite_pdt_density, weibull_params
from turbchan.errors import DomainError
from turbchan.pdt import CompositePdt

import oracles

# Frozen from tests/oracles.py (mpmath Bessel route), a = 4 cm, W_ST = 5 cm.
ANCHOR = (0.721962699547, 0.0480900814013, 2.11741313303)


def wandering_only(wp, sigma_bw2):
    # Point components on the attenuation law under Rayleigh wandering.
    return CompositePdt(wp.eta0_max, wp.eta0_max ** 2, wp, sigma_bw2, 0.0)


def test_params_anchor():
    wp = weibull_params(0.04, 0.05)
    assert wp.eta0_max == pytest.approx(ANCHOR[0], rel=1e-11)
    assert wp.r_scale == pytest.approx(ANCHOR[1], rel=1e-11)
    assert wp.shape_lambda == pytest.approx(ANCHOR[2], rel=1e-11)
    assert wp.ratio == pytest.approx(0.8, rel=1e-15)


def test_params_match_oracle_across_window():
    for ratio in (0.12, 0.3, 1.0, 3.0, 8.0):
        a = 0.04
        wst = a / ratio
        wp = weibull_params(a, wst)
        eta0, rscale, lam = oracles.weibull_params(a, wst)
        assert wp.eta0_max == pytest.approx(eta0, rel=1e-10)
        assert wp.r_scale == pytest.approx(rscale, rel=1e-10)
        assert wp.shape_lambda == pytest.approx(lam, rel=1e-10)


def test_equal_radii_case():
    wp = weibull_params(0.04, 0.04)
    assert wp.eta0_max == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    eta0, rscale, lam = oracles.weibull_params(0.04, 0.04)
    assert wp.shape_lambda == pytest.approx(lam, rel=1e-10)
    assert wp.r_scale == pytest.approx(rscale, rel=1e-10)


@pytest.mark.parametrize("a,wst", [(0.04, 0.5), (0.04, 0.8), (0.5, 0.04)])
def test_ratio_guard(a, wst):
    with pytest.raises(DomainError):
        weibull_params(a, wst)


def test_density_matches_oracle_pointwise():
    wp = weibull_params(0.04, 0.05)
    sigma_bw2 = 8.4e-05
    law = wandering_only(wp, sigma_bw2)
    for eta in (0.05, 0.2, 0.4, 0.6, 0.72):
        want = oracles.weibull_density(eta, *ANCHOR, math.sqrt(sigma_bw2))
        got = composite_pdt_density(eta, law)
        assert got == pytest.approx(want, rel=1e-9)


def test_density_support_and_normalization():
    wp = weibull_params(0.04, 0.05)
    law = wandering_only(wp, 8.4e-05)
    assert composite_pdt_density(0.0, law) == 0.0
    assert composite_pdt_density(wp.eta0_max, law) == 0.0
    assert composite_pdt_density(0.9, law) == 0.0
    norm, _ = integrate.quad(lambda e: composite_pdt_density(e, law),
                             0.0, wp.eta0_max, limit=300)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_density_vectorized():
    wp = weibull_params(0.04, 0.05)
    grid = np.linspace(0.0, 1.0, 101)
    dens = composite_pdt_density(grid, wandering_only(wp, 8.4e-05))
    assert dens.shape == grid.shape
    assert np.all(dens >= 0.0)
    assert np.all(dens[grid >= wp.eta0_max] == 0.0)


def test_generative_law_roundtrip():
    # eta = eta0 exp(-(r0/R)^lambda) with Rayleigh r0 must reproduce the
    # density: compare the empirical CDF with the analytic exceedance
    # P(eta > x) = P(r0 < R ln^(1/lambda)(eta0/x)).
    wp = weibull_params(0.04, 0.05)
    sigma_bw = math.sqrt(8.4e-05)
    rng = np.random.default_rng(11)
    r0 = sigma_bw * np.sqrt(-2.0 * np.log1p(-rng.random(40_000)))
    eta = wp.eta0_max * np.exp(-((r0 / wp.r_scale) ** wp.shape_lambda))
    xs = np.linspace(0.05, 0.7, 40)
    emp = (eta[None, :] > xs[:, None]).mean(axis=1)
    rcrit = wp.r_scale * np.log(wp.eta0_max / xs) ** (1.0 / wp.shape_lambda)
    ana = 1.0 - np.exp(-rcrit ** 2 / (2.0 * sigma_bw ** 2))
    assert np.max(np.abs(emp - ana)) < 0.01


@settings(max_examples=60)
@given(ratio=st.floats(0.1, 10.0))
def test_params_well_defined_on_window(ratio):
    wp = weibull_params(0.04, 0.04 / ratio)
    # eta0_max = 1 - exp(-2 ratio^2) rounds to exactly 1.0 above ratio ~ 4.3.
    assert 0.0 < wp.eta0_max <= 1.0
    assert wp.r_scale > 0.0
    assert wp.shape_lambda > 0.0
    assert math.isfinite(wp.shape_lambda)
