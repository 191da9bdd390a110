"""Truncated log-normal: the zero-wandering law, its density and sampling.

Outside the Weibull window composite_pdt_build matches one truncated
log-normal to the first two moments; these tests build that law through it
and compare it with the reference formulas of tests/oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from turbchan import (composite_mu, composite_pdt_build,
                      composite_pdt_density, trunc_lognormal_sample)
from turbchan.errors import DomainError, RejectionStall
from turbchan.kernels.stats import BeamStats
from turbchan.pdt import TruncLogNormal

import oracles


def lognormal_law(m1, m2):
    # a/W_ST = 0.08, below the Weibull window: the zero-wandering law.
    return composite_pdt_build(
        BeamStats(mean_eta=m1, mean_eta2=m2, sigma_bw2=8.4e-05, wst2=0.25),
        0.04)


def law_params(law):
    # (mu, sigma, f1) of the law's one log-normal component.
    mu = float(composite_mu(law, 0.0))
    return mu, law.sigma_r0, float(special.ndtr(mu / law.sigma_r0))


def test_params_anchor():
    law = lognormal_law(0.5, 0.3)
    assert law.family == "lognormal"
    mu, sigma, f1 = law_params(law)
    assert mu == pytest.approx(0.784307958957, rel=1e-11)
    assert sigma == pytest.approx(0.426991284213, rel=1e-11)
    assert f1 == pytest.approx(0.966882079959, rel=1e-11)
    # commonly quoted rounded value of the same parameter
    assert mu == pytest.approx(0.784281, rel=1e-4)


def test_moment_convention_documented():
    # Parameters come from the untruncated moment match; with most mass
    # below 1 the truncated moments land close to, but not exactly on,
    # the inputs. The oracle integrals pin the exact truncated values.
    law = lognormal_law(0.2, 0.05)
    m1 = integrate.quad(lambda e: e * composite_pdt_density(e, law),
                        0.0, 1.0, limit=200)[0]
    m2 = integrate.quad(lambda e: e * e * composite_pdt_density(e, law),
                        0.0, 1.0, limit=200)[0]
    assert m1 == pytest.approx(0.199874928979, rel=1e-8)
    assert m2 == pytest.approx(0.0498325791089, rel=1e-8)
    assert law_params(law)[2] == pytest.approx(0.999865401, rel=1e-8)
    assert m1 == pytest.approx(0.2, rel=2e-3)
    assert m2 == pytest.approx(0.05, rel=5e-3)


def test_density_matches_oracle():
    law = lognormal_law(0.5, 0.3)
    mu, sigma, _ = oracles.trunc_lognormal_params(0.5, 0.3)
    for eta in (0.05, 0.2, 0.5, 0.9, 1.0):
        want = oracles.trunc_lognormal_density(eta, mu, sigma)
        assert composite_pdt_density(eta, law) == pytest.approx(want,
                                                                rel=1e-12)


def test_density_support_and_normalization():
    law = lognormal_law(0.5, 0.3)
    assert composite_pdt_density(0.0, law) == 0.0
    assert composite_pdt_density(1.0000001, law) == 0.0
    grid = np.linspace(0.0, 1.2, 50)
    dens = composite_pdt_density(grid, law)
    assert dens.shape == grid.shape and np.all(dens >= 0.0)
    norm, _ = integrate.quad(lambda e: composite_pdt_density(e, law),
                             0.0, 1.0, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_sampling_matches_density():
    p = TruncLogNormal(*oracles.trunc_lognormal_params(0.5, 0.3))
    draws = trunc_lognormal_sample(p, 40_000, seed=3)
    assert np.all((draws > 0.0) & (draws <= 1.0))
    m1 = oracles.trunc_lognormal_moment(1, p.mu, p.sigma)
    m2 = oracles.trunc_lognormal_moment(2, p.mu, p.sigma)
    se = math.sqrt((m2 - m1 * m1) / draws.size)
    assert abs(float(np.mean(draws)) - m1) < 4.0 * se


def test_sampling_deterministic():
    p = TruncLogNormal(*oracles.trunc_lognormal_params(0.5, 0.3))
    a = trunc_lognormal_sample(p, 100, seed=9)
    b = trunc_lognormal_sample(p, 100, seed=9)
    c = trunc_lognormal_sample(p, 100, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("m1,m2", [
    (0.0, 0.1), (-0.2, 0.1), (0.5, 0.0), (0.5, 0.24), (1.2, 1.5),
])
def test_invalid_moments(m1, m2):
    with pytest.raises(DomainError):
        lognormal_law(m1, m2)


def test_zero_variance_is_degenerate():
    law = lognormal_law(0.5, 0.25)
    assert law.family == "degenerate"
    assert law.atom == 0.5


def test_rejection_stall_guard():
    # Nearly all untruncated mass above 1: acceptance ~ ndtr(mu/sigma) ~ 0.
    p = TruncLogNormal(mu=-5.0, sigma=0.5, f1=7.7e-24)
    with pytest.raises(RejectionStall):
        trunc_lognormal_sample(p, 10, seed=0)


@settings(max_examples=80)
@given(m1=st.floats(0.05, 0.95), excess=st.floats(1e-4, 0.5))
def test_valid_moment_pairs(m1, excess):
    m2 = m1 * m1 * (1.0 + excess)
    if m2 >= m1:  # second moment may not exceed the first on (0, 1]
        m2 = 0.5 * (m1 * m1 + m1)
    law = lognormal_law(m1, m2)
    _, sigma, f1 = law_params(law)
    assert sigma > 0.0 and 0.0 < f1 <= 1.0
    dens = composite_pdt_density(np.array([0.3, 0.8]), law)
    assert np.all(dens >= 0.0) and np.all(np.isfinite(dens))
