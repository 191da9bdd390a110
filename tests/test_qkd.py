"""Two-decoy key-rate building blocks and distribution averages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_channel
from oracles import (brute_gain, brute_key_rate_integrand, brute_q1_lower,
                     brute_qber, q1_zero_eta_exact)
from turbchan import (DecoyParams, averaged_key_rate, binary_entropy,
                      composite_pdt_sample, gain, key_rate_integrand,
                      mean_loss_db, one_photon_gain_lower, qber,
                      relative_improvement)
from turbchan.errors import (DecoyOrderingViolation, DivisionByZeroRate,
                             DomainError)

P = DecoyParams()


def test_frozen_anchors():
    assert binary_entropy(0.11) == pytest.approx(0.499915958165, rel=1e-11)
    assert gain(1.0, P.mu_s, P) == pytest.approx(0.236622205663, rel=1e-11)
    assert qber(1.0, P.mu_s, P) == pytest.approx(0.0100035203797, rel=1e-11)
    assert one_photon_gain_lower(1.0, P) == pytest.approx(0.201834180049,
                                                          rel=1e-11)
    assert key_rate_integrand(1.0, P) == pytest.approx(0.0812875435237,
                                                       rel=1e-11)
    assert key_rate_integrand(0.3, P) == pytest.approx(0.0233164401185,
                                                       rel=1e-11)


def test_zero_eta_limit_of_one_photon_bound():
    # At eta = 0 every gain collapses to the background yield; the raw
    # bound reduces to a y0-proportional constant computed here at high
    # precision through an independent route.
    got = one_photon_gain_lower(0.0, P, clamp=False)
    assert got == pytest.approx(q1_zero_eta_exact(), rel=1e-8)


def test_brute_force_match_default_params():
    rng = np.random.default_rng(7)
    for e in rng.uniform(1e-6, 1.0, 100):
        e = float(e)
        assert gain(e, P.mu_s, P) == pytest.approx(brute_gain(e, P.mu_s),
                                                   rel=1e-12)
        assert qber(e, P.mu_s, P) == pytest.approx(brute_qber(e, P.mu_s),
                                                   rel=1e-12)
        assert one_photon_gain_lower(e, P) == pytest.approx(
            brute_q1_lower(e), rel=1e-12)
        assert key_rate_integrand(e, P) == pytest.approx(
            brute_key_rate_integrand(e), rel=1e-12, abs=1e-300)


def test_brute_force_match_alternate_params():
    p = DecoyParams(mu_s=0.2, mu_d=0.35, y0=5e-6, e_det=0.02, f_ec=1.1)
    rng = np.random.default_rng(8)
    for e in rng.uniform(1e-6, 1.0, 25):
        e = float(e)
        assert gain(e, p.mu_s, p) == pytest.approx(
            brute_gain(e, 0.2, 5e-6), rel=1e-12)
        assert qber(e, p.mu_s, p) == pytest.approx(
            brute_qber(e, 0.2, 5e-6, 0.02), rel=1e-12)
        assert one_photon_gain_lower(e, p) == pytest.approx(
            brute_q1_lower(e, 0.2, 0.35, 5e-6), rel=1e-12)
        assert key_rate_integrand(e, p) == pytest.approx(
            brute_key_rate_integrand(e, 0.2, 0.35, 5e-6, 0.02, 1.1),
            rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("kwargs", [
    dict(mu_s=0.39, mu_d=0.27),
    dict(mu_s=0.3, mu_d=0.3),
    dict(mu_s=0.0),
    dict(mu_d=1.0),
])
def test_decoy_ordering_enforced(kwargs):
    with pytest.raises(DecoyOrderingViolation):
        DecoyParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(e_det=float("nan")),
    dict(y0=-1e-9),
    dict(e_det=-0.01),
    dict(e_det=0.51),
    dict(f_ec=0.99),
    dict(y0=float("nan")),
    dict(f_ec=float("nan")),
])
def test_decoy_domain_enforced(kwargs):
    with pytest.raises(DomainError):
        DecoyParams(**kwargs)


def test_binary_entropy_shape():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    grid = np.linspace(0.01, 0.99, 99)
    h = binary_entropy(grid)
    assert h.shape == grid.shape
    assert np.all((h > 0.0) & (h <= 1.0))
    assert np.allclose(h, binary_entropy(1.0 - grid), rtol=1e-13)


@settings(max_examples=50)
@given(x=st.floats(1e-9, 0.5))
def test_binary_entropy_monotone_left_half(x):
    assert binary_entropy(x) <= binary_entropy(min(0.5, x * 1.5)) + 1e-15


def test_gain_qber_monotone():
    grid = np.linspace(0.0, 1.0, 200)
    q = gain(grid, P.mu_s, P)
    assert np.all(np.diff(q) > 0.0)
    assert np.all(q <= 1.0 + P.y0)
    e = qber(grid, P.mu_s, P)
    assert np.all(np.diff(e) < 0.0)
    assert qber(0.0, P.mu_s, P) == pytest.approx(0.5, abs=1e-9)
    assert np.all((e > 0.0) & (e <= 0.5))
    # The brighter decoy pulse is detected more often.
    assert np.all(gain(grid[1:], P.mu_d, P) > gain(grid[1:], P.mu_s, P))


def test_one_photon_bound_clamp_consistency():
    grid = np.linspace(0.0, 1.0, 300)
    raw = one_photon_gain_lower(grid, P, clamp=False)
    clamped = one_photon_gain_lower(grid, P)
    qs = gain(grid, P.mu_s, P)
    assert np.array_equal(clamped, np.minimum(np.maximum(raw, 0.0), qs))
    assert np.all((clamped >= 0.0) & (clamped <= qs))


def test_integrand_clamp_semantics():
    raw = key_rate_integrand(1e-5, P, clamp=False)
    assert raw < 0.0
    assert key_rate_integrand(1e-5, P) == 0.0
    grid = np.linspace(1e-6, 1.0, 300)
    raw_g = key_rate_integrand(grid, P, clamp=False)
    assert np.array_equal(key_rate_integrand(grid, P),
                          np.maximum(raw_g, 0.0))


def equal(eta):
    """A transmittance array with equal weights, as for draws."""
    eta = np.asarray(eta, dtype=float)
    return eta, np.full(eta.size, 1.0 / eta.size)


def test_averaged_rate_point_mass():
    res = averaged_key_rate(*equal(np.full(50, 0.9)), P)
    assert res.rate == pytest.approx(key_rate_integrand(0.9, P), rel=1e-14)
    assert res.diagnostics["points"] == 50
    assert res.diagnostics["rate_clamped_fraction"] == 0.0


def test_averaged_rate_point_mass_at_any_count():
    # 10^4 weights of 1e-4 sum to 1 only to rounding, within the 1e-12
    # the weights are checked to.
    res = averaged_key_rate(*equal(np.full(10_000, 0.37)), P)
    assert res.rate == pytest.approx(key_rate_integrand(0.37, P), rel=1e-14)


def test_averaged_rate_two_point_linearity():
    a, b = 0.85, 0.95
    res = averaged_key_rate(*equal([a, b]), P)
    want = 0.5 * (key_rate_integrand(a, P) + key_rate_integrand(b, P))
    assert res.rate == pytest.approx(want, rel=1e-14)


def test_averaged_rate_raw_vs_clamped_variant():
    samples = np.array([1e-5, 0.9])
    res_raw = averaged_key_rate(*equal(samples), P)
    f_raw = key_rate_integrand(1e-5, P, clamp=False)
    assert res_raw.diagnostics["raw_mean"] == pytest.approx(
        0.5 * (f_raw + key_rate_integrand(0.9, P, clamp=False)), rel=1e-13)
    assert res_raw.rate == max(0.0, res_raw.diagnostics["raw_mean"])
    assert res_raw.diagnostics["rate_clamped_fraction"] == 0.5


def test_averaged_rate_all_negative_reports_zero():
    res = averaged_key_rate(*equal(np.full(10, 1e-5)), P)
    assert res.rate == 0.0
    assert res.diagnostics["raw_mean"] < 0.0


@pytest.mark.parametrize("bad", [
    (np.zeros((2, 2)), np.full((2, 2), 0.25)),
    (np.array([]), np.array([])),
    (np.zeros(4), np.full((2, 2), 0.25)),
    (np.array([0.5, 0.9]), np.array([1.0])),
    (np.array([0.5, 0.9]), np.array([1.5, -0.5])),
    (np.array([0.5, 0.9]), np.array([0.5, 0.4])),
    (np.array([0.5, 0.9]), np.array([0.5, 0.5 + 1e-11])),
    (np.array([0.5, 0.9]), np.array([0.5, np.nan])),
    (np.array([np.nan]), np.array([1.0])),
    (np.array([1.5]), np.array([1.0])),
    (np.array([0.5, -0.1]), np.array([0.5, 0.5])),
])
def test_averaged_rate_rejects_bad_samples(bad):
    with pytest.raises(DomainError):
        averaged_key_rate(*bad, P)


def test_averaged_rate_deterministic(comp1):
    def rate(seed):
        return averaged_key_rate(
            *equal(composite_pdt_sample(comp1, 300, seed)), P)

    r1, r2, r3 = rate(5), rate(5), rate(6)
    assert r1.rate == r2.rate
    assert r1.rate != r3.rate


def test_relative_improvement():
    assert relative_improvement(0.2, 0.1) == pytest.approx(0.5, rel=1e-15)
    assert relative_improvement(0.2, 0.2) == 0.0
    assert relative_improvement(0.2, 0.0) == 1.0
    with pytest.raises(DivisionByZeroRate):
        relative_improvement(0.0, 0.1)
    with pytest.raises(DivisionByZeroRate):
        relative_improvement(-0.1, 0.1)


def test_extinction_and_loss_scales():
    # The channel owns the extinction factor; the loss is its dB scale.
    chan = make_channel(4e-14, 3000.0, extinction_db_per_km=2.0)
    assert mean_loss_db(chan.extinction_eta) == pytest.approx(6.0,
                                                             rel=1e-14)
    assert mean_loss_db(1.0) == 0.0
    assert mean_loss_db(0.1) == pytest.approx(10.0, rel=1e-14)
    for bad in (0.0, -0.1, np.nan, 2.0, np.inf):
        with pytest.raises(DomainError):
            mean_loss_db(bad)
