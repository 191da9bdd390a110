"""Aggregated beam statistics against independent quadrature anchors."""

import itertools
import math
import warnings

import pytest
from scipy import integrate, optimize, special

from turbchan import channel_stats
from turbchan.errors import QuadratureNotConverged, StatsInvariantViolation
from turbchan.kernels import QmcResult
from turbchan.kernels import gamma2 as gamma2_module
from turbchan.kernels import stats as stats_module
from turbchan.kernels.stats import (MASS_FRACTION, StatsBudget,
                                    mass_cut_radius, mean_eta_quad,
                                    sigma_bw2_quad, x2_moment)

from conftest import make_channel
from oracles import sigma_bw2_geometric

# Frozen from tests/oracles.py: pointwise-Bessel profile integrated with
# adaptive quadrature, tilt integral via QUADPACK.
ORACLE = {
    "c1": dict(cn2=4e-14, length=1000.0, mean_eta=0.948567514,
               sigma_bw2=8.39910382e-05, wst2=0.000932438203,
               rcut=0.334514557),
    "c2": dict(cn2=3e-15, length=2000.0, mean_eta=0.953056879,
               sigma_bw2=4.84642945e-05, wst2=0.000907715173,
               rcut=0.215595571),
    "c3": dict(cn2=3e-15, length=3000.0, mean_eta=0.7366872,
               sigma_bw2=0.000157805065, wst2=0.00248794355,
               rcut=0.411429318),
}


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_quadrature_anchors(name):
    cfg = ORACLE[name]
    chan = make_channel(cfg["cn2"], cfg["length"])
    me, _ = mean_eta_quad(chan)
    sb, _ = sigma_bw2_quad(chan)
    rc = mass_cut_radius(chan)
    assert me == pytest.approx(cfg["mean_eta"], rel=1e-6)
    assert sb == pytest.approx(cfg["sigma_bw2"], rel=1e-6)
    assert rc == pytest.approx(cfg["rcut"], rel=1e-4)


def test_wander_geometric_limit():
    assert sigma_bw2_geometric(4e-14, 1000.0, 0.02) == pytest.approx(
        8.663514528e-05, rel=1e-9)


@pytest.mark.parametrize("fixture", ["stats1", "stats2", "stats3"])
def test_moment_inequalities(fixture, request):
    st = request.getfixturevalue(fixture)
    assert st.mean_eta ** 2 <= st.mean_eta2 <= st.mean_eta
    assert 0.0 < st.mean_eta <= 1.0
    assert st.sigma_bw2 > 0.0 and st.wst2 > 0.0
    assert st.se_mean_eta > 0.0 and st.se_mean_eta2 > 0.0


def test_wst2_anchor(stats1, stats2, stats3):
    assert stats1.wst2 == pytest.approx(ORACLE["c1"]["wst2"], rel=1e-5)
    assert stats2.wst2 == pytest.approx(ORACLE["c2"]["wst2"], rel=1e-5)
    assert stats3.wst2 == pytest.approx(ORACLE["c3"]["wst2"], rel=1e-5)


def test_vacuum_closed_form():
    chan = make_channel(0.0, 2000.0)
    st = channel_stats(chan, StatsBudget(10), seed=0)
    closed = 1.0 - math.exp(-2.0 * 0.04 ** 2 / chan.w_vac ** 2)
    assert closed == pytest.approx(0.992808116644, rel=1e-10)
    assert st.mean_eta == pytest.approx(closed, abs=1e-4)
    assert st.sigma_bw2 == 0.0
    assert st.diagnostics["eta2"]["vacuum_closed_form"]
    assert abs(st.mean_eta2 - st.mean_eta ** 2) <= 3.0 * st.se_mean_eta2


def test_determinism(chan1):
    budget = StatsBudget(14)
    a = channel_stats(chan1, budget, seed=5)
    b = channel_stats(chan1, budget, seed=5)
    c = channel_stats(chan1, budget, seed=6)
    assert a == b
    assert a.mean_eta2 != c.mean_eta2 or a.diagnostics != c.diagnostics
    # quadrature-only pieces do not depend on the seed
    assert a.mean_eta == c.mean_eta and a.sigma_bw2 == c.sigma_bw2


def test_clamp_path_recorded(chan1):
    # At seed 1 the <eta^2> estimate exceeds the <eta> ceiling that eta <= 1
    # allows; it is clamped to the boundary and the event is recorded.
    # ROADMAP item 1 holds the evidence that the estimator's mean, not only
    # its noise, lies above that bound.
    st = channel_stats(chan1, seed=1)
    assert st.diagnostics.get("clamped") == ["mean_eta2->mean_eta"]
    assert st.mean_eta2 == st.mean_eta


def _quadrature_fields(mean_eta):
    return {"mean_eta": mean_eta, "se_mean_eta": 1e-9, "sigma_bw2": 1e-4,
            "se_sigma_bw2": 1e-13, "wst2": 1e-3, "diagnostics": {}}


@pytest.mark.parametrize("bound", ["mean_eta", "mean_eta^2"])
def test_bound_violation_beyond_3se_raises(bound):
    # A raw mean_eta2 2.9 se past either moment bound is clamped onto it;
    # 3.1 se past it raises.
    mean_eta, se = 0.9, 1e-3
    edge, sign = ((mean_eta, 1.0) if bound == "mean_eta"
                  else (mean_eta ** 2, -1.0))
    near = stats_module._beam_stats(_quadrature_fields(mean_eta),
                                    QmcResult(edge + 2.9 * sign * se, se, {}))
    assert near.mean_eta2 == edge
    assert near.diagnostics["clamped"] == ["mean_eta2->" + bound]
    with pytest.raises(StatsInvariantViolation):
        stats_module._beam_stats(_quadrature_fields(mean_eta),
                                 QmcResult(edge + 3.1 * sign * se, se, {}))


def test_bound_margin_recorded(stats1, chan1):
    # (mean_eta - raw mean_eta2) / se, taken before the clamp: positive
    # inside the bound, between -3 and 0 where the estimate was clamped.
    eta2 = stats1.diagnostics["eta2"]
    raw = eta2["mean_eta_sq"] + eta2["flux_covariance"]
    assert eta2["bound_margin"] == (
        (stats1.mean_eta - raw) / stats1.se_mean_eta2)
    clamped = channel_stats(chan1, seed=1)
    assert -3.0 <= clamped.diagnostics["eta2"]["bound_margin"] < 0.0


def test_diagnostics_structure(stats1):
    d = stats1.diagnostics
    assert d["rcut_m"] == pytest.approx(ORACLE["c1"]["rcut"], rel=1e-4)
    assert d["mass_fraction"] == pytest.approx(0.999)
    assert d["eta2"]["points"] > 0 and d["eta2"]["replicates"] > 1
    assert {"mass_fraction", "rcut_m", "x2_error", "eta2"} <= set(d)


# --- the fixed rules against adaptive quadrature ------------------------

FIG2_LENGTHS_KM = (1, 2, 3, 4, 6, 8, 10, 12, 14, 15, 16)
# The channels of scenarios/fig2_solid.cfg, vacuum.cfg and
# weak_turbulence.cfg, each at every fig2 sweep length.
SCENARIO_CHANNELS = {"fig2": dict(cn2=4e-14), "vacuum": dict(cn2=0.0),
                     "weak": dict(cn2=1e-16, aperture_radius=0.2)}


def _quad(f, lo, hi, **kw):
    # QUADPACK at tight tolerance; its roundoff warnings at this tolerance
    # are expected.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, lo, hi, limit=2000, **kw)[0]


def quadpack_radial(chan):
    """(mean_eta, 99.9% radius, wst2) from QUADPACK on the Hankel forms over
    [0, 14 W0], a brentq root and the QUADPACK tilt integral."""
    beta = chan.k / chan.length
    turb = 0.375 * chan.cn2 * chan.k ** 2 * chan.length
    hi = 14.0 * chan.w0

    def g(rho):
        return math.exp(-rho * rho / (2.0 * chan.w0 ** 2)
                        - turb * rho ** (5.0 / 3.0))

    def mass(r):
        c = beta * r
        return c * _quad(lambda rho: g(rho) * special.j1(c * rho), 0.0, hi,
                         epsabs=1e-16, epsrel=1e-13)

    lo, up = 0.25 * chan.w_vac, 4.0 * chan.w_vac
    while mass(up) < MASS_FRACTION:
        lo, up = up, 2.0 * up
    rcut = optimize.brentq(lambda r: mass(r) - MASS_FRACTION, lo, up,
                           xtol=1e-15, rtol=1e-14)
    c = beta * rcut
    tail = _quad(lambda rho: g(rho) * special.jv(2, c * rho) / rho
                 if rho > 0.0 else 0.0, 0.0, hi, epsabs=1e-18, epsrel=1e-13)
    x2 = rcut ** 2 * (0.5 * MASS_FRACTION - tail)
    return mass(chan.aperture_radius), rcut, 4.0 * (x2 - sigma_bw2_ref(chan))


def sigma_bw2_ref(chan):
    k, length, w0 = chan.k, chan.length, chan.w0

    def f(z):
        wv2 = w0 * w0 * (1.0 - z / length) ** 2 + (2.0 * z / (k * w0)) ** 2
        return (length - z) ** 2 * wv2 ** (-1.0 / 6.0)

    return stats_module.WANDER_COEFF * chan.cn2 * _quad(
        f, 0.0, length, epsabs=0.0, epsrel=1e-13)


@pytest.mark.parametrize("scenario", sorted(SCENARIO_CHANNELS))
def test_radial_rule_matches_quadpack(scenario):
    for km in FIG2_LENGTHS_KM:
        chan = make_channel(length=1000.0 * km, **SCENARIO_CHANNELS[scenario])
        me_ref, rcut_ref, wst2_ref = quadpack_radial(chan)
        me, _ = mean_eta_quad(chan)
        rcut = mass_cut_radius(chan)
        wst2 = 4.0 * (x2_moment(rcut, chan)[0] - sigma_bw2_quad(chan)[0])
        assert me == pytest.approx(me_ref, rel=1e-10), km
        assert rcut == pytest.approx(rcut_ref, rel=1e-7), km
        assert wst2 == pytest.approx(wst2_ref, rel=1e-8), km


def test_wander_rule_matches_quadpack():
    lengths = (200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4)
    waists = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
    for length, w0 in itertools.product(lengths, waists):
        chan = make_channel(1e-14, length, w0=w0)
        val, err = sigma_bw2_quad(chan)
        ref = sigma_bw2_ref(chan)
        assert val == pytest.approx(ref, rel=1e-12), (length, w0)
        # The quoted error is the nested half-step difference: not zero,
        # and no larger than the rule needs.
        assert 0.0 < err <= 1e-11 * val


def test_quoted_errors_come_from_the_rules(chan1):
    # Each error is a rule difference, not a constant: it changes with the
    # channel and stays far below the SE_FLOOR that channel_stats adds.
    chan4 = make_channel(4e-14, 4000.0)
    errs = [(mean_eta_quad(c)[1], x2_moment(mass_cut_radius(c), c)[1])
            for c in (chan1, chan4)]
    assert errs[0] != errs[1]
    for me_err, x2_err in errs:
        assert 0.0 < me_err < stats_module.SE_FLOOR
        assert 0.0 < x2_err


def test_rule_diagnostics(stats1, chan1):
    d = stats1.diagnostics
    assert d["radial_nodes"] == stats_module.radial_node_count(chan1)
    assert d["radial_nodes"] & (d["radial_nodes"] - 1) == 0
    # The envelope exponent reaches -98 at R_sup, inside 14 W0.
    rsup = d["radial_support_m"]
    assert rsup < 14.0 * chan1.w0
    turb = 0.375 * chan1.cn2 * chan1.k ** 2 * chan1.length
    assert (rsup ** 2 / (2.0 * chan1.w0 ** 2) + turb * rsup ** (5.0 / 3.0)
            == pytest.approx(gamma2_module.SUPPORT_EXPONENT, rel=1e-13))
    assert d["wander_nodes"] == 193
    vac = channel_stats(make_channel(0.0, 1000.0),
                        StatsBudget(10), seed=0).diagnostics
    assert vac["radial_support_m"] == pytest.approx(14.0 * 0.02, rel=1e-15)


def test_compound_radial_rule_matches_quadpack():
    # A 3 m aperture at 1 km needs 4096 nodes: four 1024-node panels.
    chan = make_channel(4e-14, 1000.0, aperture_radius=3.0)
    assert (stats_module.radial_node_count(chan)
            == 4 * gamma2_module.PANEL_NODES)
    beta = chan.k / chan.length
    c = beta * chan.aperture_radius
    turb = 0.375 * chan.cn2 * chan.k ** 2 * chan.length
    rsup = gamma2_module.envelope_support(chan)
    edges = [rsup * i / 100 for i in range(101)]
    want = c * sum(_quad(lambda rho: math.exp(
        -rho * rho / (2.0 * chan.w0 ** 2) - turb * rho ** (5.0 / 3.0))
        * special.j1(c * rho), lo, hi, epsabs=1e-18, epsrel=1e-13)
        for lo, hi in zip(edges[:-1], edges[1:]))
    got, err = mean_eta_quad(chan)
    assert abs(got - want) <= 1e-13 and 0.0 < err <= 1e-13


def test_radial_rule_raises_past_its_cap():
    # A 100 m aperture 1 km from a 2 cm waist puts 2e5 rad of J1 phase
    # across the rule, which would need more than MAX_RADIAL_NODES nodes.
    big = make_channel(0.0, 1000.0, aperture_radius=100.0)
    with pytest.raises(QuadratureNotConverged):
        mean_eta_quad(big)
    with pytest.raises(QuadratureNotConverged):
        channel_stats(big, StatsBudget(10), seed=0)
    # Below the cap the count doubles with the aperture.
    counts = [stats_module.radial_node_count(
        make_channel(0.0, 1000.0, aperture_radius=a))
        for a in (0.04, 0.5, 2.0, 20.0)]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    assert counts[-1] <= gamma2_module.MAX_RADIAL_NODES
