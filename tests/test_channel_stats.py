"""Aggregated beam statistics against independent quadrature anchors."""

import math

import pytest

from turbchan import channel_stats
from turbchan.kernels.stats import (StatsBudget, mass_cut_radius,
                                    mean_eta_quad, sigma_bw2_geometric,
                                    sigma_bw2_quad)

from conftest import make_channel

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
    chan = make_channel(4e-14, 1000.0)
    assert sigma_bw2_geometric(chan) == pytest.approx(8.663514528e-05,
                                                      rel=1e-9)


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
    st = channel_stats(chan, StatsBudget.from_log2_total(10), seed=0)
    closed = 1.0 - math.exp(-2.0 * 0.04 ** 2 / chan.w_vac ** 2)
    assert closed == pytest.approx(0.992808116644, rel=1e-10)
    assert st.mean_eta == pytest.approx(closed, abs=1e-4)
    assert st.sigma_bw2 == 0.0
    assert st.diagnostics["eta2"]["vacuum_closed_form"]
    assert abs(st.mean_eta2 - st.mean_eta ** 2) <= 3.0 * st.se_mean_eta2


def test_determinism(chan1):
    budget = StatsBudget.from_log2_total(14)
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


def test_diagnostics_structure(stats1):
    d = stats1.diagnostics
    assert d["rcut_m"] == pytest.approx(ORACLE["c1"]["rcut"], rel=1e-4)
    assert d["mass_fraction"] == pytest.approx(0.999)
    assert d["eta2"]["points"] > 0 and d["eta2"]["replicates"] > 1
    assert {"mass_fraction", "rcut_m", "x2_error", "eta2"} <= set(d)
