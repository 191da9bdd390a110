"""Acceptance suite: end-to-end checks of the shipped numerical claims.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with `pytest -s`); the assertion carries the same detail.
The sweep criterion runs the full default budget and takes the longest,
around half a minute.
"""

import csv
import math

import numpy as np
from scipy import integrate

import oracles
from oracles import (brute_entropy, brute_gain, brute_key_rate_integrand,
                     brute_q1_lower, brute_qber)
from turbchan import (ChannelParams, DecoyParams, binary_entropy,
                      channel_stats, composite_moments, composite_pdt_build,
                      composite_pdt_density, gain, key_rate_integrand,
                      one_photon_gain_lower, qber, rytov_parameter,
                      tracked_exceedance, tracked_pdt, weibull_params)
from turbchan.cli import main as cli_main
from turbchan.kernels.stats import BeamStats, StatsBudget

GEOM = dict(wavelength=800e-9, w0=0.02, aperture_radius=0.04)


def report(num, name, ok, detail=""):
    print("ACCEPTANCE %d %-24s %s  %s"
          % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_1_rytov_anchors():
    anchors = [
        (4e-14, 1000.0, 1.7228),
        (3e-15, 2000.0, 0.4605),
        (3e-15, 3000.0, 0.9683),
        (4e-14, 1100.0, 2.0517),
        (4e-14, 1200.0, 2.4066),
        (4e-14, 1500.0, 3.6230),
        (4e-14, 2000.0, 6.1394),
    ]
    worst = 0.0
    for cn2, length, want in anchors:
        got = rytov_parameter(ChannelParams(cn2=cn2, length=length, **GEOM))
        worst = max(worst, abs(got - want) / want)
    report(1, "rytov_anchors", worst < 0.01, "worst rel %.2e" % worst)


def test_criterion_2_vacuum_limit():
    closed = {1000.0: 0.999999997325, 2000.0: 0.992808116644,
              3000.0: 0.888445879753}
    budget = StatsBudget(10)
    worst = 0.0
    ok = True
    for length, want in closed.items():
        st = channel_stats(ChannelParams(cn2=0.0, length=length, **GEOM),
                           budget, seed=0)
        worst = max(worst, abs(st.mean_eta - want))
        ok &= abs(st.mean_eta2 - st.mean_eta ** 2) <= 3 * st.se_mean_eta2
        ok &= st.sigma_bw2 <= 3 * st.se_sigma_bw2
    ok &= worst < 1e-4
    report(2, "vacuum_limit", ok, "worst |mean_eta err| %.2e" % worst)


def test_criterion_3_moment_closure(stats1, stats2, stats3):
    worst_z = 0.0
    for st in (stats1, stats2, stats3):
        c = composite_pdt_build(st, GEOM["aperture_radius"])
        m = composite_moments(c)
        z1 = (abs(m.mean_eta - st.mean_eta)
              / math.hypot(m.se_mean_eta, st.se_mean_eta))
        z2 = (abs(m.mean_eta2 - st.mean_eta2)
              / math.hypot(m.se_mean_eta2, st.se_mean_eta2))
        worst_z = max(worst_z, z1, z2)
    report(3, "moment_closure", worst_z < 3.0, "worst z %.2f" % worst_z)


def test_criterion_4_normalization(comp1, comp2, comp3, zero_width_comp):
    worst = 0.0

    def defect(f, lo, hi):
        val = integrate.quad(f, lo, hi, limit=400)[0]
        return abs(val - 1.0)

    # The two limits: the wandering-only law (zero conditional width) and
    # the truncated log-normal built outside the Weibull window.
    worst = max(worst, defect(
        lambda e: float(composite_pdt_density(e, zero_width_comp)),
        0.0, zero_width_comp.eta0_norm))
    tln = composite_pdt_build(
        BeamStats(mean_eta=0.5, mean_eta2=0.3, sigma_bw2=8.4e-05, wst2=0.25),
        0.04)
    worst = max(worst, defect(
        lambda e: float(composite_pdt_density(e, tln)), 0.0, 1.0))
    for c in (comp1, comp2, comp3):
        worst = max(worst, defect(
            lambda e: float(composite_pdt_density(e, c)), 0.0, 1.0))
    for f in (0.25, 0.5, 1.0):
        tc = tracked_pdt(comp1, f)
        worst = max(worst, defect(
            lambda e: float(composite_pdt_density(e, tc)), 0.0, 1.0))

    grid = np.linspace(0.0, 1.0, 500)
    exc = tracked_exceedance(grid, comp1)
    ok = (worst < 1e-3 and exc[0] == 1.0 and exc[-1] == 0.0
          and np.all(np.diff(exc) <= 1e-12))
    report(4, "normalization", ok, "worst |norm-1| %.2e" % worst)


def test_criterion_5_limiting_families():
    # No wandering: the composite collapses onto its conditional law.
    no_wander = BeamStats(mean_eta=0.5, mean_eta2=0.3, sigma_bw2=0.0,
                          wst2=0.0025, se_mean_eta=0.0, se_mean_eta2=0.0,
                          se_sigma_bw2=0.0, diagnostics={})
    c = composite_pdt_build(no_wander, 0.04)
    mu, sigma, _ = oracles.trunc_lognormal_params(0.5, 0.3)
    grid = np.linspace(1e-3, 1.0, 800)
    tln = [oracles.trunc_lognormal_density(e, mu, sigma) for e in grid]
    sup_tln = float(np.max(np.abs(composite_pdt_density(grid, c) - tln)))

    # No conditional spread: the mixture is the displacement law alone.
    from turbchan.pdt import _displacement_average
    wp = weibull_params(0.04, 0.05)
    sigma_bw2 = 8.4e-05
    i1 = _displacement_average(1.0, math.sqrt(sigma_bw2), wp)
    i2 = _displacement_average(2.0, math.sqrt(sigma_bw2), wp)
    zero_width = BeamStats(mean_eta=wp.eta0_max * i1,
                           mean_eta2=wp.eta0_max ** 2 * i2,
                           sigma_bw2=sigma_bw2, wst2=0.0025, se_mean_eta=0.0,
                           se_mean_eta2=0.0, se_sigma_bw2=0.0, diagnostics={})
    cz = composite_pdt_build(zero_width, 0.04)
    gz = np.linspace(1e-3, wp.eta0_max * 0.999, 800)
    ref = oracles.weibull_params(0.04, 0.05)
    wb = [oracles.weibull_density(e, *ref, math.sqrt(sigma_bw2)) for e in gz]
    sup_wb = float(np.max(np.abs(composite_pdt_density(gz, cz) - wb)))
    ok = sup_tln < 1e-6 and sup_wb < 1e-3
    report(5, "limiting_families", ok,
           "sup tln %.2e, sup weibull %.2e" % (sup_tln, sup_wb))


def test_criterion_6_tracking_monotonicity(comp1):
    fractions = (0.0, 0.25, 0.5, 1.0)
    grid = np.linspace(0.0, 1.0, 2001)
    modes = []
    for f in fractions:
        tc = tracked_pdt(comp1, f)
        modes.append(float(grid[np.argmax(composite_pdt_density(grid,
                                                                tc))]))
    ok = all(b >= a for a, b in zip(modes, modes[1:]))
    for eta0 in (0.90, 0.93, 0.95):
        exc = [tracked_exceedance(eta0, tracked_pdt(comp1, f))
               for f in fractions]
        ok &= all(b > a for a, b in zip(exc, exc[1:]))
    report(6, "tracking_monotonicity", ok, "modes %s" % modes)


def test_criterion_7_key_rate_sweep(tmp_path):
    # Full-budget sweep through the CLI; the zero-rate onset must sit in
    # the documented loss band and the tracking improvement must decay
    # once the wandering share of the loss fades.
    scen = tmp_path / "sweep.cfg"
    scen.write_text("\n".join([
        "scenario.id = acc7",
        "channel.cn2 = 4e-14",
        "channel.wavelength = 800 nm",
        "channel.length = 1 km",
        "channel.w0 = 2 cm",
        "channel.aperture = 4 cm",
        "channel.extinction_db_per_km = 1.0",
        "sweep.lengths = 1 km, 2 km, 3 km, 4 km, 6 km, 8 km, 10 km, "
        "12 km, 14 km, 15 km, 16 km",
    ]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli_main(["sweep", str(scen), "--no-cache", "--workers", "4",
                   "--out-dir", str(out)])
    assert rc == 0
    with open(out / "acc7_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rates = [float(r["rate"]) for r in rows]
    losses = [float(r["mean_loss_db"]) for r in rows]
    imps = [float(r["improvement"]) for r in rows]
    families = [r["family"] for r in rows]

    ok = all(b <= a for a, b in zip(rates, rates[1:]))  # monotone decay
    zero_idx = next((i for i, r in enumerate(rates) if r == 0.0), None)
    ok &= zero_idx is not None
    first_zero_loss = losses[zero_idx] if zero_idx is not None else float("nan")
    ok &= 42.0 <= first_zero_loss <= 48.0
    ok &= all(r == 0.0 for r in rates[zero_idx:])  # stays dead beyond onset
    # Improvement peaks inside the composite window, then decays to zero.
    comp_imps = [i for i, fam in zip(imps, families) if fam == "composite"]
    far_imps = [i for i, fam in zip(imps, families) if fam != "composite"]
    peak = max(imps)
    ok &= len(comp_imps) >= 2 and peak == max(comp_imps) and peak > 0.1
    k = imps.index(peak)
    ok &= all(b <= a for a, b in zip(imps[k:], imps[k + 1:]))
    ok &= all(i == 0.0 for i in far_imps)
    report(7, "key_rate_sweep", ok,
           "first zero at %.4g km / %.4g dB, peak improvement %.3f"
           % (float(rows[zero_idx]["length_m"]) / 1000.0 if zero_idx is not None
              else float("nan"), first_zero_loss, peak))


def test_criterion_8_micro_oracles():
    p = DecoyParams()
    rng = np.random.default_rng(7)
    worst = 0.0
    for e in rng.uniform(1e-6, 1.0, 100):
        e = float(e)
        pairs = [
            (binary_entropy(e), brute_entropy(e)),
            (gain(e, p.mu_s, p), brute_gain(e, p.mu_s)),
            (qber(e, p.mu_s, p), brute_qber(e, p.mu_s)),
            (one_photon_gain_lower(e, p), brute_q1_lower(e)),
            (key_rate_integrand(e, p), brute_key_rate_integrand(e)),
        ]
        for got, want in pairs:
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
            else:
                worst = max(worst, abs(got - want))
    report(8, "micro_oracles", worst <= 1e-12, "worst rel %.2e" % worst)


def test_criterion_9_determinism(tmp_path):
    lines = [
        "scenario.id = det",
        "channel.cn2 = 4e-14",
        "channel.wavelength = 800 nm",
        "channel.length = 1 km",
        "channel.w0 = 2 cm",
        "channel.aperture = 4 cm",
        "budget.log2_total = 10",
        "sweep.lengths = 1 km, 2 km",
    ]
    scen = tmp_path / "det.cfg"
    scen.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(cmd, sub, extra=()):
        out = tmp_path / sub
        rc = cli_main([cmd, str(scen), "--no-cache", "--out-dir", str(out)]
                      + list(extra))
        assert rc == 0
        return (out / ("det_%s.csv" % cmd)).read_bytes()

    ok = run("stats", "a1") == run("stats", "a2")
    ok &= run("qkd", "b1") == run("qkd", "b2")
    ok &= (run("sweep", "c1", ["--workers", "1"])
           == run("sweep", "c2", ["--workers", "3"]))
    report(9, "determinism", bool(ok), "stats, qkd, sweep byte-identical")
