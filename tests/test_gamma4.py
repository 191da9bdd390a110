"""Fourth-order correlation estimator: exact limits and invariances."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

import turbchan
from turbchan import gamma2, gamma4
from turbchan.errors import DomainError
from turbchan.kernels import (KERNEL_VERSION, aperture_cov_qmc,
                               aperture_cov_qmc_many, dispatch_class)
from turbchan.kernels import gamma4 as gamma4_module
from turbchan.kernels.structure_function import ds_prefactor

import oracles
from conftest import make_channel

C1 = make_channel(4e-14, 1000.0)
VAC = make_channel(0.0, 1000.0)

FAST = dict(log2_points=12)
# sha256 of the little-endian float64 bytes of the points of
# sobol_points(10, 12, first replicate stream of seed 0).
GOLDEN_SHA256 = ("4072846d5fdae62eb57a885ea847a0b2"
                 "3f0ee9f8a9db2660a670537f25de2d6b")
# (value, standard error, s_max) at log2_points=12, seed 0, per kernel
# version: the flux covariance of the fig2 channel at each sweep length, and
# gamma4((0.01, 0), (0, 0.005)) at 1 km. From version 7 on, whose float32
# cosines numpy dispatches by CPU feature, one row per dispatch class
# (dispatch_class). In version 7 X86_V2 moves the values by up to 1.8e-7 of
# their error, and X86_V3 and X86_V4 agree to the last ulp and share a row.
# Version 8 adds float32 power, which X86_V4 dispatches apart from X86_V3,
# so each class has its own row.
GOLDEN_QMC = {
    "6": {
        "aperture": {
            1000.0: (0.21140535266952423, 0.08909261650249838,
                     -0.02741554451106282),
            2000.0: (0.07251844740574769, 0.0027181850374490943,
                     -0.05483108902212564),
            3000.0: (0.019427238042666033, 0.0003125304459700396,
                     -0.08224663353318845),
            4000.0: (0.0045987930270871506, 6.686046758194246e-05,
                     -0.10966217804425128),
            6000.0: (0.00040578083380955353, 7.62369520517483e-06,
                     -0.1644932670663769),
            8000.0: (6.185088891195614e-05, 1.9447845664223528e-06,
                     -0.21932435608850256),
            10000.0: (1.3622165993325272e-05, 7.266039303813246e-07,
                      -0.27415544511062817),
            12000.0: (3.864008043185628e-06, 3.212475177626611e-07,
                      -0.3289865341327538),
            14000.0: (1.3166677138841702e-06, 1.569495420676186e-07,
                      -0.38381762315487944),
            15000.0: (8.114646507076178e-07, 1.1281769888913837e-07,
                      -0.4112331676659423),
            16000.0: (5.156228790440892e-07, 8.236836592091845e-08,
                      -0.43864871217700513),
        },
        "gamma4": (802137.7449608849, 931.0598796610333,
                   -0.020893249742752387),
    },
    "7": {
        "X86_V2": {
            "aperture": {
                1000.0: (0.21140540434031063, 0.08909262640369099,
                         -0.027415544539295407),
                2000.0: (0.0725184511783305, 0.0027181849862146796,
                         -0.054831089078590814),
                3000.0: (0.01942723785603637, 0.00031253042640564684,
                         -0.08224663361788621),
                4000.0: (0.004598793070288606, 6.686046163235746e-05,
                         -0.10966217815718163),
                6000.0: (0.00040578083218431024, 7.623694952232617e-06,
                         -0.16449326723577243),
                8000.0: (6.185088871198652e-05, 1.9447845568883524e-06,
                         -0.21932435631436326),
                10000.0: (1.3622165852394445e-05, 7.26603903800055e-07,
                          -0.27415544539295406),
                12000.0: (3.864008009217326e-06, 3.212475085753105e-07,
                          -0.32898653447154486),
                14000.0: (1.3166677063701259e-06, 1.5694953916103646e-07,
                          -0.38381762355013566),
                15000.0: (8.114646500242023e-07, 1.1281769544925817e-07,
                          -0.41123316808943106),
                16000.0: (5.156228783189972e-07, 8.236836333803587e-08,
                          -0.4386487126287265),
            },
            "gamma4": (802137.7594901699, 931.0599394903296,
                       -0.020893249742752387),
        },
        "X86_V3": {
            "aperture": {
                1000.0: (0.2114054107055538, 0.08909262902019649,
                         -0.027415544573862777),
                2000.0: (0.07251845097709246, 0.0027181850301142064,
                         -0.054831089147725554),
                3000.0: (0.019427237832494695, 0.0003125304284427489,
                         -0.08224663372158832),
                4000.0: (0.004598793059342611, 6.686046177140435e-05,
                         -0.10966217829545111),
                6000.0: (0.000405780831492695, 7.623694925939996e-06,
                         -0.16449326744317663),
                8000.0: (6.185088853201004e-05, 1.944784567961877e-06,
                         -0.21932435659090221),
                10000.0: (1.362216577509901e-05, 7.266039068692057e-07,
                          -0.2741554457386277),
                12000.0: (3.864007974758868e-06, 3.212475092462868e-07,
                          -0.32898653488635327),
                14000.0: (1.3166676891343486e-06, 1.5694953919455916e-07,
                          -0.3838176240340788),
                15000.0: (8.114646379154308e-07, 1.1281769536681004e-07,
                          -0.4112331686079416),
                16000.0: (5.156228692241903e-07, 8.23683631847313e-08,
                          -0.43864871318180443),
            },
            "gamma4": (802137.759655979, 931.0599230254772,
                       -0.020893249742752387),
        },
    },
    "8": {
        "X86_V2": {
            "aperture": {
                1000.0: (0.21140517186252886, 0.08909261753846377,
                         -0.027415637652335886),
                2000.0: (0.07251844181647128, 0.0027181815301349386,
                         -0.05483127530467177),
                3000.0: (0.01942723210809318, 0.00031253000751776494,
                         -0.08224691295700766),
                4000.0: (0.004598791038482879, 6.686039729297545e-05,
                         -0.10966255060934355),
                6000.0: (0.0004057805274870727, 7.623675099863385e-06,
                         -0.16449382591401532),
                8000.0: (6.185082020098947e-05, 1.9447777748950013e-06,
                         -0.2193251012186871),
                10000.0: (1.3622145766128517e-05, 7.26602089365187e-07,
                          -0.27415637652335884),
                12000.0: (3.864000995534942e-06, 3.2124710770462853e-07,
                          -0.32898765182803064),
                14000.0: (1.3166649356768193e-06, 1.5694951289765234e-07,
                          -0.3838189271327024),
                15000.0: (8.114628458610876e-07, 1.1281772900008843e-07,
                          -0.4112345647850383),
                16000.0: (5.156216809057186e-07, 8.236842234477877e-08,
                          -0.4386502024373742),
            },
            "gamma4": (802137.7466681956, 931.0595669044077,
                       -0.02089336352471745),
        },
        "X86_V3": {
            "aperture": {
                1000.0: (0.21140529429846372, 0.08909263678012151,
                         -0.02741535040904272),
                2000.0: (0.07251843797280617, 0.002718185390821029,
                         -0.05483070081808544),
                3000.0: (0.01942723204132636, 0.0003125304274064143,
                         -0.08224605122712816),
                4000.0: (0.004598791079986684, 6.686047995646604e-05,
                         -0.10966140163617089),
                6000.0: (0.0004057805410343527, 7.623687515212165e-06,
                         -0.16449210245425633),
                8000.0: (6.185082467784008e-05, 1.9447822188363507e-06,
                         -0.21932280327234177),
                10000.0: (1.3622147761263018e-05, 7.266040209058069e-07,
                          -0.2741535040904272),
                12000.0: (3.864002091596407e-06, 3.212480156789433e-07,
                          -0.32898420490851266),
                14000.0: (1.3166656066686664e-06, 1.5694996017546335e-07,
                          -0.38381490572659804),
                15000.0: (8.114633833852498e-07, 1.1281804672189359e-07,
                          -0.4112302561356408),
                16000.0: (5.15622115270315e-07, 8.236864932356234e-08,
                          -0.43864560654468354),
            },
            "gamma4": (802137.7468340049, 931.0595504397745,
                       -0.02089336352471745),
        },
        "X86_V4": {
            "aperture": {
                1000.0: (0.21140537529664716, 0.08909263530407555,
                         -0.027414773678368167),
                2000.0: (0.07251844202892785, 0.0027181860483970555,
                         -0.054829547356736334),
                3000.0: (0.019427232666448184, 0.00031253046684476184,
                         -0.0822443210351045),
                4000.0: (0.004598791234200091, 6.686056896925103e-05,
                         -0.10965909471347267),
                6000.0: (0.00040578058161994384, 7.623720752955022e-06,
                         -0.164488642070209),
                8000.0: (6.18508430835733e-05, 1.9447899464252696e-06,
                         -0.21931818942694534),
                10000.0: (1.3622157214185385e-05, 7.266056706590503e-07,
                          -0.27414773678368165),
                12000.0: (3.864007309129989e-06, 3.2124832656417313e-07,
                          -0.328977284140418),
                14000.0: (1.3166686495297434e-06, 1.5694997166976604e-07,
                          -0.3838068314971543),
                15000.0: (8.114657475669388e-07, 1.1281801678293118e-07,
                          -0.4112216051755225),
                16000.0: (5.156239708379194e-07, 8.236860419274165e-08,
                          -0.4386363788538907),
            },
            "gamma4": (802137.7504239178, 931.060111927201,
                       -0.02089336352471745),
        },
    },
}
GOLDEN_QMC["7"]["X86_V4"] = GOLDEN_QMC["7"]["X86_V3"]


def test_vacuum_factorizes_exactly():
    g = gamma4((0.01, 0.0), (0.0, 0.02), VAC)
    product = gamma2((0.01, 0.0), VAC) * gamma2((0.0, 0.02), VAC)
    assert g.std_error == 0.0
    assert g.diagnostics["vacuum_closed_form"]
    assert g.value == pytest.approx(product, rel=1e-5)


def test_on_axis_excess_correlation():
    # Intensity fluctuations make <I^2> exceed <I>^2 on axis.
    g = gamma4((0.0, 0.0), (0.0, 0.0), C1, **FAST)
    g2 = gamma2((0.0, 0.0), C1)
    assert g.value - 3.0 * g.std_error > g2 * g2


def test_argument_symmetry_within_noise():
    a = gamma4((0.01, 0.0), (0.0, 0.02), C1, **FAST)
    b = gamma4((0.0, 0.02), (0.01, 0.0), C1, **FAST)
    combined = (a.std_error ** 2 + b.std_error ** 2) ** 0.5
    assert abs(a.value - b.value) <= 4.0 * combined


def test_seeded_determinism():
    a = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=7, **FAST)
    b = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=7, **FAST)
    c = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=8, **FAST)
    assert a.value == b.value and a.std_error == b.std_error
    assert c.value != a.value


@pytest.mark.parametrize("r1,r2", [((math.nan, 0.0), (0.0, 0.0)),
                                   ((0.0, 0.0), (0.0, math.inf))])
@pytest.mark.parametrize("channel", [C1, VAC], ids=["turbulent", "vacuum"])
def test_non_finite_coordinate_raises(r1, r2, channel):
    with pytest.raises(DomainError):
        gamma4(r1, r2, channel, **FAST)


def test_long_channel_is_finite():
    # At 4 km both mean-intensity factors converge, so Gamma4 has a value.
    g = gamma4((0.0, 0.0), (0.01, 0.0), make_channel(4e-14, 4000.0), **FAST)
    assert math.isfinite(g.value) and math.isfinite(g.std_error)
    assert g.value > 0.0


def test_kernel_modules_are_not_shadowed():
    # The package exports the functions; the kernels package keeps the
    # submodules under their own names.
    assert isinstance(turbchan.kernels.gamma4, types.ModuleType)
    assert isinstance(turbchan.kernels.gamma2, types.ModuleType)
    assert callable(turbchan.gamma4) and callable(turbchan.gamma2)
    assert turbchan.gamma4 is gamma4_module.gamma4


def test_diagnostics_shape():
    g = gamma4((0.0, 0.0), (0.01, 0.0), C1, **FAST)
    d = g.diagnostics
    assert d["points"] == 16 * 2 ** 12
    assert d["replicates"] == 16
    assert d["positive_s_fraction"] <= 1e-6
    assert "pair_product" in d and d["pair_product"] > 0.0


def test_segment_rule_shift_is_below_noise(monkeypatch):
    # The sampled path's 8-node structure-function rule against the 32-node
    # rule on the same points (common random numbers): the covariance moves
    # by far less than its standard error.
    chan = make_channel(4e-14, 4000.0)
    short = aperture_cov_qmc(chan, log2_points=12)
    monkeypatch.setattr(gamma4_module, "SEGMENT_NODES", 32)
    full = aperture_cov_qmc(chan, log2_points=12)
    assert short.diagnostics["gl_nodes"] == 8
    assert full.diagnostics["gl_nodes"] == 32
    assert abs(short.value - full.value) < 0.1 * full.std_error


def test_shared_pass_matches_single_channel_calls():
    # One pass over the shared points for several lengths and vacuum gives
    # each channel exactly its one-channel result.
    chans = [make_channel(4e-14, L) for L in (1000.0, 4000.0, 16000.0)] + [VAC]
    batch = aperture_cov_qmc_many(chans, log2_points=12)
    assert len(batch) == len(chans)
    for chan, got in zip(chans, batch):
        one = aperture_cov_qmc(chan, log2_points=12)
        assert got.value == one.value
        assert got.std_error == one.std_error
        assert got.diagnostics == one.diagnostics
    assert batch[-1].diagnostics["vacuum_closed_form"]


def test_kernel_version_tripwire():
    # Every cached stats entry is keyed by KERNEL_VERSION, so a change that
    # moves a QMC result must bump it and add its rows to GOLDEN_QMC. Value
    # and error are held to 1e-9 of the error, which absorbs last-ulp
    # differences between CPUs within a dispatch class; s_max, an exponent,
    # to 1e-9 of itself. A class without a row is skipped, not passed.
    cls = dispatch_class()
    golden = GOLDEN_QMC[KERNEL_VERSION].get(cls)
    if golden is None:
        pytest.skip("no golden row of kernel %s for numpy dispatch class %s"
                    % (KERNEL_VERSION, cls))
    lengths = list(golden["aperture"])
    chans = [make_channel(4e-14, L) for L in lengths] + [VAC]
    results = aperture_cov_qmc_many(chans, log2_points=12, seed=0)
    pair = gamma4((0.01, 0.0), (0.0, 0.005), C1, log2_points=12, seed=0)
    checks = [(r, golden["aperture"][L]) for L, r in zip(lengths, results)]
    for got, (value, se, s_max) in checks + [(pair, golden["gamma4"])]:
        assert abs(got.value - value) <= 1e-9 * se
        assert abs(got.std_error - se) <= 1e-9 * se
        assert abs(got.diagnostics["s_max"] - s_max) <= 1e-9 * abs(s_max)
    assert (results[-1].value, results[-1].std_error) == (0.0, 0.0)


def float64_disk_map(radius):
    # The aperture point map with float64 angles (kernel version 6).
    def split(p):
        rad1 = radius * np.sqrt(p[:, 0])
        th1 = 2.0 * math.pi * p[:, 1]
        rad2 = radius * np.sqrt(p[:, 2])
        th2 = 2.0 * math.pi * p[:, 3]
        x1, y1 = rad1 * np.cos(th1), rad1 * np.sin(th1)
        x2, y2 = rad2 * np.cos(th2), rad2 * np.sin(th2)
        return x1 - x2, y1 - y2, x1 + x2, y1 + y2, p[:, 4:]
    return 10, split


def float64_channel_sums(s1, s21, au, av, pref, beta):
    # The per-channel sums with float64 phases and cosines (version 6).
    s = pref * s1
    h = np.cos(beta * au) * np.cos(beta * av)
    z = h * (np.exp(s) - np.exp(pref * s21))
    return np.sum(z), np.sum(z * z), np.count_nonzero(s > 1e-12)


def float64_shared_terms(ux, uy, vx, vy, cols, w0):
    # The shared terms with float64 exponents (version 7).
    g = ndtri(np.clip(cols, 1e-13, 1.0 - 1e-13)) * (w0 / math.sqrt(2.0))
    s1, s21 = gamma4_module.grouped_exponent(ux, uy, *g.T)
    return s1, s21, ux * g[:, 2] + uy * g[:, 3], vx * g[:, 4] + vy * g[:, 5]


def test_float32_trigonometry_matches_float64_reference(monkeypatch):
    # The scan takes its phases, cosines and sines and its structure-function
    # exponents S1 and S21 in float32. On the same points, neither the scan
    # with float64 exponents nor the all-float64 scan moves a covariance at
    # 1-16 km or a gamma4 value by 0.01 of its standard error (at the
    # default budget the largest moves were 1e-5 and 2e-4 of it).
    chans = [make_channel(4e-14, L)
             for L in GOLDEN_QMC["6"]["aperture"]]
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((0.01, 0.0), (0.0, 0.005)),
             ((0.01, 0.0), (0.005, 0.0))]

    def scan():
        return aperture_cov_qmc_many(chans, log2_points=12) + [
            gamma4(r1, r2, C1, log2_points=12) for r1, r2 in pairs]

    fast = scan()
    monkeypatch.setattr(gamma4_module, "_shared_terms", float64_shared_terms)
    exponents64 = scan()
    monkeypatch.setattr(gamma4_module, "_disk_map", float64_disk_map)
    monkeypatch.setattr(gamma4_module, "_channel_sums", float64_channel_sums)
    all64 = scan()
    for ref in (exponents64, all64):
        assert any(got.value != want.value for got, want in zip(fast, ref))
        for got, want in zip(fast, ref):
            assert abs(got.value - want.value) <= 0.01 * want.std_error
            assert abs(got.std_error - want.std_error) <= (
                0.01 * want.std_error)


def test_shared_pass_needs_common_geometry():
    with pytest.raises(ValueError):
        aperture_cov_qmc_many([C1, make_channel(4e-14, 1000.0, w0=0.03)])
    with pytest.raises(ValueError):
        aperture_cov_qmc_many([C1, make_channel(4e-14, 2000.0,
                                                aperture_radius=0.05)])


def use_quadratic_law(monkeypatch, chan, kappa_w02):
    # The grouped exponents of D_q(r, r') = kappa (|r|^2 + r.r' + |r'|^2),
    # at the unit prefactor the scan scales by ds_prefactor(chan).
    kappa = kappa_w02 / chan.w0 ** 2 / ds_prefactor(chan)

    def grouped_exponent(ux, uy, r1x, r1y, r2x, r2y, r3x, r3y):
        r2 = r2x * r2x + r2y * r2y
        r3 = r3x * r3x + r3y * r3y
        return -2.0 * kappa * r3, -kappa * (r2 + r3)

    monkeypatch.setattr(gamma4_module, "grouped_exponent", grouped_exponent)


# (length, aperture radius, kappa W0^2). At 1 km with a >= 2 cm the standard
# error exceeds the covariance itself, so no such point is checked.
@pytest.mark.parametrize("length, radius, kappa_w02", [
    (4000.0, 0.02, 0.5), (4000.0, 0.06, 2.0), (10000.0, 0.04, 1.0),
    (10000.0, 0.06, 2.0)])
def test_flux_covariance_matches_quadratic_law_oracle(monkeypatch, length,
                                                      radius, kappa_w02):
    # Under the quadratic law the aperture scan has a closed-form mean; the
    # check is not vacuous, as the error is under a tenth of the value.
    chan = make_channel(4e-14, length, aperture_radius=radius)
    use_quadratic_law(monkeypatch, chan, kappa_w02)
    got = aperture_cov_qmc(chan, log2_points=12)
    ref = oracles.quadratic_law_flux_covariance(
        radius, kappa_w02, oracles.vacuum_width(length))
    assert got.std_error < ref / 10.0
    assert abs(got.value - ref) <= 3.0 * got.std_error


# The last pair has |u| != |v|, so it tells u.r2' from u.r3' in the phase.
@pytest.mark.parametrize("r1, r2, kappa_w02", [
    ((0.0, 0.0), (0.0, 0.0), 1.0), ((0.01, 0.0), (0.0, 0.005), 2.0),
    ((0.01, 0.0), (0.005, 0.0), 2.0)])
def test_gamma4_matches_quadratic_law_oracle(monkeypatch, r1, r2, kappa_w02):
    # The same closed form pointwise: the sampled part of gamma4, its value
    # less the pair product, on the fixed (u, v) scan.
    chan = make_channel(4e-14, 4000.0)
    use_quadratic_law(monkeypatch, chan, kappa_w02)
    got = gamma4(r1, r2, chan, log2_points=12)
    ref = oracles.quadratic_law_gamma4_excess(r1, r2, kappa_w02,
                                              oracles.vacuum_width(4000.0))
    assert got.std_error < ref / 10.0
    assert abs(got.value - got.diagnostics["pair_product"] - ref) <= (
        3.0 * got.std_error)


def all_points(dim, log2_points, seed_seq):
    """The streamed Sobol blocks, concatenated; every block but the last
    holds CHUNK points."""
    blocks = list(gamma4_module.sobol_points(dim, log2_points, seed_seq))
    assert all(len(b) == gamma4_module.CHUNK for b in blocks[:-1])
    return np.concatenate(blocks)


# scipy is the reference only; it names the seed argument `rng` from 1.15.
@pytest.mark.skipif("rng" not in inspect.signature(qmc.Sobol).parameters,
                    reason="scipy.stats.qmc.Sobol has no rng argument")
@pytest.mark.parametrize("dim", [1, 6, 10])
# 13 is the first block boundary; at 14 the second block's Gray-code offset
# holds bit 12, which comes from lo >> 1 alone.
@pytest.mark.parametrize("log2_points", [0, 1, 12, 13, 14, 16])
def test_sobol_points_match_scipy_bit_for_bit(dim, log2_points):
    # The replicate streams of three seeds, as _run_replicates spawns them.
    # SeedSequence.spawn is stateful, so each side gets a fresh stream.
    for seed in range(3):
        for i in range(3):
            ref = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(
                np.random.SeedSequence(seed).spawn(3)[i])).random_base2(
                    log2_points)
            got = all_points(dim, log2_points,
                             np.random.SeedSequence(seed).spawn(3)[i])
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_sobol_points_golden_checksum():
    # Pins the points behind every cached covariance, independent of scipy.
    seed_seq = np.random.SeedSequence(0).spawn(1)[0]
    pts = all_points(10, 12, seed_seq)
    assert pts.shape == (4096, 10)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert hashlib.sha256(pts.astype("<f8").tobytes()).hexdigest() == (
        GOLDEN_SHA256)
    # Pure in its argument: the sequence is not spawned from.
    assert np.array_equal(all_points(10, 12, seed_seq), pts)


def test_sobol_points_refuse_more_than_the_direction_bits():
    # The 30-bit direction numbers give 2^30 distinct points; a larger
    # request, or a negative count, fails before its first block, also
    # through both QMC entry points.
    for log2_points in (gamma4_module.SOBOL_BITS + 1, -1):
        blocks = gamma4_module.sobol_points(2, log2_points,
                                            np.random.SeedSequence(0))
        with pytest.raises(ValueError, match="Sobol points"):
            next(blocks)
    with pytest.raises(ValueError, match="Sobol points"):
        gamma4((0.01, 0.0), (0.0, 0.005), C1, log2_points=-1)
    with pytest.raises(ValueError, match="Sobol points"):
        aperture_cov_qmc(C1, log2_points=-1)


def test_results_do_not_depend_on_thread_count(monkeypatch):
    # One thread, two, and four (more than the cores here), the last with a
    # short switch interval: every value, error and diagnostic is the same
    # to the bit, since the replicates are seeded up front and collected in
    # order.
    chans = [make_channel(4e-14, 1000.0), make_channel(4e-14, 4000.0)]
    runs = []
    for threads in (1, 2, 4):
        monkeypatch.setattr(gamma4_module, "qmc_threads", lambda: threads)
        interval = sys.getswitchinterval()
        if threads == 4:
            sys.setswitchinterval(1e-5)
        try:
            many = aperture_cov_qmc_many(chans, log2_points=12)
            one = gamma4((0.0, 0.0), (0.01, 0.0), C1, log2_points=12)
        finally:
            sys.setswitchinterval(interval)
        runs.append([(r.value, r.std_error, r.diagnostics)
                     for r in many + [one]])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_point_memory_is_per_chunk(monkeypatch):
    # The points stream one block at a time, so the peak traced memory of a
    # covariance call does not grow with the points per replicate: 2^16
    # stays within 1 MB of 2^13 (one block). One thread, so that the peak
    # does not depend on how the replicates overlap.
    monkeypatch.setattr(gamma4_module, "qmc_threads", lambda: 1)
    peaks = {}
    for log2_points in (13, 16):
        tracemalloc.start()
        try:
            aperture_cov_qmc(C1, log2_points=log2_points)
            peaks[log2_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] - peaks[13] < 1_000_000, peaks


def test_kernels_never_import_scipy_stats(tmp_path):
    # A fresh interpreter: the CLI tables, both QMC paths, Gamma_2 far out on
    # its Hankel rule, the law build and the zero-width postselection run on
    # numpy and scipy.special alone, leaving scipy.stats, scipy.integrate,
    # scipy.optimize and scipy.linalg unimported, lazily or not; importing
    # builds no quadrature rule.
    scenario = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scenarios", "fig2_solid.cfg")
    code = "\n".join([
        "import math, sys",
        "import turbchan.cli",
        "from turbchan import quadrature",
        "# The fixed rules are built on first use, not at import.",
        "assert quadrature.gauss_legendre.cache_info().currsize == 0",
        "assert quadrature.tanh_sinh.cache_info().currsize == 0",
        "from turbchan import (BeamStats, StatsBudget, channel_stats,",
        "                      composite_pdt_build, gamma2, gamma4,",
        "                      postselected_moments, weibull_params)",
        "from turbchan.pdt import _displacement_average",
        "from conftest import make_channel",
        "for table in ('stats', 'pdt', 'exceedance', 'squeezing'):",
        "    assert turbchan.cli.main([table, %r, '--budget', '10',"
        " '--no-cache', '--out-dir', %r]) == 0" % (scenario, str(tmp_path)),
        "chan = make_channel(4e-14, 4000.0)",
        "gamma4((0.0, 0.0), (0.01, 0.0), chan, log2_points=8)",
        "gamma2((0.3, 0.0), make_channel(4e-14, 1000.0))",
        "st = channel_stats(chan, StatsBudget(12))",
        "composite_pdt_build(st, chan.aperture_radius)",
        "wp = weibull_params(0.04, 0.05)",
        "i1, i2 = (_displacement_average(n, math.sqrt(8.4e-5), wp)",
        "          for n in (1.0, 2.0))",
        "law = composite_pdt_build(BeamStats(wp.eta0_max * i1,",
        "    wp.eta0_max ** 2 * i2, 8.4e-5, 0.0025), 0.04)",
        "assert law.sigma_r0 == 0.0",
        "postselected_moments(law, 0.5)",
        "for name in ('scipy.stats', 'scipy.integrate', 'scipy.optimize',",
        "             'scipy.linalg'):",
        "    assert name not in sys.modules, name + ' imported'",
    ])
    src = os.path.dirname(os.path.dirname(turbchan.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, tests, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
