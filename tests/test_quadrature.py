"""Fixed quadrature rules against arbitrary-precision references."""

import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

import turbchan
from turbchan.quadrature import gauss_legendre, tanh_sinh

from conftest import make_channel


def test_gauss_legendre_matches_mpmath():
    # mpmath's Gauss-Legendre nodes of degree 6: 96 points on [-1, 1].
    with mp.workdps(30):
        ref = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(
            6, mp.mp.prec)
        ref = sorted((float((1 + x) / 2), float(w / 2)) for x, w in ref)
    x, w = gauss_legendre(96)
    want_x, want_w = np.array(ref).T
    assert np.max(np.abs(x - want_x)) <= 2.3e-16
    assert np.max(np.abs(w / want_w - 1.0)) <= 1e-14


@pytest.mark.parametrize("n", [8, 32])
def test_segment_rule_weights_within_one_ulp(n):
    # The structure-function segment rule (8 nodes) and its test reference
    # (32 nodes) against 40-digit roots of P_n and their weights
    # 2 / ((1 - x^2) P_n'(x)^2), mapped to [0, 1].
    x, w = gauss_legendre(n)
    with mp.workdps(40):
        want_x, want_w = [], []
        for node in x:
            t = mp.findroot(lambda t: mp.legendre(n, t), 2 * mp.mpf(node) - 1)
            dp = n * (t * mp.legendre(n, t) - mp.legendre(n - 1, t)) / (
                t * t - 1)
            want_x.append(float((1 + t) / 2))
            want_w.append(float(1 / ((1 - t * t) * dp * dp)))
    want_x, want_w = np.array(want_x), np.array(want_w)
    assert np.max(np.abs(x - want_x)) <= 2.3e-16
    assert np.all(np.abs(w - want_w) <= np.spacing(want_w))


def test_one_gauss_legendre_generator():
    # Every Gauss-Legendre rule of the package comes from gauss_legendre.
    src = pathlib.Path(turbchan.__file__).parent
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for name in ("leggauss", "roots_legendre"):
            assert name not in text, "%s names %s" % (path.name, name)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
def test_gauss_legendre_exact_on_polynomials(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and 0.0 < x[0] and x[-1] < 1.0
    assert not x.flags.writeable and not w.flags.writeable
    for k in sorted({0, 1, n, 2 * n - 1}):
        assert float(w @ x ** k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_vacuum_mean_transmittance_to_rounding():
    # The Hankel rule on accurate weights reproduces the vacuum closed form
    # 1 - exp(-2 a^2 / w_vac^2) to rounding; weights off by 1e-10 relative
    # (scipy's roots_legendre at 128 nodes) leave 3e-14 at 1 km.
    from turbchan.kernels.stats import mean_eta_quad
    for length in (1000.0, 2000.0, 4000.0, 16000.0):
        chan = make_channel(0.0, length)
        closed = -math.expm1(-2.0 * (chan.aperture_radius / chan.w_vac) ** 2)
        assert abs(mean_eta_quad(chan)[0] - closed) <= 2e-15


def test_tanh_sinh_nested_rules():
    x, w = tanh_sinh()
    assert x.size == w.size == 193 and np.all(np.diff(x) > 0.0)
    assert 0.0 < x[0] and x[-1] < 1.0
    # sqrt(x) has an endpoint singularity in its derivative; both the rule
    # and its nested half-step rule integrate it, the finer one to rounding.
    f = np.sqrt(x)
    assert float(w @ f) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert float(2.0 * w[::2] @ f[::2]) == pytest.approx(2.0 / 3.0, rel=1e-6)
