"""Two-point phase structure function against adaptive-quadrature anchors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from turbchan.kernels.gamma4 import SEGMENT_NODES
from turbchan.kernels.structure_function import (ds_colinear, ds_prefactor,
                                                 ds_segment)
from turbchan.quadrature import gauss_legendre

from conftest import make_channel

C1 = make_channel(4e-14, 1000.0)

# Frozen values from tests/oracles.py (mpmath adaptive quadrature).
COLINEAR_1CM = 0.85894960463
GENERIC_A = 3.43502864524   # (0.01, 0) to (0, 0.02)
GENERIC_B = 4.06204096673   # (0.005, -0.01) to (0.015, 0.02)


def ds(r, p, chan=C1):
    """D_S(r, r') for one pair of 2-vectors on the 32-node reference rule."""
    return float(ds_segment(r[0], r[1], p[0], p[1], ds_prefactor(chan),
                            *gauss_legendre(32)))


def test_colinear_matches_closed_form():
    got = float(ds_colinear(0.01, ds_prefactor(C1)))
    assert got == pytest.approx(COLINEAR_1CM, rel=1e-9)


def test_generic_points_match_oracle():
    a = ds((0.01, 0.0), (0.0, 0.02))
    b = ds((0.005, -0.01), (0.015, 0.02))
    assert a == pytest.approx(GENERIC_A, rel=1e-9)
    assert b == pytest.approx(GENERIC_B, rel=1e-9)


def test_degenerate_segments():
    # Both endpoints at the origin: the segment never leaves zero.
    assert ds((0.0, 0.0), (0.0, 0.0)) == 0.0
    # Equal endpoints: the integrand is the constant |r|^(5/3).
    r = (0.01, 0.02)
    want = ds_prefactor(C1) * (r[0] ** 2 + r[1] ** 2) ** (5.0 / 6.0)
    got = ds(r, r)
    assert got == pytest.approx(want, rel=1e-12)


coords = st.floats(-0.05, 0.05, allow_nan=False)


@settings(max_examples=50)
@given(x1=coords, y1=coords, x2=coords, y2=coords)
def test_symmetry(x1, y1, x2, y2):
    a = ds((x1, y1), (x2, y2))
    b = ds((x2, y2), (x1, y1))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-30)


@settings(max_examples=30)
@given(x=st.floats(0.001, 0.05), y=st.floats(0.001, 0.05),
       c=st.floats(0.1, 5.0))
def test_five_thirds_scaling(x, y, c):
    # Kolmogorov power law: scaling both endpoints scales D by c^(5/3).
    base = ds((0.0, 0.0), (x, y))
    scaled = ds((0.0, 0.0), (c * x, c * y))
    assert scaled == pytest.approx(c ** (5.0 / 3.0) * base, rel=1e-9)


def test_nonnegative_and_linear_in_cn2():
    weak = make_channel(1e-15, 1000.0)
    a = ds((0.01, 0.0), (0.0, 0.02), weak)
    b = ds((0.01, 0.0), (0.0, 0.02))
    assert a > 0.0
    assert b == pytest.approx(a * 40.0, rel=1e-12)


def _segment_reference(r, p):
    """Int_0^1 |r xi + p (1 - xi)|^(5/3) dxi by adaptive quadrature.

    The integrand is q(xi)^(5/6) with q = (a xi + b) xi + c; splitting at
    the vertex of q puts the kink of nearly anti-parallel pairs on a break.
    """
    d = r - p
    a, b, c = d @ d, 2.0 * (p @ d), p @ p

    def f(x):
        return max((a * x + b) * x + c, 0.0) ** (5.0 / 6.0)

    vertex = -b / (2.0 * a)
    cuts = [0.0] + ([vertex] if 0.0 < vertex < 1.0 else []) + [1.0]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def _gaussian_pairs(rng, n):
    return rng.normal(0.0, 0.02, (n, 2)), rng.normal(0.0, 0.02, (n, 2))


def _anti_parallel_pairs(rng, n):
    # r' is r rotated by pi +- ~0.02 rad and rescaled.
    r = rng.normal(0.0, 0.02, (n, 2))
    angle = math.pi + rng.normal(0.0, 0.02, n)
    scale = rng.uniform(0.2, 5.0, n)
    cos, sin = scale * np.cos(angle), scale * np.sin(angle)
    p = np.stack([cos * r[:, 0] - sin * r[:, 1],
                  sin * r[:, 0] + cos * r[:, 1]], axis=1)
    return r, p


@pytest.mark.parametrize("pairs, median_bound, max_bound", [
    (_gaussian_pairs, 1e-6, 5e-3),
    (_anti_parallel_pairs, 2e-3, 5e-3),
])
def test_sampled_rule_against_adaptive_quadrature(pairs, median_bound,
                                                  max_bound):
    # The short rule of the sampled fourth-order path. Generic pairs are
    # analytic on [0, 1]; near anti-parallel ones carry the |.|^(5/3) kink.
    r, p = pairs(np.random.default_rng(1), 300)
    want = np.array([_segment_reference(a, b) for a, b in zip(r, p)])
    got = ds_segment(r[:, 0], r[:, 1], p[:, 0], p[:, 1], 1.0,
                     *gauss_legendre(SEGMENT_NODES))
    rel = np.abs(got - want) / want
    assert np.median(rel) <= median_bound
    assert rel.max() <= max_bound
