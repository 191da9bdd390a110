"""Mean-intensity profile against adaptive Hankel-form anchors."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from turbchan import gamma2
from turbchan.errors import DomainError, QuadratureNotConverged

import oracles
from conftest import make_channel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402

C1 = make_channel(4e-14, 1000.0)
C4 = make_channel(4e-14, 4000.0)
VAC = make_channel(0.0, 1000.0)

# Frozen values from tests/oracles.py (QUADPACK on the 1-D Bessel form).
# The package evaluates the same Hankel form on a fixed Gauss-Legendre rule;
# the two agree to within 1e-8 relative at every anchor.
ANCHORS = [
    (0.0, 1028.61076, 1e-6),
    (0.01, 712.195153, 1e-6),
    (0.02, 252.07732, 1e-6),
    (0.04, 13.2245876, 1e-6),
]


@pytest.mark.parametrize("r,want,rtol", ANCHORS)
def test_pointwise_anchor(r, want, rtol):
    assert gamma2((r, 0.0), C1) == pytest.approx(want, rel=rtol)


def test_isotropy():
    # The Hankel form depends on r only through |r|, so directions agree to
    # the rounding of |r| itself.
    for r in (0.005, 0.01, 0.03):
        gx = gamma2((r, 0.0), C1)
        gy = gamma2((0.0, r), C1)
        gd = gamma2((r / math.sqrt(2.0), r / math.sqrt(2.0)), C1)
        assert gy == gx
        assert gd == pytest.approx(gx, rel=1e-12)


def test_vacuum_closed_form():
    w = VAC.w_vac
    for r in (0.0, 0.005, 0.01, 0.02):
        closed = 2.0 / (math.pi * w * w) * math.exp(-2.0 * r * r / (w * w))
        assert gamma2((r, 0.0), VAC) == pytest.approx(closed, rel=1e-6)


def test_monotone_decreasing_in_radius():
    vals = [gamma2((r, 0.0), C1) for r in (0.0, 0.01, 0.02, 0.03, 0.04)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_converges_over_aperture_and_grid_corner():
    # Every receiver point of the aperture disk, and the corner of a square
    # grid around it (0.04 * sqrt(2) = 0.0566 m), is inside the resolved
    # range on the three reference channels.
    corner = (C1.aperture_radius, C1.aperture_radius)
    for cn2, length in ((4e-14, 1000.0), (3e-15, 2000.0), (3e-15, 3000.0)):
        chan = make_channel(cn2, length)
        for r in np.linspace(0.0, chan.aperture_radius, 9):
            assert gamma2((float(r), 0.0), chan) > 0.0
        ref = oracles.gamma2_point(math.hypot(*corner), cn2, length)
        checks.check_gamma2([gamma2(corner, chan)], [ref],
                            checks.gamma2_atol(chan), "gamma2.corner")


def test_long_channel_on_axis():
    # At 4 km the beam spreads to a few W0 and the rule still converges
    # on axis.
    want = oracles.gamma2_point(0.0, C4.cn2, C4.length)
    assert gamma2((0.0, 0.0), C4) == pytest.approx(want, rel=1e-6)


def test_far_radius_resolved():
    # At 1 km, |r| = 0.3 m puts 435 rad of J0 phase across the envelope
    # support; the rule counted for that radius takes 512 nodes.
    ref = oracles.gamma2_point(0.3, C1.cn2, C1.length)
    checks.check_gamma2([gamma2((0.3, 0.0), C1)], [ref],
                        checks.gamma2_atol(C1), "gamma2.far")


def test_unresolved_phase_raises():
    # At 1 km the rule's cap of MAX_RADIAL_NODES nodes resolves |r| up to
    # about 59 m; 100 m raises before anything is evaluated.
    with pytest.raises(QuadratureNotConverged):
        gamma2((100.0, 0.0), C1)


@pytest.mark.parametrize("r", [(math.nan, 0.0), (0.0, math.inf),
                               (-math.inf, 0.0)])
@pytest.mark.parametrize("channel", [C1, VAC], ids=["turbulent", "vacuum"])
def test_non_finite_coordinate_raises(r, channel):
    with pytest.raises(DomainError):
        gamma2(r, channel)


@pytest.mark.parametrize("cn2,length", [(4e-14, 1000.0), (4e-14, 4000.0),
                                        (1e-15, 500.0), (0.0, 1000.0),
                                        (1e-13, 1000.0)])
def test_probe_within_tolerance(cn2, length):
    # Far past the beam, every radius agrees with the adaptive reference to
    # the benchmark's gamma2 tolerance; none raises.
    chan = make_channel(cn2, length)
    atol = checks.gamma2_atol(chan)
    radii = np.linspace(0.0, 0.6, 41)
    values = [gamma2((float(r), 0.0), chan) for r in radii]
    refs = [oracles.gamma2_point(float(r), cn2, length) for r in radii]
    checks.check_gamma2(values, refs, atol, "gamma2.probe")
