"""Second-order field correlation (mean intensity) of the focused beam, and
the radial Hankel rule that every functional of it runs on.

The receiver-plane mean intensity is a 2-D source-plane integral

    Gamma_2(r) = k^2/(4 pi^2 L^2) Int d^2r' exp(-|r'|^2 / (2 W0^2)
                 - i (k/L) r.r' - D_S(0, r') / 2),

with a Gaussian envelope, an oscillatory phase linking receiver and source
coordinates, and isotropic turbulence damping. The envelope g(rho) =
exp(-rho^2/(2 W0^2) - D_S(0, rho)/2) depends on |r'| alone, so the angular
integral is a Bessel function and Gamma_2 is the 1-D Hankel transform

    Gamma_2(r) = k^2/(2 pi L^2) Int_0^inf rho g(rho) J0(k rho |r| / L) drho.

The Hankel rule of a channel is Gauss-Legendre on [0, R_sup], where R_sup
(:func:`envelope_support`) is the radius at which the exponent of g
reaches -SUPPORT_EXPONENT: 14 W0 without turbulence, closer in with it.
Its node count (:func:`hankel_nodes`) is fixed before any evaluation from
the largest receiver radius R it serves: the smallest power of two, at
least MIN_RADIAL_NODES, that keeps the Bessel phase (k/L) R R_sup within
MAX_PHASE_PER_NODE per node, or QuadratureNotConverged past
MAX_RADIAL_NODES. Beyond PANEL_NODES nodes the rule is a compound of
PANEL_NODES-node rules over equal panels. :func:`hankel_rule` holds the
weighted rule (rho, w g) together with the same rule on twice the panels,
against which the aperture functionals of ``kernels.stats`` quote their
error. :func:`gamma2` takes the rule counted for |r| itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from ..channel import ChannelParams
from ..errors import DomainError, QuadratureNotConverged
from ..quadrature import gauss_legendre
from .structure_function import ds_colinear, ds_prefactor

# The rule ends where the envelope is e^-98.
SUPPORT_EXPONENT = 98.0
# Largest Bessel phase (k/L) R R_sup per node, at the largest radius R served.
MAX_PHASE_PER_NODE = 1.3
MIN_RADIAL_NODES = 64
MAX_RADIAL_NODES = 65536
# Past this many nodes the rule is a compound of PANEL_NODES-node rules over
# equal panels of [0, R_sup], so no larger Gauss-Legendre rule is built.
PANEL_NODES = 1024
# Step budget of the Newton solves for a radius (here and in kernels.stats).
MAX_NEWTON_STEPS = 100


def stable_coeff(params: ChannelParams) -> float:
    """C of the turbulence factor exp(-C rho^(5/3)) = exp(-D_S(0, rho)/2)."""
    return float(0.5 * ds_colinear(1.0, ds_prefactor(params)))


@functools.lru_cache(maxsize=32)
def envelope_support(params: ChannelParams) -> float:
    """R_sup, the source-plane radius where the envelope exponent
    -rho^2/(2 W0^2) - D_S(0, rho)/2 reaches -SUPPORT_EXPONENT.

    Newton on the convex increasing rho^2/(2 W0^2) + C rho^(5/3), started
    from the smaller of the radii at which either term alone reaches
    SUPPORT_EXPONENT, which lies at or beyond the root, so the iterates
    fall monotonically onto it. Cached per channel.
    """
    a = 0.5 / params.w0 ** 2
    c = stable_coeff(params)
    rho = math.sqrt(SUPPORT_EXPONENT / a)
    if c > 0.0:
        rho = min(rho, (SUPPORT_EXPONENT / c) ** 0.6)
    for _ in range(MAX_NEWTON_STEPS):
        excess = a * rho * rho + c * rho ** (5.0 / 3.0) - SUPPORT_EXPONENT
        step = excess / (2.0 * a * rho + (5.0 / 3.0) * c * rho ** (2.0 / 3.0))
        rho -= step
        if step <= 4.0 * np.finfo(float).eps * rho:
            return rho
    raise QuadratureNotConverged("envelope support radius did not converge")


def hankel_nodes(params: ChannelParams, radius: float) -> int:
    """Nodes of the Hankel rule that serves receiver radii up to radius:
    the smallest power of two, at least MIN_RADIAL_NODES, that keeps the
    phase (k/L) radius R_sup within MAX_PHASE_PER_NODE per node.

    Raises QuadratureNotConverged past MAX_RADIAL_NODES.
    """
    phase = params.k / params.length * radius * envelope_support(params)
    n = MIN_RADIAL_NODES
    while n * MAX_PHASE_PER_NODE < phase:
        if n >= MAX_RADIAL_NODES:
            raise QuadratureNotConverged(
                "Hankel rule for R=%.3g m: Bessel phase %.3g rad needs more "
                "than %d nodes" % (radius, phase, MAX_RADIAL_NODES))
        n *= 2
    return n


@functools.lru_cache(maxsize=32)
def hankel_rule(params: ChannelParams, n: int):
    """(rho, weight * g) on the n-node rule over [0, R_sup] (n / PANEL_NODES
    panels past PANEL_NODES), and on the compound with twice the panels
    (two halves for a one-panel rule), the error reference."""
    rsup = envelope_support(params)
    two_w02 = 2.0 * params.w0 ** 2
    c = stable_coeff(params)
    m = min(n, PANEL_NODES)
    x, w = gauss_legendre(m)

    def weighted(panels):
        rho = rsup * ((np.arange(panels)[:, None] + x) / panels).ravel()
        exponent = -rho * rho / two_w02 - c * rho ** (5.0 / 3.0)
        return rho, rsup / panels * np.tile(w, panels) * np.exp(exponent)

    return weighted(n // m), weighted(2 * n // m)


def check_finite(r):
    """Raise DomainError unless both coordinates of r are finite."""
    if not all(map(math.isfinite, (float(r[0]), float(r[1])))):
        raise DomainError("receiver coordinates must be finite, got %r"
                          % (tuple(r),))


def gamma2(r, params: ChannelParams) -> float:
    """Mean intensity at receiver offset r, in m^-2.

    The Hankel form of the module docstring on the channel's Hankel rule,
    with the node count :func:`hankel_nodes` sets for |r|. Against the
    adaptive reference (``tests/oracles.py``) on 301 radii in [0, 0.6 m]
    over seven channels (0.5-4 km, Cn2 0-1e-13), the worst error is 8.2e-7
    times the tolerance 5e-4 relative plus 2e-4 of the undamped on-axis
    intensity k^2 W0^2 / (2 pi L^2); none raises.

    Parameters
    ----------
    r : 2-sequence of float
        Receiver-plane coordinates in metres.
    params : ChannelParams

    Raises
    ------
    DomainError
        If a coordinate is not finite.
    QuadratureNotConverged
        If the phase (k/L) |r| R_sup needs more than MAX_RADIAL_NODES
        nodes. At 1 km with a 2 cm beam, 800 nm and Cn2 4e-14 this is
        |r| > 59 m.
    """
    check_finite(r)
    beta = params.k / params.length
    radius = math.hypot(float(r[0]), float(r[1]))
    (rho, wg), _ = hankel_rule(params, hankel_nodes(params, radius))
    return (beta * beta / (2.0 * math.pi)
            * float(wg @ (rho * special.j0(beta * radius * rho))))
