"""Second-order field correlation (mean intensity) of the focused beam.

The receiver-plane mean intensity is a 2-D source-plane integral

    Gamma_2(r) = k^2/(4 pi^2 L^2) Int d^2r' exp(-|r'|^2 / (2 W0^2)
                 - i (k/L) r.r' - D_S(0, r') / 2),

with a Gaussian envelope, an oscillatory phase linking receiver and source
coordinates, and isotropic turbulence damping. The envelope g(rho) =
exp(-rho^2/(2 W0^2) - D_S(0, rho)/2) depends on |r'| alone, so the angular
integral is a Bessel function and Gamma_2 is the 1-D Hankel transform

    Gamma_2(r) = k^2/(2 pi L^2) Int_0^inf rho g(rho) J0(k rho |r| / L) drho.

:func:`gamma2` evaluates it on one fixed 128-node Gauss-Legendre rule on
[0, 14 W0], the :func:`support_radius` where the Gaussian factor alone is
e^-98. The aperture functionals of ``kernels.stats`` use the same Hankel
form on a rule of their own, which ends where the whole envelope is e^-98
and takes as many nodes as the largest radius they visit needs. The
128-node rule resolves only so much phase: with X = (k/L) |r| 14 W0 the
total phase of J0 across the rule, it raises :class:`QuadratureNotConverged`
once X > 2.5 x 128 rad, before evaluating anything. On its own the rule stays
accurate against the adaptive reference up to X/128 = 3.4-7.0 depending on
the channel, so the guard leaves a margin.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from ..channel import ChannelParams
from ..errors import QuadratureNotConverged
from .structure_function import ds_prefactor, gauss_legendre_01

HANKEL_NODES = 128
# Largest phase X = (k/L) |r| 14 W0 per node that gamma2 accepts.
MAX_PHASE_PER_NODE = 2.5


@functools.lru_cache(maxsize=1)
def _hankel_rule():
    # Built on first use: numpy takes 5-30 ms for 128 nodes, which a
    # process that never evaluates gamma2 should not pay at import.
    return gauss_legendre_01(HANKEL_NODES)


def support_radius(params: ChannelParams) -> float:
    """14 W0, where the Hankel rule of :func:`gamma2` stops.

    The envelope decays at least as fast as its Gaussian factor, which is
    e^-98 there.
    """
    return 14.0 * params.w0


def envelope_exponent(params: ChannelParams):
    """rho -> -rho^2/(2 W0^2) - D_S(0, rho)/2, the exponent of :func:`envelope`.

    The two constants are bound once; the returned function takes a float
    or an array.
    """
    two_w02 = 2.0 * params.w0 ** 2
    c = 0.5 * 0.375 * ds_prefactor(params)

    def exponent(rho):
        return -rho * rho / two_w02 - c * rho ** (5.0 / 3.0)

    return exponent


def envelope(rho, params: ChannelParams):
    """Radial source-plane weight exp(-rho^2/(2 W0^2) - D_S(0, rho)/2).

    This combined Gaussian-plus-turbulence damping profile is the integrand
    core shared by every reduction of Gamma_2 (pointwise values, aperture
    mass, second moments).
    """
    return np.exp(envelope_exponent(params)(np.asarray(rho, dtype=np.float64)))


def gamma2(r, params: ChannelParams) -> float:
    """Mean intensity at receiver offset r, in m^-2.

    The Hankel form of the module docstring on the fixed 128-node
    Gauss-Legendre rule on [0, 14 W0]. Against the adaptive reference
    (``tests/oracles.py``) on 301 radii in [0, 0.6 m] over seven channels
    (0.5-4 km, Cn2 0-1e-13), the error of every value returned is below
    1e-7 times the tolerance 5e-4 relative plus 2e-4 of the undamped
    on-axis intensity k^2 W0^2 / (2 pi L^2); every other radius raises.

    Parameters
    ----------
    r : 2-sequence of float
        Receiver-plane coordinates in metres.
    params : ChannelParams

    Raises
    ------
    QuadratureNotConverged
        If the phase X = (k/L) |r| 14 W0 exceeds 2.5 rad per node, where the
        fixed rule no longer resolves J0. At 1 km with a 2 cm beam and
        800 nm this is |r| > 0.144 m.
    """
    nodes, weights = _hankel_rule()
    cutoff = support_radius(params)
    beta = params.k / params.length
    radius = math.hypot(float(r[0]), float(r[1]))
    phase = beta * radius * cutoff
    if phase > MAX_PHASE_PER_NODE * HANKEL_NODES:
        raise QuadratureNotConverged(
            "gamma2 at r=%s: phase %.3g rad across the %d-node rule exceeds "
            "%.3g rad" % (tuple(r), phase, HANKEL_NODES,
                          MAX_PHASE_PER_NODE * HANKEL_NODES))
    rho = cutoff * nodes
    f = rho * envelope(rho, params) * special.j0(beta * radius * rho)
    return beta * beta / (2.0 * math.pi) * cutoff * float(np.dot(weights, f))
