"""Phase structure function for Kolmogorov-Obukhov turbulence.

The two-point function is

    D_S(r, r') = 2 Cn2 k^2 L Int_0^1 dxi |r xi + r' (1 - xi)|^(5/3),

a line integral of the 5/3-power law along the segment joining the scaled
endpoints. :func:`ds_segment` evaluates the xi integral on a Gauss-Legendre
rule on [0, 1] from :func:`turbchan.quadrature.gauss_legendre`, which the
caller passes. The sampled fourth-order path (``kernels.gamma4``) uses 8
nodes, whose error is far below the sampling noise of the estimates it
feeds; the tests take the 32-node rule as their reference.

Relative error against adaptive quadrature split at the vertex of the
quadratic under the power, over 300 pairs with independent Gaussian
components (2 cm) and 300 nearly anti-parallel pairs (angle within about
0.02 rad of pi; the tests draw both sets):

    rule        Gaussian median / max    anti-parallel median / max
    8 nodes     4e-8  / 1.8e-3           6e-4   / 2.3e-3

When one argument vanishes the integral collapses to the closed form
Int_0^1 (1-xi)^(5/3) dxi = 3/8 (:func:`ds_colinear`).
"""

from __future__ import annotations

import numpy as np

from ..channel import ChannelParams


def ds_prefactor(params: ChannelParams) -> float:
    """2 Cn2 k^2 L, the scale in front of the xi integral."""
    return 2.0 * params.cn2 * params.k ** 2 * params.length


def ds_colinear(rho, prefactor: float):
    """D_S(0, r') for |r'| = rho, using the exact 3/8 moment of (1-xi)^(5/3)."""
    return 0.375 * prefactor * np.asarray(rho) ** (5.0 / 3.0)


def ds_segment(rx, ry, px, py, prefactor: float, nodes, weights):
    """Vectorized D_S for generic two-point arguments.

    Parameters
    ----------
    rx, ry, px, py : array_like
        Components of r and r'; broadcast together.
    prefactor : float
        Output of :func:`ds_prefactor`.
    nodes, weights : ndarray
        Gauss-Legendre rule on [0, 1].

    Notes
    -----
    |r xi + r'(1-xi)|^2 = (a xi + b) xi + c, with a = |r - r'|^2,
    b = 2 r'.(r - r') and c = |r'|^2, is a non-negative quadratic in xi. For
    non-parallel arguments it stays positive, so the integrand is analytic
    and the fixed rule converges geometrically. Anti-parallel arguments put
    its zero, and a |.|^(5/3) kink, inside the interval: near there the
    8-node rule of the sampled path keeps about 2.3e-3 relative accuracy
    (module docstring). Rounding can push q a few ulps below zero near that
    kink, so q is clamped at 0 before the power.
    """
    rx, ry, px, py = (np.asarray(v, dtype=np.float64) for v in (rx, ry, px, py))
    dx = rx - px
    dy = ry - py
    a = dx * dx + dy * dy
    b = 2.0 * (px * dx + py * dy)
    c = px * px + py * py
    xi = nodes.reshape((-1,) + (1,) * a.ndim)
    q = a * xi
    q += b
    q *= xi
    q += c
    np.maximum(q, 0.0, out=q)
    np.power(q, 5.0 / 6.0, out=q)
    return prefactor * np.tensordot(weights, q, axes=(0, 0))

