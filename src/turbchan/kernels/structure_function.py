"""Phase structure function for Kolmogorov-Obukhov turbulence.

The two-point function is

    D_S(r, r') = 2 Cn2 k^2 L Int_0^1 dxi |r xi + r' (1 - xi)|^(5/3),

a line integral of the 5/3-power law along the segment joining the scaled
endpoints. :func:`ds_segment` evaluates the xi integral on a fixed
Gauss-Legendre rule on [0, 1], which the caller chooses:

* the pointwise :func:`phase_structure_function` uses the 32-node
  ``GL_NODES``/``GL_WEIGHTS`` default;
* the sampled fourth-order path (``kernels.gamma4``) uses an 8-node rule,
  whose error is far below the sampling noise of the estimates it feeds.

Relative error against adaptive quadrature split at the vertex of the
quadratic under the power, over 300 pairs with independent Gaussian
components (2 cm) and 300 nearly anti-parallel pairs (angle within about
0.02 rad of pi; the tests draw both sets):

    rule        Gaussian median / max    anti-parallel median / max
    32 nodes    4e-16 / 5e-5             1.5e-5 / 7e-5
    8 nodes     4e-8  / 1.8e-3           6e-4   / 2.3e-3

When one argument vanishes the integral collapses to the closed form
Int_0^1 (1-xi)^(5/3) dxi = 3/8.
"""

from __future__ import annotations

import numpy as np

from ..channel import ChannelParams

GL_ORDER = 32


def gauss_legendre_01(order: int):
    """Nodes and weights of the Gauss-Legendre rule of the given order on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# Module-level so the vectorized path pays no setup cost per call.
GL_NODES, GL_WEIGHTS = gauss_legendre_01(GL_ORDER)


def ds_prefactor(params: ChannelParams) -> float:
    """2 Cn2 k^2 L, the scale in front of the xi integral."""
    return 2.0 * params.cn2 * params.k ** 2 * params.length


def ds_colinear(rho, prefactor: float):
    """D_S(0, r') for |r'| = rho, using the exact 3/8 moment of (1-xi)^(5/3)."""
    return 0.375 * prefactor * np.asarray(rho) ** (5.0 / 3.0)


def ds_segment(rx, ry, px, py, prefactor: float, nodes=GL_NODES, weights=GL_WEIGHTS):
    """Vectorized D_S for generic two-point arguments.

    Parameters
    ----------
    rx, ry, px, py : array_like
        Components of r and r'; broadcast together.
    prefactor : float
        Output of :func:`ds_prefactor`.
    nodes, weights : ndarray
        Quadrature rule on [0, 1] (see :func:`gauss_legendre_01`); the
        defaults are the 32-node rule.

    Notes
    -----
    |r xi + r'(1-xi)|^2 = (a xi + b) xi + c, with a = |r - r'|^2,
    b = 2 r'.(r - r') and c = |r'|^2, is a non-negative quadratic in xi. For
    non-parallel arguments it stays positive, so the integrand is analytic
    and the fixed rule converges geometrically. Anti-parallel arguments put
    its zero, and a |.|^(5/3) kink, inside the interval: near there the
    32-node rule keeps about 7e-5 relative accuracy and the 8-node rule of
    the sampled path about 2.3e-3 (module docstring). Rounding can push q
    a few ulps below zero near that kink, so q is clamped at 0 before the
    power.
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


def phase_structure_function(r, r_prime, params: ChannelParams) -> float:
    """D_S(r, r') for a single pair of 2-vectors, in squared radians.

    Zero-argument cases use the closed colinear form; the generic case uses
    the 32-node rule of :func:`ds_segment`.
    """
    pref = ds_prefactor(params)
    rx, ry = float(r[0]), float(r[1])
    px, py = float(r_prime[0]), float(r_prime[1])
    if rx == 0.0 and ry == 0.0:
        return float(ds_colinear(np.hypot(px, py), pref))
    if px == 0.0 and py == 0.0:
        # Swap role of the endpoints; Int_0^1 xi^(5/3) dxi is also 3/8.
        return float(ds_colinear(np.hypot(rx, ry), pref))
    return float(ds_segment(rx, ry, px, py, pref))
