"""Second-order field correlation (mean intensity) of the focused beam.

The receiver-plane mean intensity is a 2-D source-plane integral

    Gamma_2(r) = k^2/(4 pi^2 L^2) Int d^2r' exp(-|r'|^2 / (2 W0^2)
                 - i (k/L) r.r' - D_S(0, r') / 2),

with a Gaussian envelope, an oscillatory phase linking receiver and source
coordinates, and isotropic turbulence damping. The pointwise operation
evaluates it on a tensor product of Gauss-Hermite nodes matched to the
envelope, truncated to the disk |r'| <= 6 W0. The oscillation limits the
usable receiver radius; :func:`gamma2_metadata` reports the validated range.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..channel import ChannelParams
from ..errors import QuadratureNotConverged
from .structure_function import ds_prefactor

DEFAULT_GH_NODES = 96
MAX_GH_NODES = 384
MASK_RADIUS_W0 = 6.0
IM_RESIDUE_TOL = 1e-3
# Pointwise tolerance: relative where the intensity is appreciable, with an
# absolute floor as a fraction of the undamped on-axis value. The 5/3-power
# turbulence kink makes the node-doubling error decay algebraically, so a
# pure relative test in the dim tail would escalate forever.
GH_RTOL = 5e-4
GH_ATOL_FRAC = 2e-4


@functools.lru_cache(maxsize=16)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def envelope_exponent(params: ChannelParams):
    """rho -> -rho^2/(2 W0^2) - D_S(0, rho)/2, the exponent of :func:`envelope`.

    The two constants are bound once; the returned function takes a float
    (for the scalar integrands of the radial quadratures, with math.exp)
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


def _gh_sum(r, params: ChannelParams, n: int) -> complex:
    h, w = _hermgauss(n)
    s = math.sqrt(2.0) * params.w0
    x = s * h  # source-plane coordinates per axis
    beta = params.k / params.length
    c = 0.5 * 0.375 * ds_prefactor(params)

    xx = x[:, None]
    yy = x[None, :]
    rho2 = xx * xx + yy * yy
    mask = rho2 <= (MASK_RADIUS_W0 * params.w0) ** 2
    # The Gaussian envelope is the Gauss-Hermite weight itself; only the
    # turbulence damping and the phase remain in the summand.
    damp = np.exp(-c * rho2 ** (5.0 / 6.0))
    phase = np.exp(-1j * beta * (r[0] * xx + r[1] * yy))
    summand = np.where(mask, damp * phase, 0.0)
    ww = w[:, None] * w[None, :]
    return 2.0 * params.w0 ** 2 * np.sum(ww * summand)


def gamma2(r, params: ChannelParams, gh_nodes: int = DEFAULT_GH_NODES,
           max_nodes: int = MAX_GH_NODES) -> float:
    """Mean intensity at receiver offset r, in m^-2.

    Parameters
    ----------
    r : 2-sequence of float
        Receiver-plane coordinates in metres.
    params : ChannelParams
    gh_nodes : int, optional
        Starting Gauss-Hermite order per axis. The order doubles until the
        node-doubling difference meets tolerance (relative GH_RTOL with an
        absolute floor of GH_ATOL_FRAC of the undamped on-axis intensity).
    max_nodes : int, optional
        Point budget cap per axis.

    Raises
    ------
    QuadratureNotConverged
        If the error estimate still exceeds tolerance at max_nodes, or the
        imaginary residue left by the disk truncation exceeds 1e-3 of the
        real part. Both happen when beta |r| outruns the node spacing; see
        :func:`gamma2_metadata` for the validated radius.
    """
    pref = params.k ** 2 / (4.0 * math.pi ** 2 * params.length ** 2)
    scale = 2.0 * math.pi * params.w0 ** 2  # undamped on-axis value of the sum
    n = gh_nodes
    prev = _gh_sum(r, params, max(8, n // 2))
    while True:
        fine = _gh_sum(r, params, n)
        err = abs(fine - prev)
        if err <= max(GH_RTOL * abs(fine), GH_ATOL_FRAC * scale):
            break
        if n >= max_nodes:
            raise QuadratureNotConverged(
                "gamma2 at r=%s: error estimate %.3g m^-2 exceeds tolerance "
                "at the %d-node budget" % (tuple(r), pref * err, n))
        prev = fine
        n = min(2 * n, max_nodes)
    if abs(fine.imag) > IM_RESIDUE_TOL * abs(fine.real):
        raise QuadratureNotConverged(
            "gamma2 at r=%s: imaginary residue %.3g of real part"
            % (tuple(r), abs(fine.imag) / abs(fine.real)))
    return pref * fine.real


def gamma2_metadata(params: ChannelParams, gh_nodes: int = DEFAULT_GH_NODES) -> dict:
    """Quadrature metadata: node spacing and validated receiver radius.

    The central node spacing of the order-n Gauss-Hermite rule is about
    pi / sqrt(2 n) in scaled units; the phase factor stays resolved while
    beta r dx < pi, which bounds the usable |r|.
    """
    dx = math.sqrt(2.0) * params.w0 * math.pi / math.sqrt(2.0 * gh_nodes)
    beta = params.k / params.length
    return {
        "gh_nodes": int(gh_nodes),
        "mask_radius_m": MASK_RADIUS_W0 * params.w0,
        "node_spacing_m": dx,
        "valid_radius_m": math.pi / (beta * dx),
        "fresnel_omega": params.omega,
    }
