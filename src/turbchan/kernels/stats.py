"""Channel statistics: mean transmittance, mean square, wander, beam width.

The isotropy of the mean-intensity integrand reduces every aperture
functional of Gamma_2 to a 1-D integral over the source-plane radius rho of
the damping profile g(rho) = exp(-rho^2/(2 W0^2) - D_S(0, rho)/2):

    mass(R)  = (k R / L) Int_0^inf g(rho) J1(k R rho / L) drho
    M2(R)    = (R^2 / 2) mass(R) - R^2 Int_0^inf g(rho) J2(k R rho / L) / rho drho

where mass(R) is the beam mass inside radius R (the mean transmittance for
R = a) and M2(R) is Int x^2 Gamma_2 over the same disk. The total mass is
exactly 1 for any turbulence strength.

For a pure 5/3-law structure function the full-plane second moment diverges
like R^(1/3) (the far halo), so the short-term width is cutoff-defined: M2 is
evaluated at the radius enclosing 99.9% of the beam mass.

All three functionals of a channel run on the Hankel rule of
``kernels.gamma2``, with the node count that rule sets for the largest
receiver radius they visit: the aperture, or an a priori upper bound of
the 99.9% radius (:func:`radial_node_count`). The 99.9% radius is a Newton
solve with a bisection safeguard, the slope dmass/dR = 2 pi R Gamma_2(R)
coming from the same rule. Each quoted error is the difference against the
same rule with twice the panels. Against adaptive quadrature at tight
tolerance the rule is within 1e-10 for mean_eta, 1e-7 for the 99.9% radius
and 1e-8 for wst2 on the fig2, vacuum and weak-turbulence channels at
1-16 km (``tests/test_channel_stats.py``).

The wandering variance uses the first-order (tilt) reduction of the same
delta-correlated phase statistics, normalized so the plane-wave structure
function is exactly 2 Cn2 k^2 L rho^(5/3):

    sigma_bw^2 = (5/3) Gamma(11/6) Cn2 Int_0^L (L - z)^2 W(z)^(-1/3) dz,

with W(z) the vacuum width of the focused beam at distance z. Near-
singularities of the integrand approach z = L for large Fresnel numbers and
z = 0 for small ones, so it runs on the tanh-sinh rule
(:func:`turbchan.quadrature.tanh_sinh`), quoting the difference against its
nested half-step rule; it is within 1e-12 of adaptive quadrature for
L = 0.2-50 km and W0 = 0.5-30 cm. Its diffractionless limit
(5/8) Gamma(11/6) Cn2 L^3 W0^(-1/3) is used as an oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy import special

from ..channel import ChannelParams
from ..errors import QuadratureNotConverged, StatsInvariantViolation
from ..quadrature import tanh_sinh
from .gamma2 import (MAX_NEWTON_STEPS, envelope_support, hankel_nodes,
                     hankel_rule, stable_coeff)
from .gamma4 import REPLICATES, QmcResult, aperture_cov_qmc_many

# Relative floor applied to quoted standard errors: deterministic quadrature
# results are exact only to their tolerance, and exact closed forms (vacuum)
# would otherwise quote zero error.
SE_FLOOR = 1e-9

WANDER_COEFF = (5.0 / 3.0) * float(special.gamma(11.0 / 6.0))
MASS_FRACTION = 0.999

# Leading large-R tail of the mass of the 5/3-stable factor exp(-C rho^(5/3))
# of g: mass outside R = TAIL_COEFF C (k R / L)^(-5/3) + ..., with
# TAIL_COEFF = Int_0^inf u^(5/3) J1(u) du = 2^(5/3) Gamma(11/6) / Gamma(1/6).
TAIL_COEFF = (2.0 ** (5.0 / 3.0) * math.gamma(11.0 / 6.0)
              / math.gamma(1.0 / 6.0))
# Mass-cut solve: relative step at which it stops.
RADIUS_RTOL = 1e-12


@dataclass(frozen=True)
class StatsBudget:
    """2**log2_total flux-covariance QMC points, split evenly over the
    REPLICATES scrambled replicates; part of the stats-cache key."""
    log2_total: int = 20

    def __post_init__(self):
        if self.log2_total < 8:
            raise ValueError("log2_total must be >= 8, got %d"
                             % self.log2_total)


@dataclass(frozen=True)
class BeamStats:
    """The four statistics that parameterize the transmittance distribution.

    mean_eta and mean_eta2 are dimensionless transmittance moments; sigma_bw2
    is the per-axis beam-wandering variance in m^2; wst2 is the squared
    short-term beam width in m^2. Standard errors carry the quoted floor of
    SE_FLOOR relative units; diagnostics hold convergence metadata.
    """
    mean_eta: float
    mean_eta2: float
    sigma_bw2: float
    wst2: float
    se_mean_eta: float = 0.0
    se_mean_eta2: float = 0.0
    se_sigma_bw2: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def _tail_radii(params: ChannelParams, gauss_tail: float,
                stable_tail: float) -> tuple[float, float]:
    # Radii outside which the vacuum Gaussian spot holds gauss_tail of its
    # mass (exactly) and the 5/3-stable law stable_tail (to leading order).
    r_g = params.w_vac * math.sqrt(0.5 * math.log(1.0 / gauss_tail))
    r_s = ((TAIL_COEFF * stable_coeff(params) / stable_tail) ** 0.6
           * params.length / params.k)
    return r_g, r_s


def _mass_cut_bracket(params: ChannelParams) -> float:
    """An upper bound on the MASS_FRACTION radius, known before any
    quadrature.

    Gamma_2 is the vacuum Gaussian spot (radius w_vac) convolved with the
    isotropic 5/3-stable law whose characteristic function is the
    turbulence factor of g, so the mass outside r_g + r_s is at most the sum
    of the two laws' masses outside r_g and r_s. r_g leaves a tenth of the
    allowed tail 1 - MASS_FRACTION to the Gaussian; r_s leaves 0.8 of it to
    the leading-order tail of the stable law, whose next term adds under 1%
    at this fraction.
    """
    tail = 1.0 - MASS_FRACTION
    return sum(_tail_radii(params, 0.1 * tail, 0.8 * tail))


def radial_node_count(params: ChannelParams) -> int:
    """Nodes of the channel's Hankel rule for its stats functionals: the
    count :func:`hankel_nodes` sets for the larger of the aperture radius
    and the mass-cut bracket, the largest receiver radii they visit."""
    return hankel_nodes(
        params, max(params.aperture_radius, _mass_cut_bracket(params)))


def _radial_sum(params: ChannelParams, kernel):
    """Int_0^R_sup g(rho) kernel(rho) drho on the channel's rule, with the
    difference against the compound rule as its error."""
    (rho, wg), (rho2, wg2) = hankel_rule(params, radial_node_count(params))
    val = float(wg @ kernel(rho))
    return val, abs(val - float(wg2 @ kernel(rho2)))


def mean_eta_quad(params: ChannelParams) -> tuple[float, float]:
    """Mean transmittance: the beam mass inside the aperture, with
    quadrature error."""
    c = params.k * params.aperture_radius / params.length
    val, err = _radial_sum(params, lambda rho: special.j1(c * rho))
    return c * val, c * err


def mass_cut_radius(params: ChannelParams) -> float:
    """Radius enclosing MASS_FRACTION of the (unit) beam mass.

    Newton steps on ln(1 - mass) against ln R, where the power-law tail of
    the mass is nearly linear, with slope dmass/dR = 2 pi R Gamma_2(R) =
    R (k/L)^2 Int g(rho) rho J0(k R rho / L) drho on the channel's rule; a
    step that leaves the bracket [0, _mass_cut_bracket] bisects it instead.
    Stops once a step moves the radius by at most RADIUS_RTOL relative.

    Raises QuadratureNotConverged if the bracket does not enclose the
    fraction on the rule, or the solve exceeds MAX_NEWTON_STEPS.
    """
    beta = params.k / params.length
    tail = 1.0 - MASS_FRACTION
    lo, hi = 0.0, _mass_cut_bracket(params)
    (rho, wg), _ = hankel_rule(params, radial_node_count(params))

    def mass(r):
        return beta * r * float(wg @ special.j1(beta * r * rho))

    if mass(hi) < MASS_FRACTION:
        raise QuadratureNotConverged(
            "mass-cut bracket %.3g m encloses less than %g of the beam mass"
            % (hi, MASS_FRACTION))
    # Start from the vacuum radius or the leading-order turbulent one,
    # whichever dominates; their hypotenuse lies below the bracket.
    r = math.hypot(*_tail_radii(params, tail, tail))
    for _ in range(MAX_NEWTON_STEPS):
        m = mass(r)
        if m < MASS_FRACTION:
            lo = r
        else:
            hi = r
        slope = r * beta * beta * float(
            wg @ (rho * special.j0(beta * r * rho)))
        out = 1.0 - m
        new = -1.0
        if out > 0.0 and slope > 0.0:
            new = r * math.exp(out * math.log(out / tail) / (r * slope))
        if abs(new - r) <= RADIUS_RTOL * r:
            return new
        r = new if lo < new < hi else 0.5 * (lo + hi)
    raise QuadratureNotConverged(
        "mass-cut radius did not converge in %d steps" % MAX_NEWTON_STEPS)


def x2_moment(radius: float, params: ChannelParams) -> tuple[float, float]:
    """Int x^2 Gamma_2 over the centered disk of radius, which encloses
    MASS_FRACTION of the beam mass."""
    c = params.k * radius / params.length
    tail, tail_err = _radial_sum(
        params, lambda rho: special.jv(2, c * rho) / rho)
    return (0.5 * radius ** 2 * MASS_FRACTION - radius ** 2 * tail,
            radius ** 2 * tail_err)


def sigma_bw2_quad(params: ChannelParams) -> tuple[float, float]:
    """Beam-wandering variance (per axis) from the tilt path integral, on
    the tanh-sinh rule; the error is the difference against its nested
    half-step rule."""
    k, length, w0 = params.k, params.length, params.w0
    x, w = tanh_sinh()
    z = length * x
    wv2 = w0 * w0 * (1.0 - x) ** 2 + (2.0 * z / (k * w0)) ** 2
    f = (length - z) ** 2 * wv2 ** (-1.0 / 6.0)
    val = length * float(w @ f)
    half = 2.0 * length * float(w[::2] @ f[::2])
    scale = WANDER_COEFF * params.cn2
    return scale * val, scale * abs(val - half)


def _floored(se: float, value: float) -> float:
    return max(se, SE_FLOOR * (1.0 + abs(value)))


def _eta2_result(mean_eta: float, cov: QmcResult) -> QmcResult:
    """Mean-square transmittance: squared mean plus the flux covariance."""
    diag = dict(cov.diagnostics)
    diag["flux_covariance"] = cov.value
    diag["mean_eta_sq"] = mean_eta ** 2
    return QmcResult(mean_eta ** 2 + cov.value, cov.std_error, diag)


def _quadrature_stats(params: ChannelParams) -> dict:
    """The deterministic part of channel_stats: everything but mean_eta2.

    Raises StatsInvariantViolation for a non-positive short-term width.
    """
    mean_eta, me_err = mean_eta_quad(params)
    mean_eta = min(mean_eta, 1.0)
    sbw2, sbw_err = sigma_bw2_quad(params)
    rcut = mass_cut_radius(params)
    x2, x2_err = x2_moment(rcut, params)
    wst2 = 4.0 * (x2 - sbw2)
    if wst2 <= 0.0:
        raise StatsInvariantViolation(
            "short-term width squared is non-positive (%.3g)" % wst2)
    return {
        "mean_eta": mean_eta, "se_mean_eta": _floored(me_err, mean_eta),
        "sigma_bw2": sbw2, "se_sigma_bw2": _floored(sbw_err, sbw2),
        "wst2": wst2,
        "diagnostics": {"mass_fraction": MASS_FRACTION, "rcut_m": rcut,
                        "x2_error": x2_err,
                        "radial_nodes": radial_node_count(params),
                        "radial_support_m": envelope_support(params),
                        "wander_nodes": len(tanh_sinh()[0])},
    }


def _beam_stats(fields: dict, res: QmcResult) -> BeamStats:
    """BeamStats from the quadrature fields and the mean-square estimate,
    clamping moment-inequality violations within 3 standard errors.

    diagnostics["eta2"]["bound_margin"] is (mean_eta - mean_eta2) / se of
    the estimate before any clamp, negative when it lies above the mean_eta
    bound (by at most 3, since more raises).
    """
    mean_eta = fields["mean_eta"]
    diagnostics = fields["diagnostics"]
    mean_eta2 = res.value
    se_me2 = _floored(res.std_error, mean_eta2)
    diagnostics["eta2"] = dict(res.diagnostics,
                               bound_margin=(mean_eta - mean_eta2) / se_me2)

    clamped = []
    lo, hi = mean_eta ** 2, mean_eta
    if mean_eta2 < lo:
        if lo - mean_eta2 > 3.0 * se_me2:
            raise StatsInvariantViolation(
                "mean_eta2 %.6g below mean_eta^2 %.6g by more than 3 se"
                % (mean_eta2, lo))
        clamped.append("mean_eta2->mean_eta^2")
        mean_eta2 = lo
    elif mean_eta2 > hi:
        if mean_eta2 - hi > 3.0 * se_me2:
            raise StatsInvariantViolation(
                "mean_eta2 %.6g above mean_eta %.6g by more than 3 se"
                % (mean_eta2, hi))
        clamped.append("mean_eta2->mean_eta")
        mean_eta2 = hi
    if clamped:
        diagnostics["clamped"] = clamped
    return BeamStats(mean_eta2=mean_eta2, se_mean_eta2=se_me2, **fields)


def channel_stats_many(channels, budget: StatsBudget | None = None,
                       seed: int = 0) -> list:
    """channel_stats for several channels with one shared covariance pass.

    Every channel's quadratures and width check run first, so a bad channel
    fails before any sampling; the flux covariances then come from one
    :func:`aperture_cov_qmc_many` call, which needs a common w0 and aperture
    radius. Each result equals the one-channel call bit for bit.
    """
    budget = budget or StatsBudget()
    channels = list(channels)
    fields = [_quadrature_stats(c) for c in channels]
    log2_points = budget.log2_total - (REPLICATES.bit_length() - 1)
    covs = aperture_cov_qmc_many(channels, log2_points, seed)
    return [_beam_stats(f, _eta2_result(f["mean_eta"], cov))
            for f, cov in zip(fields, covs)]


def channel_stats(params: ChannelParams, budget: StatsBudget | None = None,
                  seed: int = 0) -> BeamStats:
    """All four channel statistics with standard errors and diagnostics.

    The moment inequalities mean_eta^2 <= mean_eta2 <= mean_eta can be broken
    by sampling noise; violations within 3 standard errors are clamped to the
    nearest boundary and recorded in diagnostics["clamped"], larger ones raise
    StatsInvariantViolation. A non-positive short-term width also raises.
    """
    return channel_stats_many([params], budget, seed)[0]
