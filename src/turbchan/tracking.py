"""Beam tracking, exceedance functions, and postselection statistics.

A tracking system removes part of the centroid wandering variance; the
residual wandering reshapes the composite transmittance mixture while the
conditional law at fixed displacement stays untouched.  This module rescales
tracked mixtures, evaluates exceedance probabilities, and computes moments
conditioned on a postselection threshold, including the transmitted
squeezing of a squeezed-vacuum input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import (DegenerateDistribution, DomainError, EmptyPostselection,
                     InvalidTracking)
from .pdt import XI_CUTOFF, _component_sum, _displacement_average, composite_mu

MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class TrackingConfig:
    """Tracking strength against a given wandering variance.

    Attributes
    ----------
    sigma_tr2 : float
        Variance removed by the tracking system, in m^2.
    sigma_bw2 : float
        Wandering variance of the untracked channel the config applies to,
        in m^2.
    jitter2 : float
        Optional additive variance from mechanical vibrations, applied to
        the wandering before tracking.
    """

    sigma_tr2: float
    sigma_bw2: float
    jitter2: float = 0.0

    def __post_init__(self):
        if self.sigma_tr2 < 0.0 or self.jitter2 < 0.0 or self.sigma_bw2 < 0.0:
            raise InvalidTracking("variances must be non-negative")
        if self.sigma_tr2 > self.sigma_bw2 + self.jitter2:
            raise InvalidTracking(
                "tracked variance %.4g exceeds available wandering %.4g"
                % (self.sigma_tr2, self.sigma_bw2 + self.jitter2))

    @property
    def delta2(self):
        """Residual wandering variance after tracking, in m^2."""
        return self.sigma_bw2 + self.jitter2 - self.sigma_tr2


def tracking_from_fraction(sigma_bw2, fraction, jitter2=0.0):
    """TrackingConfig with sigma_tr = fraction * sigma_bw.

    fraction = 0 leaves the channel untracked, fraction = 1 removes the
    wandering entirely (perfect tracking).  The fraction applies to the
    wandering including any jitter term.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidTracking("tracking fraction must lie in [0, 1], got %g"
                              % fraction)
    return TrackingConfig(fraction * fraction * (sigma_bw2 + jitter2),
                          sigma_bw2, jitter2)


def _check_match(c, t):
    if t.sigma_bw2 != c.sigma_bw2:
        raise InvalidTracking(
            "tracking config built for wandering variance %.6g, composite "
            "has %.6g" % (t.sigma_bw2, c.sigma_bw2))


def tracked_pdt(c, t):
    """Composite mixture after tracking.

    Only the displacement distribution changes: the node radii sigma_bw xi_k
    become sqrt(delta2) xi_k on the Rayleigh rule, whose node count follows
    the narrower wandering, while (eta0_norm, zeta0_sq, r_scale,
    shape_lambda, sigma_r0) stay fixed.  Perfect tracking collapses the
    mixture onto the single zero-displacement component.

    Raises
    ------
    InvalidTracking
        If t was built against a different wandering variance.
    DegenerateDistribution
        If perfect tracking meets a zero conditional width (point mass).
    """
    _check_match(c, t)
    delta2 = t.delta2
    if delta2 == 0.0 and c.sigma_r0 == 0.0:
        raise DegenerateDistribution(
            "perfect tracking of a zero-width mixture leaves a point mass "
            "at %g" % c.eta0_norm)
    return replace(c, sigma_bw2=delta2)


def _cut_xi(c, eta):
    # r* / sigma_bw with r* = r_scale ln(eta0_norm / eta)**(1/lam): with zero
    # conditional width the transmittance exceeds eta > 0 iff r0 < r*.
    log_ratio = np.maximum(np.log(c.eta0_norm / eta), 0.0)
    return (c.weibull.r_scale * log_ratio ** (1.0 / c.weibull.shape_lambda)
            / math.sqrt(c.sigma_bw2))


def tracked_exceedance(eta, c, t=None):
    """Probability that the tracked transmittance exceeds eta.

    Sums the per-node exceedance of the truncated log-normal conditionals
    over the Rayleigh rule; this is the exact complement of the integrated
    mixture density, so it is non-increasing in eta with value 1 at
    eta = 0 and 0 at eta = 1.  With zero conditional width it is the
    Rayleigh probability of a displacement below the cut radius r*, in
    closed form.

    Parameters
    ----------
    eta : float or ndarray
        Threshold transmittances.
    c : CompositePdt
    t : TrackingConfig, optional
        Omit for the untracked channel.

    Returns
    -------
    float or ndarray
    """
    ct = c if t is None else tracked_pdt(c, t)
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.zeros_like(eta_arr)
    out[eta_arr <= 0.0] = 1.0
    inside = (eta_arr > 0.0) & (eta_arr < 1.0)
    if inside.any():
        e = eta_arr[inside]
        if ct.sigma_r0 == 0.0:
            out[inside] = -np.expm1(-0.5 * _cut_xi(ct, e) ** 2)
        else:
            out[inside] = 1.0 - _component_sum(ct, np.log(e), special.ndtr)
    return float(out[0]) if np.ndim(eta) == 0 else out


def postselected_moments(c, t, eta_min):
    """Transmittance moments conditioned on exceeding a threshold.

    Computes the first two moments of the tracked mixture restricted to
    eta > eta_min via closed-form partial moments of each truncated
    log-normal node, summed over the Rayleigh rule, together with the
    acceptance probability (the exceedance at eta_min).  With zero
    conditional width the partial moments are Rayleigh averages of the
    attenuation law up to the cut radius, by adaptive quadrature.

    Parameters
    ----------
    c : CompositePdt
    t : TrackingConfig or None
    eta_min : float
        Postselection threshold in [0, 1).

    Returns
    -------
    (mean_ps, mean2_ps, acceptance) : tuple of float

    Raises
    ------
    EmptyPostselection
        If the acceptance probability is at or below MIN_ACCEPTANCE.
    """
    if not 0.0 <= eta_min < 1.0:
        raise DomainError("postselection threshold must lie in [0, 1), "
                          "got %g" % eta_min)
    ct = c if t is None else tracked_pdt(c, t)
    acceptance = tracked_exceedance(eta_min, ct)
    if acceptance <= MIN_ACCEPTANCE:
        raise EmptyPostselection("acceptance %.3g at threshold %g"
                                 % (acceptance, eta_min))
    if ct.sigma_r0 == 0.0:
        xi_max = (min(_cut_xi(ct, eta_min), XI_CUTOFF) if eta_min > 0.0
                  else XI_CUTOFF)
        return tuple(ct.eta0_norm ** n * _displacement_average(
            n, math.sqrt(ct.sigma_bw2), ct.weibull, xi_max) / acceptance
            for n in (1, 2)) + (acceptance,)
    sig = ct.sigma_r0
    mu = composite_mu(ct, ct.radii)
    w = ct.weights / special.ndtr(mu / sig)
    ln_min = math.log(eta_min) if eta_min > 0.0 else -math.inf

    def partial(n):
        # E[eta^n; eta_min < eta <= 1] for the nontruncated component,
        # renormalized by F(1) to match the truncated conditional law.
        shift = n * sig * sig
        mass = (special.ndtr((mu - shift) / sig)
                - special.ndtr((ln_min + mu - shift) / sig))
        return float(w @ (np.exp(-n * mu + 0.5 * n * n * sig * sig) * mass))

    return partial(1) / acceptance, partial(2) / acceptance, acceptance


def attenuated_squeezing_db(v_in_db, mean_eta):
    """Squeezed-vacuum variance in dB after a loss of mean transmittance.

    A quadrature variance V_in (shot-noise units, v_in_db < 0) turns into
    V_out = 1 + mean_eta (V_in - 1), between the input level and the shot
    noise.
    """
    if v_in_db >= 0.0:
        raise DomainError("input must be squeezed (negative dB), got %g"
                          % v_in_db)
    v_in = 10.0 ** (v_in_db / 10.0)
    return 10.0 * math.log10(1.0 + mean_eta * (v_in - 1.0))


def transmitted_squeezing_db(v_in_db, c, t, eta_min):
    """Detected squeezing after the fluctuating channel with postselection:
    attenuated_squeezing_db at the postselected mean transmittance of the
    tracked mixture (postselected_moments), in (v_in_db, 0) dB."""
    return attenuated_squeezing_db(
        v_in_db, postselected_moments(c, t, eta_min)[0])
