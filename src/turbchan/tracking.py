"""Beam tracking, exceedance functions, and postselection statistics.

A tracking system removes the fraction f = sigma_tr / sigma_bw of the
centroid wandering, leaving the variance (1 - f^2)(sigma_bw^2 + jitter2);
the residual wandering reshapes the composite mixture while the conditional
law at fixed displacement stays untouched.  A law with no wandering share
(the log-normal outside the Weibull window, a point mass) has nothing to
track and is left unchanged.  This module tracks laws, evaluates
exceedance probabilities, and computes moments conditioned on a
postselection threshold, including the transmitted squeezing of a
squeezed-vacuum input; the point mass has closed forms for each.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy import special

from .errors import DomainError, EmptyPostselection, InvalidTracking
from .pdt import XI_CUTOFF, _component_sum, _displacement_average

MIN_ACCEPTANCE = 1e-6


def tracked_pdt(c, fraction, jitter2=0.0):
    """Transmittance law after tracking a fraction of its wandering.

    fraction = 0 leaves the channel untracked, fraction = 1 removes the
    wandering entirely (perfect tracking); jitter2 is an additive variance
    from mechanical vibrations, added to the wandering before tracking.
    Only the displacement distribution changes: the node radii
    sigma_bw xi_k become sqrt(delta2) xi_k on the Rayleigh rule, whose node
    count follows the narrower wandering, while (eta0_norm, zeta0_sq,
    r_scale, shape_lambda, sigma_r0) stay fixed.  Perfect tracking
    collapses the mixture onto its zero-displacement component, a point
    mass if the conditional width is zero.  A law without wandering is
    returned as it is, jitter included.

    Raises
    ------
    InvalidTracking
        If fraction lies outside [0, 1] or jitter2 is negative.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidTracking("tracking fraction must lie in [0, 1], got %g"
                              % fraction)
    if jitter2 < 0.0:
        raise InvalidTracking("jitter variance must be non-negative, got %g"
                              % jitter2)
    if c.sigma_bw2 == 0.0:
        return c
    total = c.sigma_bw2 + jitter2
    return replace(c, sigma_bw2=total - fraction * fraction * total)


def _cut_xi(c, eta):
    # r* / sigma_bw with r* = r_scale ln(eta0_norm / eta)**(1/lam): with zero
    # conditional width the transmittance exceeds eta > 0 iff r0 < r*.
    log_ratio = np.maximum(np.log(c.eta0_norm / eta), 0.0)
    return (c.weibull.r_scale * log_ratio ** (1.0 / c.weibull.shape_lambda)
            / math.sqrt(c.sigma_bw2))


def tracked_exceedance(eta, c):
    """Probability that the transmittance of a (tracked) law exceeds eta.

    Sums the per-node exceedance of the truncated log-normal conditionals
    over the Rayleigh rule; this is the exact complement of the integrated
    mixture density, so it is non-increasing in eta with value 1 at
    eta = 0 and 0 at eta = 1.  With zero conditional width it is the
    Rayleigh probability of a displacement below the cut radius r*, in
    closed form; for a point mass it is the step 1{eta < c.atom}.

    Parameters
    ----------
    eta : float or ndarray
        Threshold transmittances.
    c : CompositePdt
        The law, tracked with tracked_pdt where tracking applies.

    Returns
    -------
    float or ndarray
    """
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.zeros_like(eta_arr)
    out[eta_arr <= 0.0] = 1.0
    inside = (eta_arr > 0.0) & (eta_arr < 1.0)
    if inside.any():
        e = eta_arr[inside]
        if c.atom is not None:
            out[inside] = e < c.atom
        elif c.sigma_r0 == 0.0:
            out[inside] = -np.expm1(-0.5 * _cut_xi(c, e) ** 2)
        else:
            # The node weights sum to 1 only to rounding: near eta = 1 the
            # complement can land an ulp below 0.
            out[inside] = np.maximum(
                1.0 - _component_sum(c, np.log(e), special.ndtr), 0.0)
    return float(out[0]) if np.ndim(eta) == 0 else out


def postselected_moments(c, eta_min):
    """Transmittance moments conditioned on exceeding a threshold.

    Computes the first two moments of the (tracked) mixture restricted to
    eta > eta_min via closed-form partial moments of each truncated
    log-normal node, summed over the Rayleigh rule, together with the
    acceptance probability (the exceedance at eta_min).  With zero
    conditional width the partial moments are Rayleigh averages of the
    attenuation law up to the cut radius, on the fixed Gauss-Legendre rule
    of the mixture's normalization (pdt.DISPLACEMENT_NODES); a point
    mass above the threshold gives (atom, atom^2, 1).

    Parameters
    ----------
    c : CompositePdt
        The law, tracked with tracked_pdt where tracking applies.
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
    acceptance = tracked_exceedance(eta_min, c)
    if acceptance <= MIN_ACCEPTANCE:
        raise EmptyPostselection("acceptance %.3g at threshold %g"
                                 % (acceptance, eta_min))
    if c.atom is not None:
        return c.atom, c.atom * c.atom, acceptance
    if c.sigma_r0 == 0.0:
        xi_max = (min(_cut_xi(c, eta_min), XI_CUTOFF) if eta_min > 0.0
                  else XI_CUTOFF)
        return tuple(c.eta0_norm ** n * _displacement_average(
            n, math.sqrt(c.sigma_bw2), c.weibull, xi_max) / acceptance
            for n in (1, 2)) + (acceptance,)
    sig, mu, w = c.sigma_r0, c.node_mu, c.node_coef
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


def transmitted_squeezing_db(v_in_db, c, eta_min):
    """Detected squeezing after the fluctuating channel with postselection:
    attenuated_squeezing_db at the postselected mean transmittance of the
    (tracked) law (postselected_moments), in (v_in_db, 0) dB."""
    return attenuated_squeezing_db(
        v_in_db, postselected_moments(c, eta_min)[0])
