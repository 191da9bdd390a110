"""Transmittance probability distributions for turbulent optical channels.

Every table uses one law, the displacement-conditioned composite: a
log-normal law for the transmittance conditioned on the centroid
displacement radius, mixed over the Rayleigh displacement law (law of total
probability) on a Gauss-Legendre rule.  It runs between two limits:

* zero conditional width: the log-negative Weibull law of a Gaussian beam
  whose centroid wanders around the aperture axis (Vasylyev, Semenov &
  Vogel, PRL 108, 220501 (2012));
* zero wandering: one truncated log-normal matched to the first two
  transmittance moments (PRA 97, 063852 (2018)).

composite_pdt_build builds the law of a channel.  Inside the window
RATIO_RANGE of the Weibull fit it is the composite; outside it the
displacement law is not fitted, and the law is the zero-wandering mixture,
one truncated log-normal matched to both moments.  With neither wandering
nor conditional width (zero variance, e.g. vacuum) the law is a point mass
at its atom.  The stand-alone Weibull and truncated log-normal laws these
limits are tested against live in tests/oracles.py.

The composite is normalized so that its untruncated conditional moments
(composite_moments) reproduce the moments it was built from.  The density,
exceedance and sampler use the conditionals truncated to (0, 1], whose
moments fall below the inputs wherever a component's mean sits near 1: on
the 1 km headline channel of scenarios/fig2_solid.cfg (seed 0: mean_eta
0.949, mean_eta2 0.936) the truncated law has mean 0.839 and second moment
0.714 (tracking.postselected_moments at threshold 0).

The composite supports density evaluation, sampling, and moment recovery
with quadrature errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .errors import (ApproximationBreakdown, DomainError,
                     QuadratureNotConverged, RejectionStall)
from .quadrature import gauss_legendre

RATIO_RANGE = (0.1, 10.0)      # validated a/W_ST range of the Weibull fit
XI_CUTOFF = 12.0               # Rayleigh quadrature cutoff; tail mass exp(-72)
# Gauss-Legendre nodes of the displacement averages that normalize the
# mixture (_displacement_average): within 1e-12 of adaptive quadrature on
# 336 shapes (s 0.05-1.5, lambda 2-22.8, n = 1, 2, truncated xi_max
# included; tests/test_composite.py); 512 nodes leave 3e-9.
DISPLACEMENT_NODES = 1024
# Relative error floor of those averages, quoted on top of each rule's own
# error estimate (composite_moments).
NORM_RTOL = 1e-8
XI_TAIL = math.sqrt(24.0 * math.log(10.0))  # Rayleigh tail mass 1e-12 here
MIN_NODES = 64                 # node count range of the mixture rule
MAX_NODES = 8192
ETA_RESOLVED = 1e-12           # smallest transmittance the rule resolves
TAIL_WIDTHS = 8.0              # conditional widths past it that still count
REJECTION_MIN_F1 = 1e-3
# Mixing widths below this are indistinguishable from point masses at double
# precision (the variance ratio sits within rounding of 1); snapped to the
# closed-form zero-width branch so densities stay evaluable.
SIGMA_R0_FLOOR = 1e-7
# Rounding slack of a zero variance: a second moment this far below the
# squared mean, relatively, counts as equal to it.
MOMENT_RTOL = 1e-12
COMPONENT_CHUNK = 4096

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class WeibullParams:
    """Log-negative Weibull fit of an offset Gaussian beam through a disk.

    Attributes
    ----------
    eta0_max : float
        Transmittance at zero displacement, 1 - exp(-2 a^2 / W_ST^2).
    r_scale : float
        Displacement scale of the attenuation law, in metres.
    shape_lambda : float
        Shape exponent of the attenuation law.
    ratio : float
        Aperture-to-beam ratio a / W_ST the fit was built from.
    """

    eta0_max: float
    r_scale: float
    shape_lambda: float
    ratio: float


def weibull_params(a, wst):
    """Fit the displacement-attenuation law of a Gaussian beam on a disk.

    The transmitted fraction of a beam of short-term radius ``wst`` displaced
    by ``r0`` from the centre of an aperture of radius ``a`` is modelled as
    eta0_max * exp(-(r0 / r_scale)**shape_lambda).  The scale and shape are
    matched to the exact offset overlap at r0 = a, using exponentially scaled
    Bessel functions so large aperture-to-beam ratios do not overflow.

    Parameters
    ----------
    a : float
        Aperture radius in metres.
    wst : float
        Short-term beam radius in metres.

    Returns
    -------
    WeibullParams

    Raises
    ------
    DomainError
        If a/wst falls outside the validated range RATIO_RANGE.
    """
    if a <= 0.0 or wst <= 0.0:
        raise DomainError("aperture and beam radii must be positive, got "
                          "a=%g wst=%g" % (a, wst))
    ratio = a / wst
    if not (RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]):
        raise DomainError("a/W_ST = %.4g outside validated range [%g, %g]"
                          % (ratio, RATIO_RANGE[0], RATIO_RANGE[1]))
    t = 4.0 * a * a / (wst * wst)
    eta0 = -math.expm1(-0.5 * t)
    i0 = special.i0e(t)
    i1 = special.i1e(t)
    logterm = math.log(2.0 * eta0 / (1.0 - i0))
    lam = 2.0 * t * (i1 / (1.0 - i0)) / logterm
    r_scale = a * logterm ** (-1.0 / lam)
    return WeibullParams(eta0, r_scale, lam, ratio)


def _weibull_form_density(eta_arr, eta0, r_scale, lam, sigma_bw2):
    # Density of eta = eta0 * exp(-(r/r_scale)**lam) with r Rayleigh(sigma_bw),
    # supported on (0, eta0). Array in, array out.
    out = np.zeros_like(eta_arr)
    inside = (eta_arr > 0.0) & (eta_arr < eta0)
    if inside.any():
        e = eta_arr[inside]
        ln_ratio = np.log(eta0 / e)
        g = 2.0 / lam
        pref = r_scale * r_scale / (sigma_bw2 * lam * e)
        out[inside] = (pref * ln_ratio ** (g - 1.0)
                       * np.exp(-0.5 * r_scale * r_scale / sigma_bw2
                                * ln_ratio ** g))
    return out


@dataclass(frozen=True)
class TruncLogNormal:
    """Log-normal law for the transmittance truncated to (0, 1].

    ln(eta) is normal with mean -mu and standard deviation sigma; f1 is the
    nontruncated cumulative at eta = 1 and renormalizes the density.
    """

    mu: float
    sigma: float
    f1: float


def trunc_lognormal_sample(p, n, seed=0):
    """Draw n transmittance samples by rejection from the log-normal.

    Proposals come from the nontruncated log-normal; draws above 1 are
    rejected, so the acceptance rate equals p.f1.

    Raises
    ------
    RejectionStall
        If p.f1 < REJECTION_MIN_F1 (pathological truncation).
    """
    if n < 1:
        raise DomainError("sample count must be >= 1, got %d" % n)
    if p.f1 < REJECTION_MIN_F1:
        raise RejectionStall("acceptance rate F(1)=%.3g below %.0e"
                             % (p.f1, REJECTION_MIN_F1))
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    got = 0
    rounds = 0
    while got < n:
        m = int((n - got) / p.f1 * 1.2) + 16
        draw = np.exp(rng.normal(-p.mu, p.sigma, size=m))
        keep = draw[draw <= 1.0][: n - got]
        out[got:got + keep.size] = keep
        got += keep.size
        rounds += 1
        if rounds > 100_000:
            raise RejectionStall("rejection loop failed to terminate")
    return out


@lru_cache(maxsize=8)
def _rayleigh_rule(n):
    # Gauss-Legendre nodes xi_k on [0, XI_CUTOFF], weights GL_k xi_k
    # exp(-xi_k^2/2) summing to 1.
    x, g = gauss_legendre(n)
    xi = XI_CUTOFF * x
    w = g * xi * np.exp(-0.5 * xi * xi)
    w /= w.sum()
    xi.setflags(write=False)
    w.setflags(write=False)
    return xi, w


def _node_count(s, lam, sigma_r0, mu0):
    """Rayleigh nodes a mixture needs: the first MIN_NODES * 2**k at which
    the location mu0 + (s xi)**lam, s = sigma_bw / r_scale, moves by at most
    one conditional width (1 if 0 or above 1) between nodes, spaced
    pi sqrt(xi (XI_CUTOFF - xi)) / n, out to the nearer of XI_TAIL and the
    xi where the location passes -ln(ETA_RESOLVED) by TAIL_WIDTHS widths.
    Raises QuadratureNotConverged past MAX_NODES.  On 336 shapes (s
    0.05-1.5, lam 2-22.8, sigma_r0 0.01-2) each count returned is within
    6e-9 of a 16384-node rule on eta >= ETA_RESOLVED; 90 shapes raise.
    """
    width = sigma_r0 if 0.0 < sigma_r0 < 1.0 else 1.0
    reach = -math.log(ETA_RESOLVED) + TAIL_WIDTHS * sigma_r0 - mu0
    if reach <= 0.0 or s == 0.0:
        return MIN_NODES
    xi = min(XI_TAIL, reach ** (1.0 / lam) / s)
    need = (math.pi * lam * s ** lam * xi ** (lam - 1.0)
            * math.sqrt(xi * (XI_CUTOFF - xi)) / width)
    n = MIN_NODES
    while n < need:
        n *= 2
    if n > MAX_NODES:
        raise QuadratureNotConverged(
            "composite mixture with s=%.3g, lambda=%.3g, sigma_r0=%.3g needs "
            "%.3g Rayleigh nodes, more than %d"
            % (s, lam, sigma_r0, need, MAX_NODES))
    return n


@dataclass(frozen=True, eq=False)
class CompositePdt:
    """Displacement-conditioned transmittance mixture.

    Given a centroid displacement radius r0, the transmittance is log-normal
    with constant width sigma_r0 and location composite_mu(self, r0).  The
    mixture over r0 ~ Rayleigh(sigma_bw) is the rule _rayleigh_rule at radii
    sigma_bw xi_k; its node count follows from the shape (_node_count) on
    first use, and raises QuadratureNotConverged past MAX_NODES.  eta0_norm
    and zeta0_sq are normalized so the mixture's first two moments
    reproduce the channel moments it was built from (composite_moments).
    """

    eta0_norm: float
    zeta0_sq: float
    weibull: WeibullParams
    sigma_bw2: float
    sigma_r0: float

    @cached_property
    def node_count(self):
        return _node_count(math.sqrt(self.sigma_bw2) / self.weibull.r_scale,
                           self.weibull.shape_lambda, self.sigma_r0,
                           float(composite_mu(self, 0.0)))

    @property
    def weights(self):
        return _rayleigh_rule(self.node_count)[1]

    @cached_property
    def radii(self):
        radii = math.sqrt(self.sigma_bw2) * _rayleigh_rule(self.node_count)[0]
        radii.setflags(write=False)
        return radii

    @cached_property
    def node_mu(self):
        """composite_mu at each node radius."""
        mu = composite_mu(self, self.radii)
        mu.setflags(write=False)
        return mu

    @cached_property
    def node_coef(self):
        """Node weights over Phi(node_mu / sigma_r0), which renormalizes
        each node's log-normal to (0, 1]; needs sigma_r0 > 0."""
        coef = self.weights / special.ndtr(self.node_mu / self.sigma_r0)
        coef.setflags(write=False)
        return coef

    @property
    def atom(self):
        """The one transmittance of a law with neither wandering nor
        conditional width, which is a point mass there; None otherwise."""
        if self.sigma_bw2 == 0.0 and self.sigma_r0 == 0.0:
            return self.eta0_norm
        return None

    @property
    def family(self):
        """Name of the law: "degenerate" for a point mass, "lognormal" for
        the zero-wandering law built outside RATIO_RANGE (flat attenuation
        law, r_scale = inf), "composite" otherwise."""
        if self.atom is not None:
            return "degenerate"
        if math.isinf(self.weibull.r_scale):
            return "lognormal"
        return "composite"


def _displacement_average(n, sigma_bw, wp, xi_max=XI_CUTOFF):
    # E[exp(-n (r/r_scale)**lam); r < sigma_bw xi_max] over
    # r ~ Rayleigh(sigma_bw) on the DISPLACEMENT_NODES Gauss-Legendre rule
    # on [0, xi_max]; equals 1 when the beam does not wander.
    if sigma_bw == 0.0:
        return 1.0
    x, g = gauss_legendre(DISPLACEMENT_NODES)
    xi = xi_max * x
    s = sigma_bw / wp.r_scale
    return xi_max * float(g @ (xi * np.exp(-0.5 * xi * xi
                                           - n * (s * xi) ** wp.shape_lambda)))


def _mixture(stats, wp, sigma_bw2):
    # The mixture under wandering variance sigma_bw2 whose untruncated
    # moments reproduce stats.mean_eta and stats.mean_eta2.
    sigma_bw = math.sqrt(sigma_bw2)
    i1 = _displacement_average(1.0, sigma_bw, wp)
    i2 = _displacement_average(2.0, sigma_bw, wp)
    eta0 = stats.mean_eta / i1
    zeta0_sq = stats.mean_eta2 / i2
    ratio = zeta0_sq / (eta0 * eta0)
    if ratio < 1.0:
        # Rounding in the normalization can land a hair below 1 when the
        # true variance is zero; anything further below is a real failure.
        if 1.0 - ratio > MOMENT_RTOL:
            raise ApproximationBreakdown(
                "normalized second moment %.6g < squared normalized mean "
                "%.6g; conditional width would be imaginary"
                % (zeta0_sq, eta0 * eta0))
        ratio = 1.0
    sigma_r0 = math.sqrt(math.log(ratio)) if ratio > 1.0 else 0.0
    if sigma_r0 < SIGMA_R0_FLOOR:
        sigma_r0 = 0.0
    return CompositePdt(eta0, zeta0_sq, wp, sigma_bw2, sigma_r0)


def composite_pdt_build(stats, a):
    """The transmittance law of a channel, for every aperture-to-beam ratio.

    Inside RATIO_RANGE the law is the composite: the conditional
    transmittance at displacement r0 is log-normal with r0-independent
    width, its location normalized so that averaging the conditional
    moments over the Rayleigh displacement law returns the input mean_eta
    and mean_eta2.  The normalization integrals run on the fixed
    DISPLACEMENT_NODES Gauss-Legendre rule on [0, XI_CUTOFF]; the
    mixture is the Rayleigh rule of CompositePdt, not a draw.  Outside
    RATIO_RANGE the displacement law is not fitted and the law is the
    zero-wandering mixture matched to both moments, one truncated
    log-normal; its attenuation law is flat (r_scale = inf) and read only
    at zero displacement.  A law with neither wandering nor conditional
    width is the point mass at its atom (e.g. vacuum).  CompositePdt.family
    names which of the three a law is.  The density, sampler, tracking,
    exceedance and postselection functions take every returned law alike.

    Parameters
    ----------
    stats : BeamStats
        Channel moments and beam geometry (mean_eta, mean_eta2, sigma_bw2,
        wst2).
    a : float
        Aperture radius in metres.

    Returns
    -------
    CompositePdt

    Raises
    ------
    DomainError
        If the aperture radius or wst2 is not positive, or the moments violate
        0 < mean_eta**2 <= mean_eta2 <= mean_eta <= 1 (beyond MOMENT_RTOL).
    ApproximationBreakdown
        If the normalized second moment falls below the squared normalized
        first moment, which makes the conditional width imaginary; the
        weak-wandering closure does not apply to these stats.
    """
    if a <= 0.0 or stats.wst2 <= 0.0:
        raise DomainError("aperture and beam radii must be positive, got "
                          "a=%g wst2=%g" % (a, stats.wst2))
    m1, m2 = stats.mean_eta, stats.mean_eta2
    if not (0.0 < m1 <= 1.0 and m2 <= m1
            and 1.0 - m2 / (m1 * m1) <= MOMENT_RTOL):
        raise DomainError("moments mean_eta=%g, mean_eta2=%g violate "
                          "0 < mean_eta^2 <= mean_eta2 <= mean_eta <= 1"
                          % (m1, m2))
    wst = math.sqrt(stats.wst2)
    ratio = a / wst
    if RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]:
        return _mixture(stats, weibull_params(a, wst), stats.sigma_bw2)
    flat = WeibullParams(-math.expm1(-2.0 * ratio * ratio), math.inf, 2.0,
                         ratio)
    return _mixture(stats, flat, 0.0)


def composite_mu(c, r0):
    """Location parameter of the conditional log-normal at displacement r0.

    Equals -ln(eta0_norm^2 / sqrt(zeta0_sq)) + (r0 / r_scale)**shape_lambda,
    increasing in r0: a larger displacement can only attenuate.  Vectorized
    in r0.
    """
    mu0 = -math.log(c.eta0_norm * c.eta0_norm / math.sqrt(c.zeta0_sq))
    return mu0 + (r0 / c.weibull.r_scale) ** c.weibull.shape_lambda


def _component_sum(c, x, kernel):
    # sum_k w_k kernel((x + mu_k) / sigma_r0) / Phi(mu_k / sigma_r0) at each
    # log transmittance x, over chunks of nodes.
    mu, coef = c.node_mu, c.node_coef
    acc = np.zeros(x.size)
    for start in range(0, mu.size, COMPONENT_CHUNK):
        m = mu[start:start + COMPONENT_CHUNK, None]
        acc += coef[start:start + COMPONENT_CHUNK] @ kernel(
            (x[None, :] + m) / c.sigma_r0)
    return acc


def composite_pdt_density(eta, c):
    """Density of the composite mixture at eta.

    With a positive conditional width this is the weighted sum of the
    truncated log-normal node densities, each renormalized to (0, 1];
    the rule resolves it on [ETA_RESOLVED, 1] (see _node_count).  With
    zero conditional width it is the log-negative Weibull form of the
    point-mass components, in closed form with eta0_norm for eta0_max;
    a point mass (c.atom) has density 0.
    """
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    if c.sigma_r0 == 0.0:
        out = (np.zeros_like(eta_arr) if c.atom is not None else
               _weibull_form_density(eta_arr, c.eta0_norm, c.weibull.r_scale,
                                     c.weibull.shape_lambda, c.sigma_bw2))
        return float(out[0]) if np.ndim(eta) == 0 else out
    out = np.zeros_like(eta_arr)
    inside = (eta_arr > 0.0) & (eta_arr <= 1.0)
    if inside.any():
        e = eta_arr[inside]
        acc = _component_sum(c, np.log(e), lambda z: np.exp(-0.5 * z * z))
        out[inside] = acc / (c.sigma_r0 * _SQRT_2PI * e)
    return float(out[0]) if np.ndim(eta) == 0 else out


def composite_pdt_sample(c, n, seed=0):
    """Draw n transmittances: a Rayleigh displacement per draw, then its
    truncated log-normal by rejection (point evaluation when the
    conditional width is zero).

    Raises
    ------
    RejectionStall
        If the acceptance rate at zero displacement, the lowest of all,
        falls below REJECTION_MIN_F1.
    """
    if n < 1:
        raise DomainError("sample count must be >= 1, got %d" % n)
    rng = np.random.default_rng(seed)
    xi = np.sqrt(-2.0 * np.log1p(-rng.random(n)))
    mu = composite_mu(c, math.sqrt(c.sigma_bw2) * xi)
    if c.sigma_r0 == 0.0:
        return np.exp(-mu)
    # The smallest location, at xi = 0, has the most mass above 1, so it
    # bounds the acceptance rate from below.
    f1_min = special.ndtr(float(composite_mu(c, 0.0)) / c.sigma_r0)
    if f1_min < REJECTION_MIN_F1:
        raise RejectionStall("worst component acceptance F(1)=%.3g below %.0e"
                             % (f1_min, REJECTION_MIN_F1))
    out = np.empty(n)
    pending = np.arange(n)
    rounds = 0
    while pending.size:
        z = rng.standard_normal(pending.size)
        cand = np.exp(-mu[pending] + c.sigma_r0 * z)
        ok = cand <= 1.0
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
        rounds += 1
        if rounds > 100_000:
            raise RejectionStall("rejection loop failed to terminate")
    return out


@dataclass(frozen=True)
class CompositeMoments:
    """First two composite moments with their quadrature errors."""

    mean_eta: float
    mean_eta2: float
    se_mean_eta: float
    se_mean_eta2: float


def composite_moments(c):
    """Recover the first two transmittance moments of the composite.

    Sums the closed-form conditional moments eta0_norm * exp(-x) and
    zeta0_sq * exp(-2 x), x = (r0 / r_scale)**shape_lambda, over the
    Rayleigh rule; by construction this reproduces the build inputs up to
    the quadrature error.  Each error reported is the difference against
    the rule with half the nodes, an upper estimate of the rule's error,
    plus the NORM_RTOL relative error floor of the normalization integrals.
    """
    sigma_bw = math.sqrt(c.sigma_bw2)

    def moments(n):
        xi, w = _rayleigh_rule(n)
        excess = (sigma_bw * xi / c.weibull.r_scale) ** c.weibull.shape_lambda
        return (c.eta0_norm * float(w @ np.exp(-excess)),
                c.zeta0_sq * float(w @ np.exp(-2.0 * excess)))

    m1, m2 = moments(c.node_count)
    h1, h2 = moments(c.node_count // 2)
    return CompositeMoments(m1, m2, abs(m1 - h1) + NORM_RTOL * m1,
                            abs(m2 - h2) + NORM_RTOL * m2)

