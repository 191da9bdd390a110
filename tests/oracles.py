"""Independent reference implementations used to pin expected values.

Everything here is evaluated straight from the defining formulas with adaptive
quadrature (mpmath / scipy QUADPACK) or arbitrary-precision special functions.
No code is shared with the turbchan package: turbchan uses fixed-node rules
(Gauss-Legendre panels and rules, Gauss-Hermite in log space, scrambled
Sobol), while this file uses adaptive integrators and, where it matters,
mpmath arbitrary precision. Tests compare package output against values
produced here, either as frozen literals or by calling the brute-force
functions directly.

Run as a script to print the frozen-anchor table:

    python tests/oracles.py
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize, special

# Shared geometry for every paper configuration: 2 cm beam, 800 nm, 4 cm
# aperture. Only (cn2, length) vary between figures.
W0 = 0.02
WAVELENGTH = 800e-9
APERTURE = 0.04

CONFIGS = {
    "c1": {"cn2": 4e-14, "length": 1000.0},
    "c2": {"cn2": 3e-15, "length": 2000.0},
    "c3": {"cn2": 3e-15, "length": 3000.0},
}


def wave_number(wavelength=WAVELENGTH):
    return 2.0 * math.pi / wavelength


def vacuum_width(length, w0=W0, wavelength=WAVELENGTH):
    # Receiver-plane spot radius of the focused beam without turbulence.
    return 2.0 * length / (wave_number(wavelength) * w0)


def rytov(cn2, length, wavelength=WAVELENGTH):
    return 1.23 * cn2 * wave_number(wavelength) ** (7.0 / 6.0) * length ** (11.0 / 6.0)


# ---------------------------------------------------------------------------
# phase structure function
# ---------------------------------------------------------------------------

def structure_function(r, rp, cn2, length, wavelength=WAVELENGTH):
    """Adaptive mpmath evaluation of the two-point phase structure function."""
    k = wave_number(wavelength)
    rx, ry = [mp.mpf(v) for v in r]
    px, py = [mp.mpf(v) for v in rp]

    def integrand(xi):
        x = rx * xi + px * (1 - xi)
        y = ry * xi + py * (1 - xi)
        return mp.power(x * x + y * y, mp.mpf(5) / 6)

    val = mp.quad(integrand, [0, 1])
    return float(2.0 * cn2 * k * k * length * val)


def structure_function_colinear(rho, cn2, length, wavelength=WAVELENGTH):
    # Closed form for r = 0: the xi integral is 3/8.
    k = wave_number(wavelength)
    return 0.75 * cn2 * k * k * length * rho ** (5.0 / 3.0)


# ---------------------------------------------------------------------------
# beam profile and its radial moments (pointwise Bessel-J0 route)
# ---------------------------------------------------------------------------

def _turb_coeff(cn2, length, wavelength=WAVELENGTH):
    # One half of the colinear structure function prefactor.
    k = wave_number(wavelength)
    return 0.375 * cn2 * k * k * length


def _envelope(rho, cn2, length, w0=W0, wavelength=WAVELENGTH):
    c = _turb_coeff(cn2, length, wavelength)
    return math.exp(-rho * rho / (2.0 * w0 * w0) - c * rho ** (5.0 / 3.0))


def gamma2_point(r, cn2, length, w0=W0, wavelength=WAVELENGTH):
    """Mean intensity at radius r: 1-D oscillatory Hankel form, QUADPACK."""
    k = wave_number(wavelength)
    beta = k / length
    pref = k * k / (2.0 * math.pi * length * length)

    def f(rho):
        return rho * _envelope(rho, cn2, length, w0, wavelength) * special.j0(beta * r * rho)

    hi = 12.0 * w0
    val, _ = integrate.quad(f, 0.0, hi, limit=400, epsabs=1e-14, epsrel=1e-11)
    return pref * val


def enclosed_mass(radius, cn2, length, w0=W0, wavelength=WAVELENGTH):
    """Beam mass inside a disk, integrating the pointwise profile radially."""

    def f(r):
        return 2.0 * math.pi * r * gamma2_point(r, cn2, length, w0, wavelength)

    val, _ = integrate.quad(f, 0.0, radius, limit=400, epsabs=1e-13, epsrel=1e-10)
    return val


def mean_eta(cn2, length, w0=W0, a=APERTURE, wavelength=WAVELENGTH):
    return enclosed_mass(a, cn2, length, w0, wavelength)


def mass_cut_radius(cn2, length, frac=0.999, w0=W0, wavelength=WAVELENGTH):
    """Radius enclosing the given beam-mass fraction (total mass is 1)."""
    wv = vacuum_width(length, w0, wavelength)

    def g(radius):
        return enclosed_mass(radius, cn2, length, w0, wavelength) - frac

    lo, hi = 0.25 * wv, 4.0 * wv
    while g(hi) < 0.0:
        hi *= 2.0
    return optimize.brentq(g, lo, hi, xtol=1e-12, rtol=1e-12)


def x2_moment(radius, cn2, length, w0=W0, wavelength=WAVELENGTH):
    """Int x^2 Gamma_2 over the centered disk of the given radius."""

    def f(r):
        return math.pi * r ** 3 * gamma2_point(r, cn2, length, w0, wavelength)

    val, _ = integrate.quad(f, 0.0, radius, limit=400, epsabs=1e-15, epsrel=1e-11)
    return val


# ---------------------------------------------------------------------------
# beam-wander variance (first-order tilt integral) and short-term width
# ---------------------------------------------------------------------------

WANDER_COEFF = (5.0 / 3.0) * float(special.gamma(11.0 / 6.0))


def sigma_bw2(cn2, length, w0=W0, wavelength=WAVELENGTH):
    k = wave_number(wavelength)

    def wvac2(z):
        return w0 * w0 * (1.0 - z / length) ** 2 + (2.0 * z / (k * w0)) ** 2

    def f(z):
        return (length - z) ** 2 * wvac2(z) ** (-1.0 / 6.0)

    val, _ = integrate.quad(f, 0.0, length, limit=200, epsabs=1e-16, epsrel=1e-12)
    return WANDER_COEFF * cn2 * val


def sigma_bw2_geometric(cn2, length, w0=W0):
    # Diffractionless limit of the tilt integral (w_vac(z) -> w0 (1 - z/L)).
    return (5.0 / 8.0) * float(special.gamma(11.0 / 6.0)) * cn2 * length ** 3 * w0 ** (-1.0 / 3.0)


def wst2(cn2, length, frac=0.999, w0=W0, wavelength=WAVELENGTH):
    rcut = mass_cut_radius(cn2, length, frac, w0, wavelength)
    return 4.0 * (x2_moment(rcut, cn2, length, w0, wavelength) - sigma_bw2(cn2, length, w0, wavelength))


# ---------------------------------------------------------------------------
# flux covariance under the quadratic structure-function law
# ---------------------------------------------------------------------------
#
# With D_q(r, r') = kappa (|r|^2 + r.r' + |r'|^2) in place of the 5/3 law the
# grouped exponents of the covariance integrand are S = -2 kappa |r3'|^2 and
# S2 = -kappa (|r2'|^2 + |r3'|^2). With r' ~ N(0, W0^2/2) per axis and the
# phase cos(k u.r2'/L) cos(k v.r3'/L), each Gaussian average is closed-form.
# The mean intensity is normalized to unit power, 2/(pi W_vac^2) on axis, so
# Gamma4 - Gamma2 Gamma2 is (2/(pi W_vac^2))^2 times the integrand mean.

def quadratic_law_mean(u2, v2, kappa_w02, w_vac):
    """Integrand mean e^{-A|u|^2} e^{-A|v|^2/(1+2x)}/(1+2x)
    - e^{-A(|u|^2+|v|^2)/(1+x)}/(1+x)^2 at |u|^2 = u2, |v|^2 = v2, with
    A = 1/W_vac^2 and x = kappa W0^2."""
    a = 1.0 / w_vac ** 2
    one, two = 1.0 + kappa_w02, 1.0 + 2.0 * kappa_w02
    return (math.exp(-a * u2 - a * v2 / two) / two
            - math.exp(-a * (u2 + v2) / one) / one ** 2)


def quadratic_law_gamma4_excess(r1, r2, kappa_w02, w_vac):
    """Gamma4(r1, r2) - Gamma2(r1) Gamma2(r2) under the quadratic law."""
    u2 = (r1[0] - r2[0]) ** 2 + (r1[1] - r2[1]) ** 2
    v2 = (r1[0] + r2[0]) ** 2 + (r1[1] + r2[1]) ** 2
    return (2.0 / (math.pi * w_vac ** 2)) ** 2 * quadratic_law_mean(
        u2, v2, kappa_w02, w_vac)


def quadratic_law_flux_covariance(radius, kappa_w02, w_vac):
    """Double aperture integral of Gamma4 - Gamma2 Gamma2 under the quadratic
    law: (2 R^2 / W_vac^2)^2 times the integrand mean averaged over two
    uniform points x1, x2 of the disk of radius R (u = x1 - x2,
    v = x1 + x2).

    With t = rho^2 / R^2 the angle average turns exp(-p|u|^2 - q|v|^2) into
    exp(-(p+q) R^2 (t1+t2)) I0(2 (p-q) R^2 sqrt(t1 t2)), integrated by
    adaptive quadrature over the unit square.
    """
    r2 = radius * radius

    def term(p, q):
        def f(t1, t2):
            x = 2.0 * (p - q) * r2 * math.sqrt(t1 * t2)
            return float(special.i0e(x)) * math.exp(x - (p + q) * r2 * (t1 + t2))
        return integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0,
                                 epsabs=0.0, epsrel=1e-10)[0]

    a = 1.0 / w_vac ** 2
    one, two = 1.0 + kappa_w02, 1.0 + 2.0 * kappa_w02
    mean = term(a, a / two) / two - term(a / one, a / one) / one ** 2
    return (2.0 * r2 / w_vac ** 2) ** 2 * mean


# ---------------------------------------------------------------------------
# Weibull parameters (arbitrary-precision Bessel route)
# ---------------------------------------------------------------------------

def weibull_params(a, wst):
    """(eta0, R, lambda) for an offset Gaussian beam, via mpmath besseli."""
    with mp.workdps(40):
        t = 4 * mp.mpf(a) ** 2 / mp.mpf(wst) ** 2
        eta0 = 1 - mp.exp(-t / 2)
        i0 = mp.exp(-t) * mp.besseli(0, t)
        i1 = mp.exp(-t) * mp.besseli(1, t)
        logterm = mp.log(2 * eta0 / (1 - i0))
        lam = 2 * t * (i1 / (1 - i0)) / logterm
        rscale = mp.mpf(a) * mp.power(logterm, -1 / lam)
        return float(eta0), float(rscale), float(lam)


def weibull_density(eta, eta0, rscale, lam, sigma_bw):
    if eta <= 0.0 or eta >= eta0:
        return 0.0
    ln = math.log(eta0 / eta)
    pref = rscale ** 2 / (sigma_bw ** 2 * eta * lam)
    return pref * ln ** (2.0 / lam - 1.0) * math.exp(-rscale ** 2 / (2.0 * sigma_bw ** 2) * ln ** (2.0 / lam))


# ---------------------------------------------------------------------------
# truncated log-normal
# ---------------------------------------------------------------------------

def trunc_lognormal_params(m1, m2):
    mu = -math.log(m1 * m1 / math.sqrt(m2))
    sigma = math.sqrt(math.log(m2 / (m1 * m1)))
    f1 = 0.5 * (1.0 + math.erf(mu / (math.sqrt(2.0) * sigma)))
    return mu, sigma, f1


def trunc_lognormal_density(eta, mu, sigma):
    if eta <= 0.0 or eta > 1.0:
        return 0.0
    f1 = 0.5 * (1.0 + math.erf(mu / (math.sqrt(2.0) * sigma)))
    z = (math.log(eta) + mu) / sigma
    return math.exp(-0.5 * z * z) / (f1 * math.sqrt(2.0 * math.pi) * eta * sigma)


def trunc_lognormal_moment(n, mu, sigma):
    val, _ = integrate.quad(lambda e: e ** n * trunc_lognormal_density(e, mu, sigma),
                            0.0, 1.0, limit=200, epsabs=1e-14, epsrel=1e-12)
    return val


# ---------------------------------------------------------------------------
# squeezing arithmetic
# ---------------------------------------------------------------------------

def squeezing_out_db(v_in_db, mean_eta_ps):
    v_in = 10.0 ** (v_in_db / 10.0)
    return 10.0 * math.log10(1.0 + mean_eta_ps * (v_in - 1.0))


# ---------------------------------------------------------------------------
# decoy-state key-rate pieces (plain-math brute force)
# ---------------------------------------------------------------------------

Y0 = 1.7e-6
E_DET = 0.01
F_EC = 1.2
MU_S = 0.27
MU_D = 0.39


def brute_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def brute_gain(eta, mu, y0=Y0):
    return y0 + 1.0 - math.exp(-eta * mu)


def brute_qber(eta, mu, y0=Y0, e_det=E_DET):
    q = brute_gain(eta, mu, y0)
    return (0.5 * y0 + e_det * (q - y0)) / q


def brute_q1_lower(eta, mu_s=MU_S, mu_d=MU_D, y0=Y0, clamp=True):
    qs = brute_gain(eta, mu_s, y0)
    qd = brute_gain(eta, mu_d, y0)
    pref = mu_s ** 2 * math.exp(-mu_s) / (mu_s * mu_d - mu_d ** 2)
    raw = pref * (qd * math.exp(mu_d)
                  - qs * math.exp(mu_s) * mu_d ** 2 / mu_s ** 2
                  - (mu_s ** 2 - mu_d ** 2) / mu_s ** 2 * y0)
    if clamp:
        return min(max(raw, 0.0), qs)
    return raw


def brute_key_rate_integrand(eta, mu_s=MU_S, mu_d=MU_D, y0=Y0, e_det=E_DET,
                             f_ec=F_EC):
    q1 = brute_q1_lower(eta, mu_s, mu_d, y0)
    qs = brute_gain(eta, mu_s, y0)
    es = brute_qber(eta, mu_s, y0, e_det)
    raw = q1 * (1.0 - brute_entropy(es)) - qs * f_ec * brute_entropy(es)
    return 0.5 * max(0.0, raw)


def q1_zero_eta_exact(mu_s=MU_S, mu_d=MU_D, y0=Y0):
    """Exact value of the one-photon bound at eta = 0 (all gains = Y0)."""
    with mp.workdps(40):
        ms, md, y = mp.mpf(mu_s), mp.mpf(mu_d), mp.mpf(y0)
        pref = ms ** 2 * mp.exp(-ms) / (ms * md - md ** 2)
        # Both gains collapse to Y0 when eta = 0.
        raw = pref * (y * mp.exp(md) - y * mp.exp(ms) * md ** 2 / ms ** 2
                      - (ms ** 2 - md ** 2) / ms ** 2 * y)
        return float(raw)


# ---------------------------------------------------------------------------
# frozen-anchor table
# ---------------------------------------------------------------------------

def main():
    k = wave_number()
    print("# wave number k = %.9g" % k)

    print("\n## rytov")
    for cn2, ll in [(4e-14, 1000.0), (3e-15, 2000.0), (3e-15, 3000.0),
                    (4e-14, 1100.0), (4e-14, 1200.0), (4e-14, 1500.0), (4e-14, 2000.0)]:
        print("cn2=%g L=%g -> %.6f" % (cn2, ll, rytov(cn2, ll)))

    print("\n## structure function")
    v_closed = structure_function_colinear(0.01, 4e-14, 1000.0)
    v_quad = structure_function((0.0, 0.0), (0.01, 0.0), 4e-14, 1000.0)
    print("colinear rho=1cm closed=%.12g quad=%.12g" % (v_closed, v_quad))
    for r, rp in [((0.01, 0.0), (0.0, 0.02)), ((0.005, -0.01), (0.015, 0.02))]:
        print("r=%s rp=%s -> %.12g" % (r, rp, structure_function(r, rp, 4e-14, 1000.0)))

    print("\n## vacuum closed forms")
    for ll in (1000.0, 2000.0, 3000.0):
        wv = vacuum_width(ll)
        print("L=%g W_vac=%.9g mean_eta=%.12g" % (ll, wv, 1.0 - math.exp(-2.0 * APERTURE ** 2 / wv ** 2)))

    print("\n## turbulent mean_eta / wander / width")
    for name, cfg in CONFIGS.items():
        cn2, ll = cfg["cn2"], cfg["length"]
        me = mean_eta(cn2, ll)
        sb = sigma_bw2(cn2, ll)
        rc = mass_cut_radius(cn2, ll, 0.999)
        x2 = x2_moment(rc, cn2, ll)
        w2 = 4.0 * (x2 - sb)
        print("%s: mean_eta=%.9g sigma_bw2=%.9g rcut=%.9g x2=%.9g wst2=%.9g"
              % (name, me, sb, rc, x2, w2))

    print("\n## gamma2 pointwise (c1)")
    for r in (0.0, 0.01, 0.02, 0.04):
        print("r=%g -> %.9g" % (r, gamma2_point(r, 4e-14, 1000.0)))

    print("\n## wander geometric limit (cn2=4e-14, L=1km, w0=2cm)")
    print("closed=%.12g" % sigma_bw2_geometric(4e-14, 1000.0))

    print("\n## weibull params a=4cm wst=5cm")
    print("%.12g %.12g %.12g" % weibull_params(0.04, 0.05))

    print("\n## trunc lognormal from moments (0.5, 0.3)")
    mu, sigma, f1 = trunc_lognormal_params(0.5, 0.3)
    print("mu=%.12g sigma=%.12g F1=%.12g" % (mu, sigma, f1))
    mu2, sigma2, f12 = trunc_lognormal_params(0.2, 0.05)
    print("moments mu=%.6g: m1=%.12g m2=%.12g (inputs 0.2, 0.05, F1=%.9g)"
          % (mu2, trunc_lognormal_moment(1, mu2, sigma2), trunc_lognormal_moment(2, mu2, sigma2), f12))

    print("\n## squeezing")
    print("-2.4 dB at <eta>_ps=0.5 -> %.9g dB" % squeezing_out_db(-2.4, 0.5))

    print("\n## decoy micro-values")
    print("h(0.11) = %.12g" % brute_entropy(0.11))
    print("gain(1, mu_s) = %.12g" % brute_gain(1.0, MU_S))
    print("qber(1, mu_s) = %.12g" % brute_qber(1.0, MU_S))
    print("q1_lower(1) = %.12g" % brute_q1_lower(1.0))
    print("q1_lower(0, unclamped)/Y0 = %.12g" % (brute_q1_lower(0.0, clamp=False) / Y0))
    print("q1_zero_eta_exact/Y0 = %.12g" % (q1_zero_eta_exact() / Y0))
    print("mu_s exp(-mu_s) = %.12g (leading-order weight)" % (MU_S * math.exp(-MU_S)))
    print("integrand(1) = %.12g" % brute_key_rate_integrand(1.0))
    print("integrand(0.3) = %.12g" % brute_key_rate_integrand(0.3))


if __name__ == "__main__":
    main()
