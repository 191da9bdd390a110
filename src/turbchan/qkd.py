"""Two-decoy-state BB84 key rates over a fluctuating channel.

Signal and weak-decoy pulses plus a vacuum decoy give a lower bound on the
one-photon gain; combined with the measured gain and error rate of the
signal this bounds the secure key fraction per pulse.  Averaging the bound
over the transmittance distribution yields the key rate of the turbulent
link.  All detector arithmetic is elementary and vectorized in the
transmittance, which includes every deterministic loss: the CLI multiplies
the sampled transmittances by ``ChannelParams.extinction_eta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecoyOrderingViolation, DivisionByZeroRate, DomainError


@dataclass(frozen=True)
class DecoyParams:
    """Source and detector parameters of the two-decoy protocol.

    Attributes
    ----------
    mu_s, mu_d : float
        Mean photon numbers of the signal and the weak decoy; the third
        pulse is the vacuum decoy.
    y0 : float
        Background yield (dark counts and stray light).
    e_det : float
        Misalignment error rate.
    f_ec : float
        Error-correction inefficiency, >= 1.
    """

    mu_s: float = 0.27
    mu_d: float = 0.39
    y0: float = 1.7e-6
    e_det: float = 0.01
    f_ec: float = 1.2

    def __post_init__(self):
        if not (0.0 < self.mu_s < self.mu_d < 1.0):
            raise DecoyOrderingViolation(
                "need 0 < mu_s < mu_d < 1, got mu_s=%g mu_d=%g"
                % (self.mu_s, self.mu_d))
        if self.y0 < 0.0:
            raise DomainError("background yield must be >= 0, got %g"
                              % self.y0)
        if not (0.0 <= self.e_det <= 0.5):
            raise DomainError("misalignment error must lie in [0, 0.5], "
                              "got %g" % self.e_det)
        if self.f_ec < 1.0:
            raise DomainError("error-correction inefficiency must be >= 1, "
                              "got %g" % self.f_ec)


def binary_entropy(x):
    """Binary entropy in bits, zero at both endpoints by continuity."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x_arr)
    inside = (x_arr > 0.0) & (x_arr < 1.0)
    if inside.any():
        v = x_arr[inside]
        out[inside] = -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)
    return float(out[0]) if np.ndim(x) == 0 else out


def gain(eta, mu, p):
    """Detection probability of a pulse of mean photon number mu.

    Q = y0 + 1 - exp(-eta * mu); monotone increasing in eta and mu.
    """
    eta_arr = np.asarray(eta, dtype=float)
    out = p.y0 + 1.0 - np.exp(-eta_arr * mu)
    return float(out) if np.ndim(eta) == 0 else out


def _qber_of_gain(q, p):
    return (0.5 * p.y0 + p.e_det * (np.asarray(q) - p.y0)) / q


def qber(eta, mu, p):
    """Quantum bit error rate of a pulse of mean photon number mu.

    Background clicks are random (error rate 1/2); signal clicks err with
    the misalignment rate, so E = (y0/2 + e_det (Q - y0)) / Q, which sits
    in (0, 0.5].
    """
    return _qber_of_gain(gain(eta, mu, p), p)


def _one_photon_terms(eta, p):
    """Signal gain and the raw (unclamped) one-photon gain bound."""
    mu_s, mu_d = p.mu_s, p.mu_d
    qs = gain(eta, mu_s, p)
    qd = gain(eta, mu_d, p)
    pref = mu_s ** 2 * math.exp(-mu_s) / (mu_s * mu_d - mu_d ** 2)
    raw = pref * (np.asarray(qd) * math.exp(mu_d)
                  - np.asarray(qs) * math.exp(mu_s) * mu_d ** 2 / mu_s ** 2
                  - (mu_s ** 2 - mu_d ** 2) / mu_s ** 2 * p.y0)
    return qs, raw


def _clamp_q1(q1_raw, qs):
    return np.minimum(np.maximum(q1_raw, 0.0), qs)


def one_photon_gain_lower(eta, p, clamp=True):
    """Lower bound on the one-photon gain of the signal pulses.

    Combines the signal and weak-decoy gains with the background yield;
    the raw bound can go negative at small eta from the background terms,
    so it is clamped to [0, Q_signal] unless clamp=False.
    """
    qs, raw = _one_photon_terms(eta, p)
    if clamp:
        raw = _clamp_q1(raw, qs)
    return float(raw) if np.ndim(eta) == 0 else raw


def _key_fraction(q1, qs, p):
    """Raw secure fraction from the (clamped) one-photon bound and Q_signal."""
    h_es = binary_entropy(_qber_of_gain(qs, p))
    return 0.5 * (np.asarray(q1) * (1.0 - h_es)
                  - np.asarray(qs) * p.f_ec * h_es)


def key_rate_integrand(eta, p, clamp=True):
    """Secure key fraction per pulse at fixed transmittance.

    One-photon events contribute their gain bound times the phase-error
    entropy margin; error correction costs f_ec times the signal entropy.
    The phase error rate of the one-photon events is approximated by the
    signal QBER.  Negative raw values mean no key and are clamped to zero
    unless clamp=False (sensitivity analysis).
    """
    qs, q1_raw = _one_photon_terms(eta, p)
    raw = _key_fraction(_clamp_q1(q1_raw, qs), qs, p)
    if clamp:
        raw = np.maximum(raw, 0.0)
    return float(raw) if np.ndim(eta) == 0 else raw


@dataclass(frozen=True)
class KeyRateResult:
    """Averaged key rate with its sampling error and clamp diagnostics."""

    rate: float
    std_error: float
    diagnostics: dict


def averaged_key_rate(samples, p):
    """Key rate averaged over transmittance samples.

    The secure fraction is the average of the raw per-transmittance bound
    (negative values allowed inside the average, since loss events where
    error correction outruns the one-photon margin genuinely eat into the
    key) and the reported rate is that average clamped at zero: the channel
    either yields key or it does not.

    Parameters
    ----------
    samples : array_like
        Transmittance draws, for example from composite_pdt_sample.
    p : DecoyParams

    Returns
    -------
    KeyRateResult
        rate (>= 0), standard error of the average, and diagnostics with
        the raw mean and the fractions of draws where the one-photon bound
        or the raw integrand went negative.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 1:
        raise DomainError("transmittance samples must be a non-empty 1-D "
                          "array")
    # The raw bound and raw integrand are computed once; the averaged
    # values and the clamp diagnostics both derive from them.
    qs, q1_raw = _one_photon_terms(samples, p)
    raw = _key_fraction(_clamp_q1(q1_raw, qs), qs, p)
    n = samples.size
    # Equal fractions have no spread, but np.std of them need not round to
    # 0 (their computed mean can differ from the common value).
    se = (float(np.std(raw, ddof=1) / math.sqrt(n))
          if n > 1 and np.ptp(raw) > 0.0 else 0.0)
    mean_raw = float(np.mean(raw))
    diag = {
        "samples": n,
        "raw_mean": mean_raw,
        "q1_clamped_fraction": float(np.mean(q1_raw < 0.0)),
        "rate_clamped_fraction": float(np.mean(raw < 0.0)),
    }
    return KeyRateResult(max(0.0, mean_raw), se, diag)


def relative_improvement(rate_tracked, rate_untracked):
    """Fractional rate gain of perfect tracking: 1 - untracked / tracked.

    rate_tracked is the perfectly tracked rate (residual wandering zero)
    and must be positive; equal rates give 0, a dead untracked channel
    gives 1.
    """
    if rate_tracked <= 0.0:
        raise DivisionByZeroRate(
            "perfectly tracked rate must be positive, got %g" % rate_tracked)
    return 1.0 - rate_untracked / rate_tracked


def mean_loss_db(mean_eta):
    """Mean channel loss in dB; deterministic losses are factors of
    mean_eta."""
    if mean_eta <= 0.0:
        raise DomainError("mean transmittance must be positive, got %g"
                          % mean_eta)
    return -10.0 * math.log10(mean_eta)
