"""Fixed quadrature rules on [0, 1], built on first use and cached.

Every deterministic integral of the package runs on one of two rules:

* :func:`gauss_legendre`, the n-point Gauss-Legendre rule, for smooth
  integrands (the radial Gamma_2 functionals, the Rayleigh displacement
  averages, the composite mixture and the segment integral of the phase
  structure function);
* :func:`tanh_sinh`, a double-exponential rule, for integrands with
  near-singularities close to an endpoint (the beam-wandering path
  integral), whose node spacing shrinks double-exponentially there.

Both return read-only arrays that every caller shares.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Tanh-sinh step and truncation: nodes t = k h, |t| <= TANH_SINH_TMAX.
# At |t| = 3 a node lies 2e-14 from its endpoint, with weight below 1e-13.
TANH_SINH_STEP = 1.0 / 32.0
TANH_SINH_TMAX = 3.0
# Largest float64 Newton step at which the extended-precision step takes
# over; it leaves the nodes exact to far below one ulp.
NEWTON_HANDOVER = 1e-14


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _legendre(n, x):
    # P_n, P_{n-1} and P_{n-2} at x by the three-term recurrence.
    p2, p1, p0 = x, np.ones_like(x), np.ones_like(x)
    for j in range(2, n + 1):
        p2, p1, p0 = ((2 * j - 1) * x * p2 - (j - 1) * p1) / j, p2, p1
    return p2, p1, p0


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre recurrence from Tricomi's asymptotic
    nodes, in float64 until a step falls below NEWTON_HANDOVER, then one
    step in extended precision (np.longdouble), which also gives the weights
    2 (1 - x^2) / (n P_{n-1}(x))^2 at the refined nodes. Nodes and weights
    are exact to about one ulp. scipy's weights are off by 5e-11 to 2e-9
    relative at 128-512 nodes (enough to move the vacuum mean transmittance
    of a 4 cm aperture at 1 km by 3e-14), and numpy's by 58 ulp at 8 nodes
    and 472 ulp at 32. It costs about 0.01 s at 512 nodes, 0.03 s at 1024
    and 1.3 s at 8192.
    """
    if n < 1:
        raise ValueError("order must be >= 1, got %d" % n)
    m = (n + 1) // 2
    theta = math.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(theta)
    for _ in range(20):
        p, p1, _ = _legendre(n, x)
        step = p * (1.0 - x) * (1.0 + x) / (n * (p1 - x * p))
        x = x - step
        if np.max(np.abs(step)) <= NEWTON_HANDOVER:
            break
    one = np.longdouble(1.0)
    x = x.astype(np.longdouble)
    p, p1, p0 = _legendre(n, x)
    s = (one - x) * (one + x)
    step = p * s / (n * (p1 - x * p))
    # P_{n-1} at the stepped node, to first order in the step (~1e-16).
    p1 = p1 - (n - 1) * (p0 - x * p1) / s * step
    x = x - step
    w = 2.0 * (one - x) * (one + x) / (n * p1) ** 2
    x, w = x.astype(np.float64), w.astype(np.float64)
    # x falls from near 1 to 0 (the middle node of an odd rule): mirror.
    k = m - n % 2
    nodes = np.concatenate([-x, x[k - 1::-1]]) if k else -x
    weights = np.concatenate([w, w[k - 1::-1]]) if k else w
    return _read_only(0.5 * (nodes + 1.0), 0.5 * weights)


@functools.lru_cache(maxsize=1)
def tanh_sinh():
    """Nodes and weights of the tanh-sinh rule on [0, 1].

    x_k = (1 + tanh(pi/2 sinh(k h))) / 2 for k = -N..N, with h =
    TANH_SINH_STEP and N h = TANH_SINH_TMAX (193 nodes). N is even, so the
    even-indexed nodes with doubled weights, ``2 * w[::2]``, form the nested
    rule with step 2h; the difference of the two estimates is the rule's
    error bound.
    """
    m = round(TANH_SINH_TMAX / TANH_SINH_STEP)
    t = TANH_SINH_STEP * np.arange(-m, m + 1)
    u = 0.5 * math.pi * np.sinh(t)
    # (1 + tanh u) / 2 written as a logistic, exact to rounding near 0.
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    w = TANH_SINH_STEP * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return _read_only(x, w)
