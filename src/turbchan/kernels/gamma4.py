"""Fourth-order field correlation and the transmittance covariance integral.

The intensity-intensity correlation of the focused beam is a 6-D source-plane
integral with a Gaussian envelope exp(-sum |r_i'|^2 / W0^2), an oscillatory
phase coupling the receiver offsets u = r1 - r2 and v = r1 + r2 to two of the
source variables, and a grouped structure-function exponent

    S = [ D_S(u, r1'-r2') + D_S(u, r1'+r2') - D_S(u, r1'-r3')
        - D_S(u, r1'+r3') - D_S(0, r2'-r3') - D_S(0, r2'+r3') ] / 2.

S is invariant under r2' -> -r2' alone and under r3' -> -r3' alone (the terms
swap pairwise), so averaging the phase factor over the sign group replaces it
exactly by cos(beta u.r2') cos(beta v.r3'): the integrand used here is real by
construction and carries no imaginary residue to discard.

A second exact reduction controls the variance. Writing the product of two
mean intensities on the same variables (substitute w1 = r3' + r2',
w2 = r3' - r2' in the two independent source integrals) reproduces the same
Gaussian envelope and the same phase, with exponent

    S2 = -[ D_S(0, r2'-r3') + D_S(0, r2'+r3') ] / 2,

which is exactly the u-independent pair of terms inside S. Sampling
h (e^S - e^{S2}) with h the symmetrized phase therefore estimates
Gamma_4 - Gamma_2 Gamma_2 directly: the integrand vanishes identically in
vacuum, is bounded by 1, and is exponentially damped in the region where the
raw phase oscillation dominates. Fourth-order values are then assembled as
product-of-mean-intensities plus the sampled covariance part; the same
estimator folded over the two aperture integrals (10 dimensions total) gives
the flux variance integral for the mean-square transmittance.

Evaluation is randomized quasi-Monte Carlo: scrambled digital (Sobol) points,
with the Gaussian envelope absorbed into the sampling density of the source
variables (importance sampling) and uniform polar disk sampling for the
aperture points. Every estimate averages REPLICATES (16) independently
scrambled replicates, whose scatter gives its standard error. The points
come from :func:`sobol_points`: Joe-Kuo direction numbers at 30 bits,
linear matrix scrambling plus a digital shift (Matousek, J. Complexity 14,
527, 1998), in Gray-code order. They equal the points of SciPy's qmc.Sobol
bit for bit, but are built here in numpy, so they no longer depend on the
installed scipy version. Each replicate streams its points one CHUNK
(8192 points) at a time, so its point memory does not grow with the point
count, and the replicates run on a pool of up to min(REPLICATES, CPUs)
threads. Seeds are spawned before the pool starts, chunk boundaries are
fixed and results are collected in replicate order, so every estimate is
the same to the bit on any number of threads. The plain centered estimator
h expm1(S) with the closed-form vacuum control variate was measured 10x
noisier on a Rytov-1.7 configuration and is not used.

The scan has three parts. A point map per mode (:func:`_disk_map`, ten
columns; :func:`_fixed_map`, six) splits a chunk of points into the offsets
u, v and the source columns. :func:`_shared_terms` computes S1 and S21 at
unit prefactor and u.r2', v.r3' once per chunk for every channel of a pass
(common w0 and aperture, so common random numbers). :func:`_channel_sums`
reduces one channel, which enters only through the prefactor 2 Cn2 k^2 L of
S1 and S21 and beta = k/L in the cosines, whatever else shares the pass.

The trigonometry runs in float32: the reduction's phases, their cosines and
their product h, and the disk map's cosines and sines. The radii, ndtri,
the exponents, both exponentials and every sum stay float64. On a 2-core
AVX-512 Xeon this took the reduction from 41% of the scan past the Sobol
points (360 us per chunk and channel, most of it two float64 np.cos calls)
to 16% (70 us), and the disk map from 870 to 250 us per chunk; the shared
terms, mostly ds_segment, now set the cost of a sweep. Each float32 step
rounds to a relative 2^-24, so the phase error grows with |phase|: on fig2
at 1 km the phase reaches 41 rad and h moves by at most 2.1e-6. Against
the float64 scan on the same points no fig2 covariance moved by more than
1.0e-5 of its standard error.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from ..channel import ChannelParams
from ..quadrature import gauss_legendre
from .gamma2 import check_finite, gamma2
from .structure_function import ds_colinear, ds_prefactor, ds_segment

# Points per generated Sobol block and per evaluation block. Fixed, so that
# every reduction sums the same blocks in the same order on any number of
# threads; a replicate holds one block of points at a time.
CHUNK_BITS = 13
CHUNK = 1 << CHUNK_BITS
DEFAULT_LOG2_POINTS = 16
REPLICATES = 16  # independently scrambled Sobol streams per estimate
# Gauss-Legendre nodes of the structure-function rule of the sampled
# segments. Against 32 nodes on the same points it moves the flux covariance
# by at most 0.023 standard errors at 1-16 km and makes aperture_cov_qmc
# about 1.9x faster; its quadrature error is tabulated in the
# structure_function module docstring.
SEGMENT_NODES = 8


def qmc_threads() -> int:
    """Threads that run the replicates: the usable CPUs, at most REPLICATES."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(REPLICATES, cpus)


@dataclass(frozen=True)
class QmcResult:
    """Estimate with replicate standard error and convergence diagnostics."""
    value: float
    std_error: float
    diagnostics: dict = field(default_factory=dict)


def grouped_exponent(ux, uy, r1x, r1y, r2x, r2y, r3x, r3y):
    """The grouped exponent S (non-positive up to noise) and its pair part S2.

    S2 is the exponent of the product of two mean intensities in the same
    variables; S is S2 plus the four u-dependent segment terms, so the
    colinear pair terms are evaluated once for both. Returns (S, S2), both
    at unit prefactor.
    """
    nodes, weights = gauss_legendre(SEGMENT_NODES)
    s2 = -0.5 * (ds_colinear(np.hypot(r2x - r3x, r2y - r3y), 1.0)
                 + ds_colinear(np.hypot(r2x + r3x, r2y + r3y), 1.0))
    d = ds_segment(ux, uy, r1x - r2x, r1y - r2y, 1.0, nodes, weights)
    d += ds_segment(ux, uy, r1x + r2x, r1y + r2y, 1.0, nodes, weights)
    d -= ds_segment(ux, uy, r1x - r3x, r1y - r3y, 1.0, nodes, weights)
    d -= ds_segment(ux, uy, r1x + r3x, r1y + r3y, 1.0, nodes, weights)
    return s2 + 0.5 * d, s2


# Joe-Kuo direction numbers (new-joe-kuo-6.21201; Joe & Kuo, SIAM J. Sci.
# Comput. 30, 2635, 2008) of the ten dimensions in use: the primitive
# polynomial of each dimension and its initial values m_1..m_deg.
SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47)
SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
               (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
               (1, 1, 7, 11, 19))
SOBOL_BITS = 30
_LOW_FIRST = np.arange(SOBOL_BITS, dtype=np.uint32)
_TOP_FIRST = _LOW_FIRST[::-1]


def _direction_numbers():
    """Unscrambled direction numbers, shape (10, SOBOL_BITS), uint32.

    Bratley-Fox recurrence on each dimension's primitive polynomial, with
    column j holding v_j shifted up to bit SOBOL_BITS - 1 - j; the first
    dimension is the van der Corput sequence.
    """
    table = [[1] * SOBOL_BITS]
    for poly, init in zip(SOBOL_POLY[1:], SOBOL_VINIT[1:]):
        deg = len(init)
        v = list(init)
        for j in range(deg, SOBOL_BITS):
            new = v[j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        table.append(v)
    return np.array(table, dtype=np.uint32) << _TOP_FIRST


_DIRECTIONS = _direction_numbers()


def sobol_points(dim, log2_points, seed_seq):
    """The 2^log2_points scrambled Sobol points in [0, 1)^dim, float64,
    yielded as point-major blocks of at most CHUNK points.

    Linear matrix scrambling plus a digital shift, drawn from the first
    child of ``seed_seq`` in this order: the dim x 30 shift bits, then dim
    lower-triangular 30 x 30 bit matrices with a unit diagonal. Bit p from
    the top of a scrambled direction number is the parity of matrix row p
    AND the unscrambled number. Point i is the shift XORed with the
    scrambled direction numbers of the set bits of gray(i) = i ^ (i >> 1).
    Concatenated, the blocks are SciPy's qmc.Sobol(dim, scramble=True,
    rng=default_rng(seed_seq)).random_base2(log2_points) bit for bit, for a
    ``seed_seq`` not yet spawned from; unlike that call, this one does not
    spawn from ``seed_seq``, so equal arguments give equal points.

    Only the first block is built, by Gray-code doubling. For lo a multiple
    of CHUNK and j < CHUNK, gray(lo + j) = gray(lo) ^ gray(j), so the block
    at lo is the first block XORed with the direction numbers of the set
    bits of gray(lo); lo >> 1 contributes bit CHUNK_BITS - 1 to those.

    Raises ValueError before the first block when log2_points is negative
    or exceeds SOBOL_BITS: the direction numbers give 2^SOBOL_BITS distinct
    points.
    """
    if not 0 <= log2_points <= SOBOL_BITS:
        raise ValueError("2^0 to 2^%d Sobol points, got 2^%d"
                         % (SOBOL_BITS, log2_points))
    child = np.random.SeedSequence(seed_seq.entropy,
                                   spawn_key=seed_seq.spawn_key + (0,),
                                   pool_size=seed_seq.pool_size)
    rng = np.random.Generator(np.random.PCG64(child))
    shift = (rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32)
             << _LOW_FIRST).sum(axis=1, dtype=np.uint32)
    lower = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS),
                                 dtype=np.uint32), -1)
    lower |= np.eye(SOBOL_BITS, dtype=np.uint32)
    rows = (lower << _TOP_FIRST).sum(axis=2, dtype=np.uint32)
    x = rows[:, :, None] & _DIRECTIONS[:dim, None, :]
    for s in (16, 8, 4, 2, 1):  # XOR-fold to the parity in bit 0
        x ^= x >> np.uint32(s)
    directions = ((x & np.uint32(1)) << _TOP_FIRST[:, None]).sum(
        axis=1, dtype=np.uint32)
    # Built per dimension (contiguous rows), yielded point-major like scipy.
    first_bits = min(log2_points, CHUNK_BITS)
    first = np.empty((dim, 1 << first_bits), dtype=np.uint32)
    first[:, 0] = shift
    for k in range(first_bits):
        h = 1 << k
        np.bitwise_xor(first[:, h - 1::-1], directions[:, k:k + 1],
                       out=first[:, h:2 * h])
    for lo in range(0, 1 << log2_points, CHUNK):
        gray = lo ^ (lo >> 1)
        offset = np.zeros((dim, 1), dtype=np.uint32)
        for k in range(log2_points):
            if gray >> k & 1:
                offset ^= directions[:, k:k + 1]
        block = np.empty(first.shape[::-1])
        np.multiply((first ^ offset).T, 1.0 / (1 << SOBOL_BITS), out=block)
        yield block


def _disk_map(radius):
    """Aperture point map (dim, split): split(p) folds four of the ten
    columns into uniform points x1, x2 of the disk, taking the cosines and
    sines of their angles in float32, and returns (ux, uy, vx, vy, source
    columns), u = x1 - x2 and v = x1 + x2."""
    def split(p):
        rad1 = radius * np.sqrt(p[:, 0])
        th1 = (2.0 * math.pi * p[:, 1]).astype(np.float32)
        rad2 = radius * np.sqrt(p[:, 2])
        th2 = (2.0 * math.pi * p[:, 3]).astype(np.float32)
        x1, y1 = rad1 * np.cos(th1), rad1 * np.sin(th1)
        x2, y2 = rad2 * np.cos(th2), rad2 * np.sin(th2)
        return x1 - x2, y1 - y2, x1 + x2, y1 + y2, p[:, 4:]
    return 10, split


def _fixed_map(uv):
    """Pointwise point map (dim, split) at fixed uv = (ux, uy, vx, vy)."""
    return 6, lambda p: (*uv, p)


def _shared_terms(ux, uy, vx, vy, cols, w0):
    """S1, S21 (unit prefactor), u.r2' and v.r3' of a chunk. The source
    columns map to N(0, w0^2/2) per axis by the inverse CDF, clipped away
    from the endpoints where ndtri diverges."""
    g = ndtri(np.clip(cols, 1e-13, 1.0 - 1e-13)) * (w0 / math.sqrt(2.0))
    s1, s21 = grouped_exponent(ux, uy, *g.T)
    return s1, s21, ux * g[:, 2] + uy * g[:, 3], vx * g[:, 4] + vy * g[:, 5]


def _channel_sums(s1, s21, au, av, pref, beta):
    """One channel's sums over a chunk of z = h (e^S - e^{S2}): sum z,
    sum z^2 and the count of S > 1e-12, with S = pref S1, S2 = pref S21
    and h = cos(beta u.r2') cos(beta v.r3'). h is formed in float32, the
    exponentials and sums in float64."""
    s = pref * s1
    h = np.multiply(au, beta, dtype=np.float32)
    np.cos(h, out=h)
    cv = np.multiply(av, beta, dtype=np.float32)
    h *= np.cos(cv, out=cv)
    z = np.exp(s)
    z -= np.exp(pref * s21)
    z *= h
    return np.sum(z), np.sum(z * z), np.count_nonzero(s > 1e-12)


def _scan_chunks(blocks, channels, split):
    """One replicate's scan of ``blocks`` (at most CHUNK points each)
    through the point map's ``split``: the largest S1, and per channel its
    :func:`_channel_sums` added chunk by chunk."""
    scales = [(ds_prefactor(c), c.k / c.length) for c in channels]
    sums = np.zeros((len(channels), 3))
    s1_max = -math.inf
    for p in blocks:
        shared = _shared_terms(*split(p), channels[0].w0)
        s1_max = max(s1_max, float(np.max(shared[0])))
        for acc, sc in zip(sums, scales):
            acc += _channel_sums(*shared, *sc)
    return s1_max, sums.tolist()


def _run_replicates(channels, point_map, log2_points, seed):
    """One (value, se, diagnostics) per channel from REPLICATES scans, each
    channel seeing the same scrambled points, mapped by ``point_map`` =
    (dim, split) of :func:`_disk_map` or :func:`_fixed_map`. The scans run
    on :func:`qmc_threads` threads, which overlap because numpy releases the
    interpreter lock inside its loops; seeds spawned here and results taken
    in replicate order keep every bit independent of the thread count.
    """
    dim, split = point_map

    def replicate(seed_seq):
        return _scan_chunks(sobol_points(dim, log2_points, seed_seq),
                            channels, split)

    seed_seqs = np.random.SeedSequence(seed).spawn(REPLICATES)
    with ThreadPoolExecutor(max_workers=qmc_threads()) as pool:
        runs = list(pool.map(replicate, seed_seqs))
    n = 2 ** log2_points
    s1_max = max(m for m, _ in runs)
    out = []
    for params, acc in zip(channels, zip(*(sums for _, sums in runs))):
        means = np.asarray([total / n for total, _, _ in acc])
        value = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(REPLICATES))
        diagnostics = {
            "points": REPLICATES * n,
            "replicates": REPLICATES,
            "log2_points": log2_points,
            "positive_s_fraction": sum(pos for _, _, pos in acc)
                                   / (REPLICATES * n),
            "s_max": ds_prefactor(params) * s1_max,  # rounding is monotone
            "integrand_std": max(
                math.sqrt(max(sq / n - (total / n) ** 2, 0.0))
                for total, sq, _ in acc),
            "gl_nodes": SEGMENT_NODES,
        }
        out.append((value, se, diagnostics))
    return out


def vacuum_gamma2(r2, params: ChannelParams) -> float:
    """Closed-form vacuum mean intensity at squared radius r2."""
    pref = params.k ** 2 * params.w0 ** 2 / (2.0 * math.pi * params.length ** 2)
    return pref * math.exp(-2.0 * r2 / params.w_vac ** 2)


def _vacuum_result(value: float) -> QmcResult:
    return QmcResult(value, 0.0, {"points": 0, "replicates": 0,
                                  "vacuum_closed_form": True})


def gamma4(r1, r2, params: ChannelParams,
           log2_points: int = 14, seed: int = 0) -> QmcResult:
    """Intensity correlation at receiver offsets (r1, r2), in m^-4.

    Assembled as the product of the two mean intensities plus the sampled
    covariance part, on REPLICATES replicates of 2^log2_points points
    each; for cn2 = 0 the covariance integrand is identically zero
    and the exact factorized vacuum value is returned with zero standard
    error. The quoted error covers the sampled part only. The mean-intensity
    factors come from :func:`gamma2`, whose error against the adaptive
    reference stays below 1e-6 of its pointwise tolerance; gamma4 raises
    QuadratureNotConverged only where gamma2 does, past the node cap of its
    Hankel rule (|r| > 59 m at 1 km for the fig2 beam), and DomainError for
    a coordinate that is not finite.
    """
    check_finite(r1)
    check_finite(r2)
    ux, uy = float(r1[0] - r2[0]), float(r1[1] - r2[1])
    vx, vy = float(r1[0] + r2[0]), float(r1[1] + r2[1])
    pref4 = params.k ** 4 * params.w0 ** 4 / (4.0 * math.pi ** 2 * params.length ** 4)
    if ds_prefactor(params) == 0.0:
        return _vacuum_result(
            vacuum_gamma2(float(r1[0]) ** 2 + float(r1[1]) ** 2, params)
            * vacuum_gamma2(float(r2[0]) ** 2 + float(r2[1]) ** 2, params))
    product = gamma2(r1, params) * gamma2(r2, params)
    [(mean, se, diag)] = _run_replicates(
        [params], _fixed_map((ux, uy, vx, vy)), log2_points, seed)
    diag["pair_product"] = product
    return QmcResult(product + pref4 * mean, pref4 * se, diag)


def aperture_cov_qmc_many(channels, log2_points: int = DEFAULT_LOG2_POINTS,
                          seed: int = 0) -> list:
    """Flux covariance of several channels in one pass over shared points.

    Returns one :func:`aperture_cov_qmc` result per channel, each bit for bit
    the value of a one-channel call: the channels see the same scrambled
    points, and each chunk's shared terms are computed once. Vacuum channels
    get the closed form without sampling.

    Raises
    ------
    ValueError
        If the channels do not share w0 and aperture_radius, which fix the
        sampled coordinates.
    """
    channels = list(channels)
    if len({(c.w0, c.aperture_radius) for c in channels}) > 1:
        raise ValueError("a shared covariance pass needs one w0 and one "
                         "aperture radius")
    turbulent = [c for c in channels if ds_prefactor(c) != 0.0]
    sampled = iter(_run_replicates(
        turbulent, _disk_map(turbulent[0].aperture_radius), log2_points, seed)
        if turbulent else ())
    out = []
    for params in channels:
        if ds_prefactor(params) == 0.0:
            out.append(_vacuum_result(0.0))
            continue
        a = params.aperture_radius
        t = 2.0 * a * a / params.w_vac ** 2
        amp = t * t  # (pi a^2)^2 * pref4 * (pi W0^2)^3, the folded-weight scale
        mean, se, diag = next(sampled)
        out.append(QmcResult(amp * mean, amp * se, diag))
    return out


def aperture_cov_qmc(params: ChannelParams,
                     log2_points: int = DEFAULT_LOG2_POINTS,
                     seed: int = 0) -> QmcResult:
    """Flux covariance: double aperture integral of Gamma_4 - Gamma_2 Gamma_2.

    Ten dimensions per point: four fold the two aperture integrals through
    uniform polar disk sampling (avoiding nested quadrature error
    compounding), six sample the Gaussian source variables. The mean-square
    transmittance is this value plus the squared mean transmittance.
    """
    return aperture_cov_qmc_many([params], log2_points, seed)[0]
