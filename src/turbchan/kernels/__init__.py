"""Correlation-function kernels and channel statistics.

The pointwise correlations ``gamma2`` and ``gamma4`` are not re-exported
here, so ``turbchan.kernels.gamma2`` and ``turbchan.kernels.gamma4`` stay
the modules; the package exports the functions as ``turbchan.gamma2`` and
``turbchan.gamma4``.
"""

import numpy as np

from .gamma4 import QmcResult, aperture_cov_qmc, aperture_cov_qmc_many
from .stats import BeamStats, StatsBudget, channel_stats, channel_stats_many

# Bumped whenever a kernel change alters numerical output; part of the
# stats-cache key.
KERNEL_VERSION = "8"


def simd_dispatch():
    """numpy's SIMD dispatch, which picks the float32 cos, sin and power
    loops of the covariance scan: the baseline it was built for and the
    features found beyond it ("found" is absent when there are none). None
    before numpy 1.25, which cannot report it as data."""
    try:
        ext = np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:
        return None
    return {"baseline": ext["baseline"], "found": ext.get("found", [])}


def dispatch_class():
    """The class of hosts whose covariance scans give the same bits: the
    highest X86_V* level in :func:`simd_dispatch`; where numpy names no
    such level, all of its features joined by spaces; None where numpy
    cannot report them. Part of the stats-cache key, beside
    KERNEL_VERSION."""
    simd = simd_dispatch()
    if simd is None:
        return None
    features = simd["baseline"] + simd["found"]
    levels = [f for f in features if f.startswith("X86_V")]
    return max(levels) if levels else " ".join(features)


__all__ = [
    "aperture_cov_qmc", "aperture_cov_qmc_many", "QmcResult", "BeamStats",
    "StatsBudget", "channel_stats", "channel_stats_many", "KERNEL_VERSION",
    "dispatch_class", "simd_dispatch",
]
