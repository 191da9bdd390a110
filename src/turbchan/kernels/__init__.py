"""Correlation-function kernels and channel statistics.

The pointwise correlations ``gamma2`` and ``gamma4`` are not re-exported
here, so ``turbchan.kernels.gamma2`` and ``turbchan.kernels.gamma4`` stay
the modules; the package exports the functions as ``turbchan.gamma2`` and
``turbchan.gamma4``.
"""

from .gamma4 import QmcResult, aperture_cov_qmc, aperture_cov_qmc_many
from .stats import BeamStats, StatsBudget, channel_stats, channel_stats_many

# Bumped whenever a kernel change alters numerical output; part of the
# stats-cache key.
KERNEL_VERSION = "7"

__all__ = [
    "aperture_cov_qmc", "aperture_cov_qmc_many", "QmcResult", "BeamStats",
    "StatsBudget", "channel_stats", "channel_stats_many", "KERNEL_VERSION",
]
