"""Correlation-function kernels and channel statistics."""

from .structure_function import phase_structure_function
from .gamma2 import gamma2, gamma2_metadata
from .gamma4 import QmcResult, aperture_cov_qmc, aperture_cov_qmc_many, gamma4
from .stats import (BeamStats, StatsBudget, channel_stats, channel_stats_many,
                    eta2_qmc)

# Bumped whenever a kernel change alters numerical output; part of the
# stats-cache key.
KERNEL_VERSION = "4"

__all__ = [
    "phase_structure_function", "gamma2", "gamma2_metadata",
    "gamma4", "aperture_cov_qmc", "aperture_cov_qmc_many", "eta2_qmc",
    "QmcResult", "BeamStats", "StatsBudget", "channel_stats",
    "channel_stats_many", "KERNEL_VERSION",
]
