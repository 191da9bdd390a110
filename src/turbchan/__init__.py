"""Numerical toolkit for turbulent free-space optical quantum channels."""

__version__ = "0.1.0"

from .channel import ChannelParams, rytov_parameter
from .kernels import BeamStats, StatsBudget, channel_stats, channel_stats_many
from .kernels.gamma2 import gamma2
from .kernels.gamma4 import gamma4
from .pdt import (CompositeMoments, CompositePdt, TruncLogNormal,
                  WeibullParams, composite_moments, composite_mu,
                  composite_pdt_build, composite_pdt_density,
                  composite_pdt_sample, composite_rule,
                  trunc_lognormal_sample, weibull_params)
from .tracking import (postselected_moments, tracked_exceedance, tracked_pdt,
                       transmitted_squeezing_db)
from .qkd import (DecoyParams, KeyRateResult, averaged_key_rate,
                  binary_entropy, gain, key_rate_integrand, mean_loss_db,
                  one_photon_gain_lower, qber, relative_improvement)
from .config import Scenario, load_scenario
from .cache import (cached_channel_stats_many, default_cache_dir,
                    stats_cache_get, stats_cache_put, stats_key)

__all__ = [
    "__version__",
    "ChannelParams", "rytov_parameter",
    "BeamStats", "StatsBudget", "channel_stats", "channel_stats_many",
    "gamma2", "gamma4",
    "WeibullParams", "weibull_params",
    "TruncLogNormal", "trunc_lognormal_sample",
    "CompositePdt", "CompositeMoments", "composite_pdt_build",
    "composite_pdt_density", "composite_pdt_sample", "composite_mu",
    "composite_moments", "composite_rule",
    "tracked_pdt", "tracked_exceedance", "postselected_moments",
    "transmitted_squeezing_db",
    "DecoyParams", "KeyRateResult", "binary_entropy", "gain", "qber",
    "one_photon_gain_lower", "key_rate_integrand", "averaged_key_rate",
    "relative_improvement", "mean_loss_db",
    "Scenario", "load_scenario",
    "stats_key", "stats_cache_get", "stats_cache_put",
    "cached_channel_stats_many", "default_cache_dir",
]
