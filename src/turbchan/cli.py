"""Command-line pipeline: scenario file to CSV tables plus a run manifest.

Each subcommand produces one table. CSV bodies are deterministic for a given
scenario and seed (comma-separated, LF endings, 9 significant digits); the
manifest records inputs, derived seeds, versions, cache activity and stage
diagnostics, with its timestamp being the only run-to-run variable part.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from .cache import cached_channel_stats_many, default_cache_dir
from .channel import rytov_parameter
from .config import Scenario, load_scenario
from .errors import (ApproximationBreakdown, ConfigError,
                     QuadratureNotConverged, TurbchanError)
from .kernels import KERNEL_VERSION
from .kernels.stats import StatsBudget
from .pdt import (composite_pdt_build, composite_pdt_density,
                  composite_pdt_sample)
from .qkd import averaged_key_rate, mean_loss_db, relative_improvement
from .tracking import (attenuated_squeezing_db, postselected_moments,
                       tracked_exceedance, tracked_pdt)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_BREAKDOWN = 4
EXIT_IO = 5

MANIFEST_FORMAT = "turbchan.run-manifest"
MANIFEST_VERSION = 1


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("turbchan")
    except Exception:
        return "unknown"


def _derived_seeds(seed: int) -> dict:
    """Per-stage seeds, additive offsets from the scenario seed.

    Sweep points reuse the same offsets; common random numbers across
    points smooth the sweep curve without linking the estimates.
    """
    return {"stats": seed, "qkd_samples": seed + 2}


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _eta_grid(step: float) -> np.ndarray:
    n = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, n + 1)


def _stats_many(scenario: Scenario, channels, args, seeds):
    """Channel stats through the cache, one batch; (stats, hit) per channel."""
    budget = StatsBudget.from_log2_total(scenario.budget_log2)
    return cached_channel_stats_many(channels, budget, seed=seeds["stats"],
                                     cache_dir=args.cache_dir,
                                     enabled=not args.no_cache)


def _stats(scenario: Scenario, channel, args, seeds):
    """Channel stats through the cache; returns (stats, cache hit flag)."""
    return _stats_many(scenario, [channel], args, seeds)[0]


def _law(scenario: Scenario, st, diag):
    """The channel's transmittance law; its family and, for a point mass,
    its atom go to the manifest."""
    law = composite_pdt_build(st, scenario.channel.aperture_radius)
    diag["pdt_family"] = law.family
    diag["pdt_atom"] = law.atom
    return law


def _table_stats(scenario, args, seeds, diag):
    channel = scenario.channel
    st, hit = _stats(scenario, channel, args, seeds)
    diag["stats"] = st.diagnostics
    header = ["scenario_id", "seed", "cn2", "length_m", "mean_eta",
              "se_mean_eta", "mean_eta2", "se_mean_eta2", "sigma_bw2",
              "se_sigma_bw2", "wst2", "rytov"]
    row = [scenario.scenario_id, scenario.seed, channel.cn2, channel.length,
           st.mean_eta, st.se_mean_eta, st.mean_eta2, st.se_mean_eta2,
           st.sigma_bw2, st.se_sigma_bw2, st.wst2, rytov_parameter(channel)]
    return header, [row], [hit]


def _table_pdt(scenario, args, seeds, diag):
    st, hit = _stats(scenario, scenario.channel, args, seeds)
    diag["stats"] = st.diagnostics
    law = _law(scenario, st, diag)
    grid = _eta_grid(scenario.eta_step)
    dens = composite_pdt_density(grid, law)
    header = ["scenario_id", "seed", "family", "eta", "density"]
    rows = [[scenario.scenario_id, scenario.seed, law.family, float(e),
             float(d)]
            for e, d in zip(grid, dens)]
    return header, rows, [hit]


def _table_exceedance(scenario, args, seeds, diag):
    st, hit = _stats(scenario, scenario.channel, args, seeds)
    diag["stats"] = st.diagnostics
    law = _law(scenario, st, diag)
    grid = _eta_grid(scenario.eta_step)
    header = ["scenario_id", "seed", "fraction", "eta", "density",
              "exceedance"]
    rows = []
    for f in scenario.tracking_fractions:
        tc = tracked_pdt(law, f, scenario.tracking_jitter2)
        dens = composite_pdt_density(grid, tc)
        exc = tracked_exceedance(grid, tc)
        rows.extend([scenario.scenario_id, scenario.seed, float(f), float(e),
                     float(d), float(x)]
                    for e, d, x in zip(grid, dens, exc))
    return header, rows, [hit]


def _table_squeezing(scenario, args, seeds, diag):
    st, hit = _stats(scenario, scenario.channel, args, seeds)
    diag["stats"] = st.diagnostics
    law = _law(scenario, st, diag)
    header = ["scenario_id", "seed", "fraction", "eta_min", "acceptance",
              "mean_eta_ps", "squeezing_db"]
    rows = []
    for f in scenario.tracking_fractions:
        tc = tracked_pdt(law, f, scenario.tracking_jitter2)
        for eta_min in scenario.postselection_eta_min:
            m1, _, acc = postselected_moments(tc, eta_min)
            sq = attenuated_squeezing_db(scenario.squeezing_input_db, m1)
            rows.append([scenario.scenario_id, scenario.seed, float(f),
                         float(eta_min), acc, m1, sq])
    return header, rows, [hit]


QKD_HEADER = ["scenario_id", "seed", "length_m", "family", "mean_loss_db",
              "rate", "rate_se", "rate_raw_mean", "rate_tracked",
              "improvement"]


def _qkd_point(scenario, channel, st, seeds):
    """One averaged-key-rate evaluation from the channel's stats.

    Returns (row, point diagnostics); it mutates nothing shared, so sweep
    points can run on concurrent threads.
    """
    ext = channel.extinction_eta
    n, seed = scenario.pdt_sample_count, seeds["qkd_samples"]
    law = composite_pdt_build(st, channel.aperture_radius)
    family = law.family
    res = averaged_key_rate(composite_pdt_sample(law, n, seed) * ext,
                            scenario.decoy)
    tracked = tracked_pdt(law, 1.0, scenario.tracking_jitter2)
    # A law without wandering has nothing to track: same law, same rate.
    res_t = res if tracked is law else averaged_key_rate(
        composite_pdt_sample(tracked, n, seed) * ext, scenario.decoy)
    rate_t = res_t.rate
    imp = relative_improvement(rate_t, res.rate) if rate_t > 0.0 else 0.0
    loss = mean_loss_db(st.mean_eta * ext)
    row = [scenario.scenario_id, scenario.seed, channel.length, family, loss,
           res.rate, res.std_error, res.diagnostics["raw_mean"], rate_t, imp]
    point_diag = {"length_m": channel.length, "family": family,
                  "mean_loss_db": loss, "stats": st.diagnostics,
                  "rate_diag": res.diagnostics}
    return row, point_diag


def _table_qkd(scenario, args, seeds, diag):
    st, hit = _stats(scenario, scenario.channel, args, seeds)
    row, point_diag = _qkd_point(scenario, scenario.channel, st, seeds)
    diag["points"] = [point_diag]
    return QKD_HEADER, [row], [hit]


def _table_sweep(scenario, args, seeds, diag):
    # One batched lookup: the missing lengths share one covariance pass.
    # The workers only parallelize the per-point downstream work.
    channels = [scenario.channel.replace(length=L)
                for L in scenario.sweep_lengths]
    looked_up = _stats_many(scenario, channels, args, seeds)
    stats = [st for st, _ in looked_up]
    workers = max(1, getattr(args, "workers", 1))

    def point(channel, st):
        return _qkd_point(scenario, channel, st, seeds)

    if workers == 1:
        results = list(map(point, channels, stats))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(point, channels, stats))
    diag["points"] = [d for _, d in results]
    return (QKD_HEADER, [row for row, _ in results],
            [hit for _, hit in looked_up])


_TABLES = {
    "stats": _table_stats,
    "pdt": _table_pdt,
    "exceedance": _table_exceedance,
    "squeezing": _table_squeezing,
    "qkd": _table_qkd,
    "sweep": _table_sweep,
}


def _run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.budget is not None:
        scenario = dataclasses.replace(scenario, budget_log2=args.budget)
    seeds = _derived_seeds(scenario.seed)
    diag = {}

    # Tables return one cache-hit flag per stats lookup.
    header, rows, hits = _TABLES[args.command](scenario, args, seeds, diag)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / ("%s_%s.csv" % (scenario.scenario_id, args.command))
    _write_csv(csv_path, header, rows)

    cache_dir = args.cache_dir if args.cache_dir else str(default_cache_dir())
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "table": args.command,
        "scenario_file": str(args.scenario),
        "scenario": dataclasses.asdict(scenario),
        "cli_overrides": {"seed": args.seed, "budget": args.budget,
                          "workers": getattr(args, "workers", 1)},
        "seeds": seeds,
        "versions": {"turbchan": _package_version(),
                     "kernel": KERNEL_VERSION,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "cache": {"enabled": not args.no_cache, "dir": cache_dir,
                  "hits": sum(hits), "misses": len(hits) - sum(hits)},
        "diagnostics": diag,
        "outputs": [csv_path.name],
        "written_at": time.time(),
    }
    manifest_path = out_dir / ("%s_%s_manifest.json"
                               % (scenario.scenario_id, args.command))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s and %s" % (csv_path, manifest_path))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbchan",
        description="Transmittance statistics and key rates for turbulent "
                    "free-space channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("stats", "aperture-transmittance moments of the channel"),
            ("pdt", "transmittance density on an eta grid"),
            ("exceedance", "density and exceedance per tracking fraction"),
            ("squeezing", "postselected squeezing per threshold"),
            ("qkd", "decoy-state key rate at the scenario channel"),
            ("sweep", "key rate versus propagation length")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.seed")
        p.add_argument("--budget", type=int, default=None,
                       help="override budget.log2_total")
        p.add_argument("--cache-dir", default=None,
                       help="stats cache directory (default: "
                            "TURBCHAN_CACHE_DIR or ~/.cache/turbchan)")
        p.add_argument("--no-cache", action="store_true",
                       help="compute without reading or writing the cache")
        p.add_argument("--out-dir", default=".",
                       help="directory for CSV and manifest output")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="threads for the per-point downstream work; "
                                "the stats of all lengths come from one "
                                "shared pass (results do not depend on "
                                "this)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureNotConverged as exc:
        print("convergence failure: %s" % exc, file=sys.stderr)
        return EXIT_CONVERGENCE
    except ApproximationBreakdown as exc:
        print("model breakdown: %s" % exc, file=sys.stderr)
        return EXIT_BREAKDOWN
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except TurbchanError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
