"""Command-line pipeline: scenario file to CSV tables plus a run manifest.

Each subcommand produces one table from a channel list and a rows function
of those channels' stats; _run looks the stats up in one batch, so only it
touches the stats cache. A rows function returns only its own columns and
values; _run owns the CSV layout and leads the header and every row with
scenario_id and seed. A lookup that misses also fills the cache for every
other channel of the scenario (the scenario channel and each sweep length)
in the same covariance pass, so the tables after the first only read; a
failure of one of those other channels never fails the table. CSV bodies
are deterministic for a given scenario and seed (comma-separated, LF
endings, 9 significant digits); the manifest records inputs, the seed,
versions, cache activity, stage diagnostics and timings; its timestamp and
timings are the only parts that vary from run to run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cache import cached_channel_stats_many, default_cache_dir
from .channel import rytov_parameter
from .config import load_scenario
from .errors import (ApproximationBreakdown, ConfigError,
                     QuadratureNotConverged, TurbchanError)
from .kernels import KERNEL_VERSION, simd_dispatch
from .kernels.gamma4 import qmc_threads
from .kernels.stats import StatsBudget
from .pdt import composite_pdt_build, composite_pdt_density, composite_rule
from .qkd import averaged_key_rate, mean_loss_db, relative_improvement
from .tracking import (attenuated_squeezing_db, postselected_moments,
                       tracked_exceedance, tracked_pdt)

# (error class, exit code, stderr label); main reports the first match.
EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (QuadratureNotConverged, 3, "convergence failure"),
    (ApproximationBreakdown, 4, "model breakdown"),
    (OSError, 5, "i/o error"),
    (TurbchanError, 1, "error"),
)

MANIFEST_FORMAT = "turbchan.run-manifest"
MANIFEST_VERSION = 1


def _write_csv(path: Path, scenario, header, rows) -> None:
    """The table behind scenario_id and seed on every line: floats at 9
    significant digits, anything else as str.  Every row of a table has the
    value types of its first, so the first row's types give one template."""
    lead = "%s,%s," % (scenario.scenario_id, scenario.seed)
    template = ",".join("%.9g" if isinstance(v, float) else "%s"
                        for v in rows[0]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scenario_id,seed," + ",".join(header) + "\n")
        fh.writelines(lead + template % tuple(row) for row in rows)


def _eta_grid(step: float) -> np.ndarray:
    n = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, n + 1)


def _one_channel(scenario):
    return [scenario.channel]


def _squeezing_channels(scenario):
    if not scenario.postselection_eta_min:
        raise ConfigError("the squeezing table needs thresholds",
                          field="postselection.eta_min")
    if not scenario.squeezing_input_db < 0.0:
        raise ConfigError("input squeezing must be negative dB",
                          field="squeezing.input_db")
    return [scenario.channel]


def _sweep_points(scenario):
    return [scenario.channel.replace(length=L)
            for L in scenario.sweep_lengths]


def _sweep_channels(scenario):
    if not scenario.sweep_lengths:
        raise ConfigError("the sweep table needs lengths",
                          field="sweep.lengths")
    return _sweep_points(scenario)


def _window(law, st):
    """Where a law sits against the Weibull window: a/W_ST, which picks its
    family (pdt.RATIO_RANGE), and sigma_bw^2/W_ST^2."""
    return {"aperture_ratio": law.weibull.ratio,
            "wander_ratio2": st.sigma_bw2 / st.wst2}


def _law(looked_up, diag):
    """The one channel's transmittance law; its stats, family, the atom of
    a point mass and its window ratios go to the manifest."""
    (channel, st), = looked_up
    law = composite_pdt_build(st, channel.aperture_radius)
    diag.update(stats=st.diagnostics, pdt_family=law.family,
                pdt_atom=law.atom, **_window(law, st))
    return law


def _stats_rows(scenario, looked_up, diag):
    (channel, st), = looked_up
    diag["stats"] = st.diagnostics
    header = ["cn2", "length_m", "mean_eta", "se_mean_eta", "mean_eta2",
              "se_mean_eta2", "sigma_bw2", "se_sigma_bw2", "wst2", "rytov"]
    row = [channel.cn2, channel.length, st.mean_eta, st.se_mean_eta,
           st.mean_eta2, st.se_mean_eta2, st.sigma_bw2, st.se_sigma_bw2,
           st.wst2, rytov_parameter(channel)]
    return header, [row]


def _pdt_rows(scenario, looked_up, diag):
    law = _law(looked_up, diag)
    grid = _eta_grid(scenario.eta_step)
    dens = composite_pdt_density(grid, law)
    return ["family", "eta", "density"], [
        [law.family, e, d] for e, d in zip(grid, dens)]


def _exceedance_rows(scenario, looked_up, diag):
    law = _law(looked_up, diag)
    grid = _eta_grid(scenario.eta_step)
    rows = []
    for f in scenario.tracking_fractions:
        tc = tracked_pdt(law, f, scenario.tracking_jitter2)
        dens = composite_pdt_density(grid, tc)
        exc = tracked_exceedance(grid, tc)
        rows.extend([f, e, d, x] for e, d, x in zip(grid, dens, exc))
    return ["fraction", "eta", "density", "exceedance"], rows


def _squeezing_rows(scenario, looked_up, diag):
    law = _law(looked_up, diag)
    rows = []
    for f in scenario.tracking_fractions:
        tc = tracked_pdt(law, f, scenario.tracking_jitter2)
        for eta_min in scenario.postselection_eta_min:
            m1, _, acc = postselected_moments(tc, eta_min)
            sq = attenuated_squeezing_db(scenario.squeezing_input_db, m1)
            rows.append([f, eta_min, acc, m1, sq])
    return ["fraction", "eta_min", "acceptance", "mean_eta_ps",
            "squeezing_db"], rows


QKD_HEADER = ["length_m", "family", "mean_loss_db", "rate", "rate_raw_mean",
              "rate_tracked", "improvement"]


def _key_rate(law, ext, decoy):
    """The key rate over the law's rule, its points scaled by ext."""
    eta, w = composite_rule(law)
    return averaged_key_rate(eta * ext, w, decoy)


def _qkd_point(scenario, channel, st):
    """One averaged-key-rate evaluation from the channel's stats; returns
    (row, point diagnostics)."""
    ext = channel.extinction_eta
    law = composite_pdt_build(st, channel.aperture_radius)
    family = law.family
    res = _key_rate(law, ext, scenario.decoy)
    rate_t = _key_rate(tracked_pdt(law, 1.0, scenario.tracking_jitter2),
                       ext, scenario.decoy).rate
    imp = relative_improvement(rate_t, res.rate) if rate_t > 0.0 else 0.0
    loss = mean_loss_db(st.mean_eta * ext)
    row = [channel.length, family, loss, res.rate, res.diagnostics["raw_mean"],
           rate_t, imp]
    point_diag = {"length_m": channel.length, "family": family,
                  "mean_loss_db": loss, "stats": st.diagnostics,
                  "rate_diag": res.diagnostics, **_window(law, st)}
    return row, point_diag


def _qkd_rows(scenario, looked_up, diag):
    """The key-rate table, one row per channel, in the order of the
    lengths."""
    results = [_qkd_point(scenario, *pair) for pair in looked_up]
    diag["points"] = [d for _, d in results]
    return QKD_HEADER, [row for row, _ in results]


# name: (help, channel list, rows function).  The channel list checks the
# keys the table needs before any stats lookup; the rows function gets
# (channel, stats) pairs and does no I/O.
_TABLES = {
    "stats": ("aperture-transmittance moments of the channel",
              _one_channel, _stats_rows),
    "pdt": ("transmittance density on an eta grid", _one_channel, _pdt_rows),
    "exceedance": ("density and exceedance per tracking fraction",
                   _one_channel, _exceedance_rows),
    "squeezing": ("postselected squeezing per threshold",
                  _squeezing_channels, _squeezing_rows),
    "qkd": ("decoy-state key rate at the scenario channel", _one_channel,
            _qkd_rows),
    "sweep": ("key rate versus propagation length", _sweep_channels,
              _qkd_rows),
}


def _run(args) -> int:
    # sweep --workers has no effect: it is only range-checked and recorded.
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ConfigError("workers must be >= 1", field="--workers")
    overrides = {"scenario.seed": args.seed, "budget.log2_total": args.budget}
    scenario = load_scenario(args.scenario, {
        key: str(value) for key, value in overrides.items()
        if value is not None})
    _, channels_of, rows_of = _TABLES[args.command]
    channels = channels_of(scenario)
    t0 = time.perf_counter()
    # One batched lookup: the missing channels, and the scenario's other
    # channels, which share w0 and the aperture, share one covariance pass.
    looked_up = cached_channel_stats_many(
        channels, StatsBudget(scenario.budget_log2), seed=scenario.seed,
        cache_dir=args.cache_dir, enabled=not args.no_cache,
        companions=[scenario.channel] + _sweep_points(scenario))
    timings = {"stats_s": time.perf_counter() - t0}
    hits = [hit for _, hit in looked_up]
    diag = {}
    header, rows = rows_of(
        scenario, [(c, st) for c, (st, _) in zip(channels, looked_up)], diag)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / ("%s_%s.csv" % (scenario.scenario_id, args.command))
    _write_csv(csv_path, scenario, header, rows)
    timings["table_s"] = time.perf_counter() - t0 - timings["stats_s"]
    timings["qmc_threads"] = qmc_threads()

    cache_dir = args.cache_dir if args.cache_dir else str(default_cache_dir())
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "table": args.command,
        "scenario_file": str(args.scenario),
        "scenario": dataclasses.asdict(scenario),
        "cli_overrides": {"seed": args.seed, "budget": args.budget,
                          "workers": workers},
        "seeds": {"stats": scenario.seed},
        "versions": {"turbchan": __version__,
                     "kernel": KERNEL_VERSION,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0],
                     "simd": simd_dispatch()},
        "cache": {"enabled": not args.no_cache, "dir": cache_dir,
                  "hits": sum(hits), "misses": len(hits) - sum(hits)},
        "diagnostics": diag,
        "outputs": [csv_path.name],
        "timings": timings,
        "written_at": time.time(),
    }
    manifest_path = out_dir / ("%s_%s_manifest.json"
                               % (scenario.scenario_id, args.command))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s and %s" % (csv_path, manifest_path))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="turbchan",
        description="Transmittance statistics and key rates for turbulent "
                    "free-space channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _TABLES.items():
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
                           help="no effect (>= 1): kept only because the "
                                "perfbench harness passes it; ROADMAP item 4 "
                                "deletes it after item 2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        code, label = next((code, label) for cls, code, label in EXIT_CODES
                           if isinstance(exc, cls))
        print("%s: %s" % (label, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
