"""Each benchmark check accepts a good output and rejects a corrupted copy.

The good fig2 outputs come from the CLI at a small sampling budget (a few
seconds); every corruption is one small change that the named check must
catch. Run with:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import oracles  # noqa: E402  (tests/, put on sys.path by workloads)
from turbchan import ChannelParams, cli  # noqa: E402


@pytest.fixture(scope="module")
def fig2_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    for table in wl.FIG2_TABLES:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([table, str(wl.SCENARIO), "--budget", "10",
                           "--no-cache", "--out-dir", str(out)])
        assert rc == 0, table
    return out


@pytest.fixture(scope="module")
def tables(fig2_out):
    return wl.fig2_tables(fig2_out, "fig2-solid")


@pytest.fixture(scope="module")
def refs():
    return wl.fig2_references()


@pytest.fixture
def t(tables):
    return copy.deepcopy(tables)


def fails(name, fn, *args):
    with pytest.raises(checks.CheckFailed) as info:
        fn(*args)
    assert info.value.name == name, str(info.value)


def scale(row, key, factor):
    row[key] = repr(float(row[key]) * factor)


def test_good_fig2_outputs_pass(fig2_out):
    assert [str(f) for f in wl.fig2_checks(fig2_out)] == []


@pytest.mark.parametrize("key", ["mean_eta", "sigma_bw2", "wst2", "rytov"])
def test_stats_oracle(t, refs, key):
    scale(t["stats"][0], key, 1.0 + 1e-5)
    fails("stats.%s" % key, checks.check_stats, t["stats"], refs[0])


@pytest.mark.parametrize("value", ["above", "below"])
def test_stats_moment_order(t, refs, value):
    row = t["stats"][0]
    m1 = float(row["mean_eta"])
    row["mean_eta2"] = repr(m1 * 1.001 if value == "above" else m1 * m1 * 0.999)
    fails("stats.moment_order", checks.check_stats, t["stats"], refs[0])


def test_pdt_scaled_density(t):
    for row in t["pdt"]:
        scale(row, "density", 1.01)
    fails("pdt.normalised", checks.check_pdt, t["pdt"])


def test_pdt_negative_density(t):
    t["pdt"][100]["density"] = "-1e-9"
    fails("pdt.nonnegative", checks.check_pdt, t["pdt"])


def _exceedance_rows(t, fraction):
    return [r for r in t["exceedance"] if float(r["fraction"]) == fraction]


def test_exceedance_out_of_order(t):
    rows = _exceedance_rows(t, 0.5)
    i = next(i for i, r in enumerate(rows) if 0.2 < float(r["exceedance"]) < 0.8)
    rows[i]["exceedance"], rows[i + 1]["exceedance"] = (
        rows[i + 1]["exceedance"], rows[i]["exceedance"])
    fails("exceedance.monotone", checks.check_exceedance, t["exceedance"])


def test_exceedance_endpoint(t):
    _exceedance_rows(t, 0.25)[0]["exceedance"] = "0.9999"
    fails("exceedance.endpoints", checks.check_exceedance, t["exceedance"])


def test_exceedance_off_density(t):
    rows = _exceedance_rows(t, 0.0)
    for r in rows:
        e = float(r["exceedance"])
        if 0.0 < e < 1.0:
            r["exceedance"] = repr(max(e - 2e-4, 0.0))
    fails("exceedance.density_match", checks.check_exceedance,
          t["exceedance"])


def test_exceedance_tracking_order(t):
    # Relabel the fraction-1 rows as fraction 0.1: each column stays
    # self-consistent, but tracking no longer raises the exceedance.
    for r in t["exceedance"]:
        if float(r["fraction"]) == 1.0:
            r["fraction"] = "0.1"
    fails("exceedance.tracking_order", checks.check_exceedance,
          t["exceedance"])


def test_squeezing_oracle(t):
    scale(t["squeezing"][3], "squeezing_db", 1.0 + 1e-5)
    fails("squeezing.oracle", checks.check_squeezing, t["squeezing"], -3.0,
          oracles.squeezing_out_db)


def test_squeezing_bounds(t):
    t["squeezing"][0]["squeezing_db"] = "0.01"
    fails("squeezing.bounds", checks.check_squeezing, t["squeezing"], -3.0,
          lambda v_in, m: 0.01)


def test_squeezing_acceptance(t):
    t["squeezing"][2]["acceptance"] = "0"
    fails("squeezing.acceptance", checks.check_squeezing, t["squeezing"],
          -3.0, oracles.squeezing_out_db)


def test_squeezing_postselected_mean(t):
    row = t["squeezing"][2]
    m = float(row["eta_min"]) - 0.01
    row["mean_eta_ps"] = repr(m)
    row["squeezing_db"] = repr(oracles.squeezing_out_db(-3.0, m))
    fails("squeezing.postselected_mean", checks.check_squeezing,
          t["squeezing"], -3.0, oracles.squeezing_out_db)


def test_qkd_differs_from_sweep(t):
    scale(t["qkd"][0], "rate", 1.0 + 1e-6)
    fails("qkd.matches_sweep", checks.check_qkd, t["qkd"], t["sweep"])


def test_sweep_loss_shift(t, refs):
    row = t["sweep"][4]
    row["mean_loss_db"] = repr(float(row["mean_loss_db"]) + 0.01)
    fails("sweep.mean_loss", checks.check_sweep, t["sweep"], refs[1])


def test_sweep_rate_rises(t, refs):
    rows = t["sweep"]
    rows[2]["rate"], rows[3]["rate"] = rows[3]["rate"], rows[2]["rate"]
    fails("sweep.rate_monotone", checks.check_sweep, rows, refs[1])


def test_sweep_early_zero_rate(t, refs):
    for r in t["sweep"]:
        if float(r["length_m"]) >= 12000.0:
            r["rate"] = "0"
    fails("sweep.zero_rate_onset", checks.check_sweep, t["sweep"], refs[1])


def test_sweep_improvement_outside_window(t, refs):
    row = next(r for r in t["sweep"] if r["family"] != "composite")
    row["improvement"] = "0.05"
    fails("sweep.improvement", checks.check_sweep, t["sweep"], refs[1])


def test_sweep_small_peak(t, refs):
    for r in t["sweep"]:
        scale(r, "improvement", 0.01)
    fails("sweep.improvement", checks.check_sweep, t["sweep"], refs[1])


def test_warm_bytes(fig2_out):
    good = checks.csv_bytes(fig2_out)
    checks.check_same_bytes(good, dict(good), "warm.bytes_identical")
    bad = dict(good)
    name = "fig2-solid_pdt.csv"
    bad[name] = bad[name][:-2] + b"9\n"
    fails("warm.bytes_identical", checks.check_same_bytes, good, bad,
          "warm.bytes_identical")


def test_warm_cache_miss():
    manifests = [{"table": "stats", "cache": {"enabled": True, "hits": 1,
                                              "misses": 0}},
                 {"table": "sweep", "cache": {"enabled": True, "hits": 10,
                                              "misses": 1}}]
    checks.check_all_hits(manifests[:1])
    fails("warm.all_hits", checks.check_all_hits, manifests)


# ---------------------------------------------------------------------------
# correlation maps
# ---------------------------------------------------------------------------

CHAN = ChannelParams(cn2=4e-14, wavelength=800e-9, length=1000.0, w0=0.02,
                     aperture_radius=0.04)
VAC = CHAN.replace(cn2=0.0)


def test_gamma2_oracle():
    radii = np.array([0.0, 0.005, 0.01, 0.02])
    refs = np.array([oracles.gamma2_point(r, CHAN.cn2, CHAN.length)
                     for r in radii])
    vals = np.array([wl.turbchan.gamma2((r, 0.0), CHAN) for r in radii])
    atol = checks.gamma2_atol(CHAN)
    checks.check_gamma2(vals, refs, atol, "gamma2.oracle")
    vals[1] *= 1.002
    fails("gamma2.oracle", checks.check_gamma2, vals, refs, atol,
          "gamma2.oracle")


def test_gamma2_vacuum():
    r = 0.01
    closed = checks.vacuum_gamma2(r * r, VAC)
    value = wl.turbchan.gamma2((r, 0.0), VAC)
    atol = checks.gamma2_atol(VAC)
    checks.check_gamma2([value], [closed], atol, "gamma2.vacuum")
    fails("gamma2.vacuum", checks.check_gamma2, [value * 1.002], [closed],
          atol, "gamma2.vacuum")


def test_gamma4_vacuum():
    r1, r2 = (0.01, 0.0), (0.0, 0.005)
    value = wl.turbchan.gamma4(r1, r2, VAC).value
    checks.check_gamma4_vacuum(value, r1, r2, VAC)
    fails("gamma4.vacuum", checks.check_gamma4_vacuum, value * (1 + 1e-9),
          r1, r2, VAC)


def test_gamma4_excess():
    checks.check_gamma4_excess(1.1, 0.01, 1.0)
    fails("gamma4.excess", checks.check_gamma4_excess, 1.02, 0.01, 1.0)


def test_gamma4_swap():
    checks.check_gamma4_swap(1.0, 0.01, 1.05, 0.01)
    fails("gamma4.swap", checks.check_gamma4_swap, 1.0, 0.01, 1.06, 0.01)


# ---------------------------------------------------------------------------
# the runner and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_failed_check_names_itself_and_exits_nonzero(monkeypatch, capsys,
                                                     tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(wl, "GRID", np.linspace(-0.01, 0.01, 2))
    monkeypatch.setattr(wl, "GAMMA4_LOG2_POINTS", 6)

    def broken(*args):
        raise checks.CheckFailed("gamma4.swap", "forced")

    monkeypatch.setattr(checks, "check_gamma4_swap", broken)
    rc = run.main(["--workload", "correlation-maps", "--seconds", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "CHECK FAILED gamma4.swap" in captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert math.isclose(spec["run_seconds"], round(spec["run_seconds"]))
