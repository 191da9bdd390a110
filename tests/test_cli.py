"""End-to-end CLI runs: tables, manifests, determinism, exit codes."""

import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from turbchan import cache as cache_module
from turbchan.cli import main
from turbchan.errors import QuadratureNotConverged
from turbchan.pdt import RATIO_RANGE
from turbchan.kernels import stats as stats_module
from turbchan.kernels.gamma4 import QmcResult, qmc_threads

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIG2 = str(SCENARIOS / "fig2_solid.cfg")
FIG2_TABLES = ("stats", "pdt", "exceedance", "squeezing", "qkd", "sweep")

GEOM = [
    "channel.wavelength = 800 nm",
    "channel.w0 = 2 cm",
    "channel.aperture = 4 cm",
]


def write_cfg(tmp_path, lines, name="s.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def turb_cfg(tmp_path, extra=(), name="turb.cfg", length="1 km"):
    lines = ([
        "scenario.id = t1",
        "channel.cn2 = 4e-14",
        "channel.length = %s" % length,
        "budget.log2_total = 10",
        "pdt.sample_count = 500",
        "pdt.eta_step = 0.01",
    ] + GEOM + list(extra))
    return write_cfg(tmp_path, lines, name=name)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(argv, tmp_path, sub):
    out = tmp_path / sub
    rc = main(argv + ["--out-dir", str(out)])
    return rc, out


def test_stats_vacuum_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, [
        "scenario.id = vac",
        "channel.cn2 = 0",
        "channel.length = 1 km",
        "budget.log2_total = 10",
    ] + GEOM)
    rc, out = run(["stats", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "vac_stats.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario_id"] == "vac"
    assert row["seed"] == "0"
    assert float(row["mean_eta"]) == pytest.approx(0.999999997325, rel=1e-9)
    assert float(row["sigma_bw2"]) == 0.0
    assert float(row["rytov"]) == 0.0
    content = (out / "vac_stats.csv").read_bytes()
    assert b"\r" not in content


def test_pdt_grid_and_family(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc, out = run(["pdt", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "t1_pdt.csv")
    assert len(rows) == 101
    assert all(r["family"] == "composite" for r in rows)
    assert float(rows[0]["eta"]) == 0.0
    assert float(rows[-1]["eta"]) == 1.0
    assert all(float(r["density"]) >= 0.0 for r in rows)
    man = json.loads((out / "t1_pdt_manifest.json").read_text())
    assert man["diagnostics"]["pdt_family"] == "composite"
    # Inside the Weibull window, with the beam wandering.
    lo, hi = RATIO_RANGE
    assert lo <= man["diagnostics"]["aperture_ratio"] <= hi
    assert man["diagnostics"]["wander_ratio2"] > 0.0


def test_pdt_lognormal_fallback(tmp_path):
    # Far beyond the displacement-fit window the density switches family.
    cfg = turb_cfg(tmp_path, length="8 km")
    rc, out = run(["pdt", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "t1_pdt.csv")
    assert all(r["family"] == "lognormal" for r in rows)


def test_exceedance_table(tmp_path):
    cfg = turb_cfg(tmp_path,
                   extra=["tracking.fractions = 0, 1"])
    rc, out = run(["exceedance", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "t1_exceedance.csv")
    assert len(rows) == 2 * 101
    fracs = sorted({r["fraction"] for r in rows})
    assert fracs == ["0", "1"]
    for r in rows:
        if float(r["eta"]) == 0.0:
            assert float(r["exceedance"]) == 1.0
        if float(r["eta"]) == 1.0:
            assert float(r["exceedance"]) == 0.0


def test_squeezing_table(tmp_path):
    cfg = turb_cfg(tmp_path, extra=[
        "tracking.fractions = 0, 1",
        "postselection.eta_min = 0.3, 0.5",
        "squeezing.input_db = -3",
    ])
    rc, out = run(["squeezing", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "t1_squeezing.csv")
    assert len(rows) == 4
    by = {(r["fraction"], r["eta_min"]): r for r in rows}
    for r in rows:
        assert -3.0 < float(r["squeezing_db"]) < 0.0
        assert 0.0 < float(r["acceptance"]) <= 1.0
    # Tracking preserves more squeezing at the same threshold.
    assert (float(by[("1", "0.3")]["squeezing_db"])
            < float(by[("0", "0.3")]["squeezing_db"]))


def test_qkd_table(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc, out = run(["qkd", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    rows = read_csv(out / "t1_qkd.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "composite"
    assert float(row["rate"]) >= 0.0
    assert float(row["mean_loss_db"]) > 0.0
    assert float(row["improvement"]) <= 1.0
    assert float(row["rate_tracked"]) >= float(row["rate"]) * 0.5


def test_rerun_byte_identical(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc1, out1 = run(["stats", cfg, "--no-cache"], tmp_path, "o1")
    rc2, out2 = run(["stats", cfg, "--no-cache"], tmp_path, "o2")
    assert rc1 == rc2 == 0
    assert ((out1 / "t1_stats.csv").read_bytes()
            == (out2 / "t1_stats.csv").read_bytes())
    m1 = json.loads((out1 / "t1_stats_manifest.json").read_text())
    m2 = json.loads((out2 / "t1_stats_manifest.json").read_text())
    # The timestamp and the measured seconds are the parts that vary.
    for m in (m1, m2):
        m.pop("written_at"), m.pop("timings")
    assert m1 == m2


def test_cache_round_trip_is_transparent(tmp_path):
    cfg = turb_cfg(tmp_path)
    cache = tmp_path / "cache"
    rc1, out1 = run(["qkd", cfg, "--cache-dir", str(cache)], tmp_path, "o1")
    rc2, out2 = run(["qkd", cfg, "--cache-dir", str(cache)], tmp_path, "o2")
    assert rc1 == rc2 == 0
    assert ((out1 / "t1_qkd.csv").read_bytes()
            == (out2 / "t1_qkd.csv").read_bytes())
    m1 = json.loads((out1 / "t1_qkd_manifest.json").read_text())
    m2 = json.loads((out2 / "t1_qkd_manifest.json").read_text())
    assert m1["cache"]["misses"] >= 1 and m1["cache"]["hits"] == 0
    assert m2["cache"]["hits"] >= 1 and m2["cache"]["misses"] == 0


def test_seed_override(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc1, out1 = run(["stats", cfg, "--no-cache"], tmp_path, "o1")
    rc2, out2 = run(["stats", cfg, "--no-cache", "--seed", "4"],
                    tmp_path, "o2")
    assert rc1 == rc2 == 0
    r1 = read_csv(out1 / "t1_stats.csv")[0]
    r2 = read_csv(out2 / "t1_stats.csv")[0]
    assert r1["seed"] == "0" and r2["seed"] == "4"
    # At this tiny budget both seeds clamp mean_eta2 to mean_eta, so the
    # replicate scatter is the seed-sensitive column.
    assert r1["se_mean_eta2"] != r2["se_mean_eta2"]
    man = json.loads((out2 / "t1_stats_manifest.json").read_text())
    assert man["cli_overrides"]["seed"] == 4
    assert man["scenario"]["seed"] == 4
    assert man["seeds"] == {"stats": 4, "qkd_samples": 6}


def test_budget_override(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc, out = run(["stats", cfg, "--no-cache", "--budget", "12"],
                  tmp_path, "o1")
    assert rc == 0
    man = json.loads((out / "t1_stats_manifest.json").read_text())
    assert man["cli_overrides"]["budget"] == 12
    assert man["scenario"]["budget_log2"] == 12


def test_sweep_workers_equivalence(tmp_path):
    cfg = turb_cfg(tmp_path,
                   extra=["sweep.lengths = 1 km, 2 km"])
    rc1, out1 = run(["sweep", cfg, "--no-cache", "--workers", "1"],
                    tmp_path, "o1")
    rc2, out2 = run(["sweep", cfg, "--no-cache", "--workers", "2"],
                    tmp_path, "o2")
    assert rc1 == rc2 == 0
    assert ((out1 / "t1_sweep.csv").read_bytes()
            == (out2 / "t1_sweep.csv").read_bytes())
    rows = read_csv(out1 / "t1_sweep.csv")
    assert [r["length_m"] for r in rows] == ["1000", "2000"]


def test_sweep_workers_cache_counts(tmp_path):
    # More workers than cores and a short switch interval: a lost update of
    # a shared counter would show as a wrong hit or miss count.
    lengths = ["%d km" % L for L in range(1, 7)]
    cfg = turb_cfg(tmp_path,
                   extra=["sweep.lengths = %s" % ", ".join(lengths)])
    cache = str(tmp_path / "cache")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = []
        for sub in ("o1", "o2"):
            rc, out = run(["sweep", cfg, "--cache-dir", cache,
                           "--workers", "4"], tmp_path, sub)
            assert rc == 0
            man = json.loads((out / "t1_sweep_manifest.json").read_text())
            counts.append((man["cache"]["hits"], man["cache"]["misses"]))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [(0, len(lengths)), (len(lengths), 0)]


def test_sweep_from_partly_filled_cache(tmp_path):
    # The batched lookup computes only the missing lengths; the CSV does not
    # depend on which lengths were cached.  part.cfg's sweep also filled its
    # 1 km scenario channel.
    cfg = turb_cfg(tmp_path,
                   extra=["sweep.lengths = 1 km, 2 km, 3 km"])
    part = turb_cfg(tmp_path, extra=["sweep.lengths = 2 km"],
                    name="part.cfg")
    cache = str(tmp_path / "cache")
    rc0, _ = run(["sweep", part, "--cache-dir", cache], tmp_path, "o0")
    rc1, out1 = run(["sweep", cfg, "--cache-dir", cache], tmp_path, "o1")
    rc2, out2 = run(["sweep", cfg, "--cache-dir", str(tmp_path / "empty")],
                    tmp_path, "o2")
    assert rc0 == rc1 == rc2 == 0
    man = json.loads((out1 / "t1_sweep_manifest.json").read_text())
    assert (man["cache"]["hits"], man["cache"]["misses"]) == (2, 1)
    assert ((out1 / "t1_sweep.csv").read_bytes()
            == (out2 / "t1_sweep.csv").read_bytes())


def run_fig2(out, tables, extra):
    """Run fig2 tables at --budget 10 into out; returns their exit codes."""
    return [main([table, FIG2, "--budget", "10", "--out-dir", str(out)]
                 + list(extra))
            for table in tables]


def same_csvs(out1, out2, tables):
    return all((out1 / ("fig2-solid_%s.csv" % t)).read_bytes()
               == (out2 / ("fig2-solid_%s.csv" % t)).read_bytes()
               for t in tables)


def test_cold_fig2_samples_once(tmp_path, monkeypatch):
    # The first table's lookup computes all 11 channels of the scenario in
    # one covariance pass; the five tables after it only read the cache.
    batches = []
    real = cache_module.channel_stats_many

    def counted(channels, *args, **kwargs):
        batches.append(len(channels))
        return real(channels, *args, **kwargs)

    monkeypatch.setattr(cache_module, "channel_stats_many", counted)
    out = tmp_path / "cached"
    assert run_fig2(out, FIG2_TABLES,
                    ["--cache-dir", str(tmp_path / "cache")]) == [0] * 6
    assert batches == [11]
    man = json.loads((out / "fig2-solid_sweep_manifest.json").read_text())
    assert (man["cache"]["hits"], man["cache"]["misses"]) == (11, 0)
    assert run_fig2(tmp_path / "direct", FIG2_TABLES,
                    ["--no-cache"]) == [0] * 6
    assert same_csvs(out, tmp_path / "direct", FIG2_TABLES)


def test_companion_failure_fails_only_its_table(tmp_path, monkeypatch,
                                                capsys):
    # The stats lookup fills the sweep lengths too; 16 km failing there
    # must not fail stats or pdt, only the sweep that needs it.
    assert run_fig2(tmp_path / "ref", ("stats", "pdt"), ["--no-cache"]) \
        == [0, 0]
    real = stats_module._quadrature_stats

    def fails_at_16km(params):
        if params.length == 16000.0:
            raise QuadratureNotConverged("radial rule too coarse")
        return real(params)

    monkeypatch.setattr(stats_module, "_quadrature_stats", fails_at_16km)
    out, common = tmp_path / "out", ["--cache-dir", str(tmp_path / "cache")]
    assert run_fig2(out, ("stats", "pdt"), common) == [0, 0]
    assert same_csvs(out, tmp_path / "ref", ("stats", "pdt"))
    capsys.readouterr()
    assert run_fig2(out, ("sweep",), common) == [3]
    assert capsys.readouterr().err.startswith("convergence failure:")


def test_sweep_records_weibull_window(tmp_path):
    # 16 km lies below the window: the law there drops the wandering, which
    # the manifest shows beside the family.
    cfg = turb_cfg(tmp_path, extra=["sweep.lengths = 1 km, 16 km"])
    rc, out = run(["sweep", cfg, "--no-cache", "--budget", "10"], tmp_path,
                  "o1")
    assert rc == 0
    points = json.loads((out / "t1_sweep_manifest.json").read_text())[
        "diagnostics"]["points"]
    assert [p["length_m"] for p in points] == [1000.0, 16000.0]
    for p in points:
        assert p["aperture_ratio"] > 0.0 and p["wander_ratio2"] > 0.0
    assert points[1]["aperture_ratio"] < RATIO_RANGE[0]
    assert points[1]["family"] == "lognormal"


def test_manifest_shape(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc, out = run(["stats", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    man = json.loads((out / "t1_stats_manifest.json").read_text())
    assert man["format"] == "turbchan.run-manifest"
    assert man["version"] == 1
    assert man["table"] == "stats"
    assert man["outputs"] == ["t1_stats.csv"]
    for key in ("turbchan", "kernel", "numpy", "scipy", "python"):
        assert key in man["versions"]
    assert man["cache"]["enabled"] is False
    assert "stats" in man["diagnostics"]


def test_manifest_timings(tmp_path):
    # Seconds in the stats lookup (the QMC included) and in the rest of the
    # table, and the size of the QMC thread pool.
    cfg = turb_cfg(tmp_path)
    rc, out = run(["pdt", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    timings = json.loads((out / "t1_pdt_manifest.json").read_text())[
        "timings"]
    assert set(timings) == {"stats_s", "table_s", "qmc_threads"}
    assert timings["stats_s"] > 0.0 and timings["table_s"] >= 0.0
    assert timings["qmc_threads"] == qmc_threads() >= 1


def test_float_formatting_is_stable(tmp_path):
    cfg = turb_cfg(tmp_path)
    rc, out = run(["stats", cfg, "--no-cache"], tmp_path, "o1")
    assert rc == 0
    row = read_csv(out / "t1_stats.csv")[0]
    for field in ("mean_eta", "mean_eta2", "sigma_bw2", "rytov"):
        token = row[field]
        assert "%.9g" % float(token) == token


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, ["scenario.id = t1"])  # missing channel
    assert main(["stats", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def config_error(table, cfg, tmp_path, capsys, extra=()):
    """Run a table that must fail as a config error before its stats lookup
    and before writing any output; returns its stderr."""
    out, cache = tmp_path / "o", tmp_path / "cache"
    rc = main([table, cfg, "--cache-dir", str(cache), "--out-dir", str(out)]
              + list(extra))
    assert rc == 2
    assert not out.exists()
    assert not cache.exists() or not any(cache.iterdir())
    return capsys.readouterr().err


def test_squeezing_needs_thresholds(tmp_path, capsys):
    cfg = turb_cfg(tmp_path)
    assert "postselection.eta_min" in config_error("squeezing", cfg,
                                                   tmp_path, capsys)


def test_squeezing_input_must_be_negative(tmp_path, capsys):
    cfg = turb_cfg(tmp_path, extra=[
        "postselection.eta_min = 0.3", "squeezing.input_db = 0"])
    assert "squeezing.input_db" in config_error("squeezing", cfg, tmp_path,
                                                capsys)


def test_sweep_needs_lengths(tmp_path, capsys):
    cfg = turb_cfg(tmp_path)
    assert "sweep.lengths" in config_error("sweep", cfg, tmp_path, capsys)


@pytest.mark.parametrize("table,key", [
    ("squeezing", "postselection.eta_min"),
    ("sweep", "sweep.lengths"),
])
def test_table_needs_its_keys_whatever_outputs_lists(table, key, tmp_path,
                                                     capsys):
    # vacuum.cfg sets neither key: the table names the key instead of
    # writing a header-only CSV.
    cfg = str(SCENARIOS / "vacuum.cfg")
    assert key in config_error(table, cfg, tmp_path, capsys)


@pytest.mark.parametrize("extra,argv", [
    (["budget.log2_total = 7"], []),
    ([], ["--budget", "5"]),
    (["scenario.seed = -1"], []),
    ([], ["--seed", "-1"]),
])
def test_budget_below_minimum_is_config_error(extra, argv, tmp_path,
                                              capsys):
    cfg = write_cfg(tmp_path, [
        "channel.cn2 = 4e-14",
        "channel.length = 1 km",
    ] + GEOM + extra)
    # The error names the key the case sets, in the file or as an override.
    key = ("scenario.seed" if "seed" in str(extra + argv)
           else "budget.log2_total")
    assert key in config_error("stats", cfg, tmp_path, capsys, argv)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_workers_below_one_is_config_error(workers, tmp_path, capsys):
    cfg = turb_cfg(tmp_path, extra=["sweep.lengths = 1 km, 2 km"])
    err = config_error("sweep", cfg, tmp_path, capsys, ["--workers", workers])
    assert err.startswith("config error:") and "--workers" in err


def test_missing_scenario_exit_code(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert main(["stats", missing, "--out-dir", str(tmp_path / "o")]) == 5


def test_outdir_collision_exit_code(tmp_path):
    cfg = turb_cfg(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["stats", cfg, "--no-cache", "--out-dir", str(blocker)]) == 5


def test_generic_error_exit_code(tmp_path):
    # A threshold above the vacuum channel's point mass accepts nothing.
    text = (SCENARIOS / "vacuum.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, [text, "postselection.eta_min = 0.9999999999"])
    assert main(["squeezing", cfg, "--no-cache",
                 "--out-dir", str(tmp_path / "o")]) == 1


def test_stats_invariant_violation_exit_code(tmp_path, capsys,
                                             monkeypatch):
    # A flux covariance that puts mean_eta2 4 se above the mean_eta bound
    # raises StatsInvariantViolation, which exits 1 with the generic label.
    se = 1e-3

    def over_bound(channels, log2_points, seed):
        etas = [min(stats_module.mean_eta_quad(c)[0], 1.0) for c in channels]
        return [QmcResult(e - e * e + 4.0 * se, se, {}) for e in etas]

    monkeypatch.setattr(stats_module, "aperture_cov_qmc_many", over_bound)
    cfg = str(SCENARIOS / "fig2_solid.cfg")
    assert main(["stats", cfg, "--no-cache", "--budget", "8",
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: mean_eta2")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["histogram", "x.cfg"])


def run_edge_tables(tmp_path, cfg, family, extra=()):
    """pdt, exceedance, squeezing and qkd on one scenario: every table
    exits 0, names the family, and tracking cannot change a law that has
    no wandering.  Returns the pdt rows and manifest."""
    common = ["--cache-dir", str(tmp_path / "cache"),
              "--out-dir", str(tmp_path / "out")] + list(extra)
    for table in ("pdt", "exceedance", "squeezing", "qkd"):
        assert main([table, cfg] + common) == 0, table
    sid = re.search(r"^scenario\.id = (\S+)", Path(cfg).read_text(),
                    flags=re.MULTILINE).group(1)

    def table(name):
        out = tmp_path / "out"
        man = json.loads((out / ("%s_%s_manifest.json" % (sid, name)))
                         .read_text())
        return read_csv(out / ("%s_%s.csv" % (sid, name))), man

    pdt, man = table("pdt")
    assert {r["family"] for r in pdt} == {family}
    assert man["diagnostics"]["pdt_family"] == family
    for name in ("exceedance", "squeezing"):
        assert table(name)[1]["diagnostics"]["pdt_family"] == family
    qkd, qkd_man = table("qkd")
    assert qkd[0]["family"] == qkd_man["diagnostics"]["points"][0]["family"]
    assert qkd[0]["family"] == family
    assert qkd[0]["improvement"] == "0"
    assert qkd[0]["rate_tracked"] == qkd[0]["rate"]

    exc, _ = table("exceedance")
    blocks = {}
    for r in exc:
        blocks.setdefault(r["fraction"], []).append(
            (r["eta"], r["density"], r["exceedance"]))
    assert len(blocks) > 1
    first = next(iter(blocks.values()))
    assert all(b == first for b in blocks.values())
    eta = np.array([float(e) for e, _, _ in first])
    x = np.array([float(v) for _, _, v in first])
    assert eta[0] == 0.0 and x[0] == 1.0
    assert eta[-1] == 1.0 and x[-1] == 0.0
    assert np.all(np.diff(x) <= 0.0)

    sq, _ = table("squeezing")
    rows = {}
    for r in sq:
        rows.setdefault(r["fraction"], []).append(
            [v for k, v in r.items() if k != "fraction"])
    assert len(rows) == len(blocks)
    assert all(b == rows[min(rows)] for b in rows.values())
    return pdt, man


def test_edge_regime_vacuum(tmp_path):
    text = (SCENARIOS / "vacuum.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, [text, "tracking.fractions = 0, 0.5, 1",
                               "tracking.jitter2 = 1e-6",
                               "postselection.eta_min = 0.3, 0.5"])
    pdt, man = run_edge_tables(tmp_path, cfg, "degenerate")
    # A point mass has no density; its atom is the vacuum transmittance.
    assert all(float(r["density"]) == 0.0 for r in pdt)
    assert man["diagnostics"]["pdt_atom"] == pytest.approx(0.999999997325,
                                                           rel=1e-9)


def test_edge_regime_weak_turbulence(tmp_path):
    # The aperture is 15.75 short-term beam radii, outside the Weibull
    # window, and the flux covariance clamps to zero at this budget.
    run_edge_tables(tmp_path, str(SCENARIOS / "weak_turbulence.cfg"),
                    "degenerate")


def test_edge_regime_outside_window(tmp_path):
    # fig2 at 10 km: a/W_ST = 0.033, below the Weibull window, and a mean
    # transmittance of 0.0046.  The file's thresholds (0.3 and up) accept
    # less than 1e-6 of the law, which is an empty postselection; the
    # regime test postselects where the law has mass.
    text = re.sub(r"^channel\.length = .*$", "channel.length = 10 km",
                  (SCENARIOS / "fig2_solid.cfg").read_text(encoding="utf-8"),
                  flags=re.MULTILINE)
    common = ["--budget", "10", "--cache-dir", str(tmp_path / "cache"),
              "--out-dir", str(tmp_path / "o")]
    assert main(["squeezing", write_cfg(tmp_path, [text])] + common) == 1
    cfg = write_cfg(tmp_path, [re.sub(
        r"^postselection\.eta_min = .*$",
        "postselection.eta_min = 0.002, 0.005, 0.01", text,
        flags=re.MULTILINE)], name="near.cfg")
    pdt, _ = run_edge_tables(tmp_path, cfg, "lognormal",
                             extra=["--budget", "10"])
    dens = np.array([float(r["density"]) for r in pdt])
    assert np.all(dens >= 0.0) and dens.max() > 0.0
