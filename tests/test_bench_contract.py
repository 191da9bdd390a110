"""The benchmark's per-layer tracer still fits the functions it wraps.

perfbench/layers.py wraps turbchan functions by name and reads their
arguments and results in hooks; a renamed function or a changed signature
would only show in a traced benchmark run. This runs the CLI and the wrapped
library calls under the tracer at a small budget instead.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import turbchan
from turbchan import cli
from turbchan.kernels import gamma4 as gamma4_module

from conftest import make_channel

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def test_tracer_hooks_run_cleanly(tmp_path):
    scenario = ROOT / "scenarios" / "fig2_solid.cfg"
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(re.sub(r"^sweep\.lengths = .*$",
                            "sweep.lengths = 1 km, 4 km, 16 km",
                            scenario.read_text(encoding="utf-8"),
                            flags=re.MULTILINE), encoding="utf-8")
    common = ["--budget", "10", "--cache-dir", str(tmp_path / "cache"),
              "--out-dir", str(tmp_path / "out")]
    tracer = layers.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["stats", str(scenario)] + common) == 0
            assert cli.main(["pdt", str(scenario)] + common) == 0
            assert cli.main(["sweep", str(sweep)] + common) == 0
        # The library entry points whose hooks read arguments or results.
        chan = make_channel(4e-14, 1000.0)
        turbchan.channel_stats(chan, turbchan.StatsBudget(10))
        turbchan.kernels.aperture_cov_qmc(chan, log2_points=8)
        turbchan.gamma4((0.01, 0.0), (0.0, 0.005), chan, log2_points=8)
    finally:
        tracer.remove()
    tl = tracer.layers
    assert tl["kernels.structure_function.ds_segment"].calls > 0
    assert tl["kernels.structure_function.ds_segment"].counts["node_evals"] > 0
    for module, name, hook in layers.TRACED:
        if hook is not None:
            key = "%s.%s" % (module.removeprefix("turbchan."), name)
            assert tl[key].calls > 0, key
    assert tl["cache.stats_cache_get"].counts["misses"] > 0
    # Every table builds its law through the traced builder.
    assert tl["pdt.composite_pdt_build"].calls > 0
    assert "cov_rel_se@1000" in tl["kernels.stats.channel_stats"].counts
    # remove() restores the originals everywhere.
    assert not hasattr(cli.composite_pdt_density, "__wrapped__")


@pytest.mark.parametrize("nodes", [8, 32])
def test_covariance_scan_layer_counts_are_exact(monkeypatch, nodes):
    # One aperture_cov_qmc call at 2^8 points is 16 replicates of one chunk,
    # each four traced ds_segment calls of 256 points on the SEGMENT_NODES
    # rule. That holds only while the scan reads ds_segment, SEGMENT_NODES
    # and qmc_threads at call time; one thread, since the tracer's counts
    # are not locked.
    monkeypatch.setattr(gamma4_module, "qmc_threads", lambda: 1)
    monkeypatch.setattr(gamma4_module, "SEGMENT_NODES", nodes)
    tracer = layers.install()
    try:
        turbchan.kernels.aperture_cov_qmc(make_channel(4e-14, 1000.0),
                                          log2_points=8)
    finally:
        tracer.remove()
    seg = tracer.layers["kernels.structure_function.ds_segment"]
    assert seg.calls == 4 * 16
    assert seg.counts["node_evals"] == 64 * 256 * nodes


def test_correlation_pass_meets_its_checks():
    # One correlation-maps pass against the benchmark's oracle and
    # closed-form checks, so a kernel change that breaks them fails here.
    channels = workloads.corr_channels()
    done, values = workloads.correlation_pass(0, channels)
    assert done.failed == 0
    assert workloads.correlation_checks(channels, values) == []


def test_warm_tables_meet_their_checks(tmp_path):
    # The pdt, exceedance, squeezing, qkd and sweep tables of
    # fig2_solid.cfg against the benchmark's own checks, so a change to the
    # mixture or to the law of a sweep length that breaks them fails here
    # rather than only in a benchmark run.
    import oracles

    scenario = ROOT / "scenarios" / "fig2_solid.cfg"
    out = tmp_path / "out"
    common = ["--budget", "10", "--cache-dir", str(tmp_path / "cache"),
              "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        for table in ("pdt", "exceedance", "squeezing", "qkd", "sweep"):
            assert cli.main([table, str(scenario)] + common) == 0
    sc = turbchan.load_scenario(scenario)

    def rows(table):
        return checks.read_csv(out / ("%s_%s.csv" % (sc.scenario_id, table)))

    checks.check_pdt(rows("pdt"))
    checks.check_exceedance(rows("exceedance"))
    checks.check_squeezing(rows("squeezing"), sc.squeezing_input_db,
                           oracles.squeezing_out_db)
    checks.check_qkd(rows("qkd"), rows("sweep"))
    _, loss_ref = workloads.fig2_references()
    checks.check_sweep(rows("sweep"), loss_ref)


def test_cold_fig2_pass_meets_its_checks(tmp_path):
    # Two cold fig2 passes at the default budget, seed 0, each into a fresh
    # cache: every table exits 0, the benchmark's fig2 checks hold and the
    # two passes write the same CSV bytes.
    outs = [tmp_path / run / "out" for run in ("a", "b")]
    for out in outs:
        done = workloads.fig2_pass(0, out.parent / "cache", out)
        assert done.failed == 0
    assert workloads.fig2_checks(outs[0]) == []
    checks.check_same_bytes(checks.csv_bytes(outs[0]),
                            checks.csv_bytes(outs[1]), "cold.same_bytes")
