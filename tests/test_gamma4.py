"""Fourth-order correlation estimator: exact limits and invariances."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy.stats import qmc

import turbchan
from turbchan import gamma2, gamma4
from turbchan.kernels import aperture_cov_qmc, aperture_cov_qmc_many
from turbchan.kernels import gamma4 as gamma4_module
from turbchan.kernels.structure_function import GL_NODES, GL_WEIGHTS

from conftest import make_channel

C1 = make_channel(4e-14, 1000.0)
VAC = make_channel(0.0, 1000.0)

FAST = dict(log2_points=12)
# sha256 of the little-endian float64 bytes of the points of
# sobol_points(10, 12, first replicate stream of seed 0).
GOLDEN_SHA256 = ("4072846d5fdae62eb57a885ea847a0b2"
                 "3f0ee9f8a9db2660a670537f25de2d6b")


def test_vacuum_factorizes_exactly():
    g = gamma4((0.01, 0.0), (0.0, 0.02), VAC)
    product = gamma2((0.01, 0.0), VAC) * gamma2((0.0, 0.02), VAC)
    assert g.std_error == 0.0
    assert g.diagnostics["vacuum_closed_form"]
    assert g.value == pytest.approx(product, rel=1e-5)


def test_on_axis_excess_correlation():
    # Intensity fluctuations make <I^2> exceed <I>^2 on axis.
    g = gamma4((0.0, 0.0), (0.0, 0.0), C1, **FAST)
    g2 = gamma2((0.0, 0.0), C1)
    assert g.value - 3.0 * g.std_error > g2 * g2


def test_argument_symmetry_within_noise():
    a = gamma4((0.01, 0.0), (0.0, 0.02), C1, **FAST)
    b = gamma4((0.0, 0.02), (0.01, 0.0), C1, **FAST)
    combined = (a.std_error ** 2 + b.std_error ** 2) ** 0.5
    assert abs(a.value - b.value) <= 4.0 * combined


def test_seeded_determinism():
    a = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=7, **FAST)
    b = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=7, **FAST)
    c = gamma4((0.005, 0.0), (0.0, 0.01), C1, seed=8, **FAST)
    assert a.value == b.value and a.std_error == b.std_error
    assert c.value != a.value


def test_long_channel_is_finite():
    # At 4 km both mean-intensity factors converge, so Gamma4 has a value.
    g = gamma4((0.0, 0.0), (0.01, 0.0), make_channel(4e-14, 4000.0), **FAST)
    assert math.isfinite(g.value) and math.isfinite(g.std_error)
    assert g.value > 0.0


def test_kernel_modules_are_not_shadowed():
    # The package exports the functions; the kernels package keeps the
    # submodules under their own names.
    assert isinstance(turbchan.kernels.gamma4, types.ModuleType)
    assert isinstance(turbchan.kernels.gamma2, types.ModuleType)
    assert callable(turbchan.gamma4) and callable(turbchan.gamma2)
    assert turbchan.gamma4 is gamma4_module.gamma4


def test_diagnostics_shape():
    g = gamma4((0.0, 0.0), (0.01, 0.0), C1, **FAST)
    d = g.diagnostics
    assert d["points"] == 16 * 2 ** 12
    assert d["replicates"] == 16
    assert d["positive_s_fraction"] <= 1e-6
    assert "pair_product" in d and d["pair_product"] > 0.0


def test_segment_rule_shift_is_below_noise(monkeypatch):
    # The sampled path's 8-node structure-function rule against the 32-node
    # rule on the same points (common random numbers): the covariance moves
    # by far less than its standard error.
    chan = make_channel(4e-14, 4000.0)
    short = aperture_cov_qmc(chan, log2_points=12)
    monkeypatch.setattr(gamma4_module, "SEGMENT_RULE", (GL_NODES, GL_WEIGHTS))
    full = aperture_cov_qmc(chan, log2_points=12)
    assert short.diagnostics["gl_nodes"] == 8
    assert full.diagnostics["gl_nodes"] == 32
    assert abs(short.value - full.value) < 0.1 * full.std_error


def test_shared_pass_matches_single_channel_calls():
    # One pass over the shared points for several lengths and vacuum gives
    # each channel exactly its one-channel result.
    chans = [make_channel(4e-14, L) for L in (1000.0, 4000.0, 16000.0)] + [VAC]
    batch = aperture_cov_qmc_many(chans, log2_points=12)
    assert len(batch) == len(chans)
    for chan, got in zip(chans, batch):
        one = aperture_cov_qmc(chan, log2_points=12)
        assert got.value == one.value
        assert got.std_error == one.std_error
        assert got.diagnostics == one.diagnostics
    assert batch[-1].diagnostics["vacuum_closed_form"]


def test_shared_pass_needs_common_geometry():
    with pytest.raises(ValueError):
        aperture_cov_qmc_many([C1, make_channel(4e-14, 1000.0, w0=0.03)])
    with pytest.raises(ValueError):
        aperture_cov_qmc_many([C1, make_channel(4e-14, 2000.0,
                                                aperture_radius=0.05)])


def all_points(dim, log2_points, seed_seq):
    """The streamed Sobol blocks, concatenated; every block but the last
    holds CHUNK points."""
    blocks = list(gamma4_module.sobol_points(dim, log2_points, seed_seq))
    assert all(len(b) == gamma4_module.CHUNK for b in blocks[:-1])
    return np.concatenate(blocks)


# scipy is the reference only; it names the seed argument `rng` from 1.15.
@pytest.mark.skipif("rng" not in inspect.signature(qmc.Sobol).parameters,
                    reason="scipy.stats.qmc.Sobol has no rng argument")
@pytest.mark.parametrize("dim", [1, 6, 10])
# 13 is the first block boundary; at 14 the second block's Gray-code offset
# holds bit 12, which comes from lo >> 1 alone.
@pytest.mark.parametrize("log2_points", [0, 1, 12, 13, 14, 16])
def test_sobol_points_match_scipy_bit_for_bit(dim, log2_points):
    # The replicate streams of three seeds, as _run_replicates spawns them.
    # SeedSequence.spawn is stateful, so each side gets a fresh stream.
    for seed in range(3):
        for i in range(3):
            ref = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(
                np.random.SeedSequence(seed).spawn(3)[i])).random_base2(
                    log2_points)
            got = all_points(dim, log2_points,
                             np.random.SeedSequence(seed).spawn(3)[i])
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_sobol_points_golden_checksum():
    # Pins the points behind every cached covariance, independent of scipy.
    seed_seq = np.random.SeedSequence(0).spawn(1)[0]
    pts = all_points(10, 12, seed_seq)
    assert pts.shape == (4096, 10)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert hashlib.sha256(pts.astype("<f8").tobytes()).hexdigest() == (
        GOLDEN_SHA256)
    # Pure in its argument: the sequence is not spawned from.
    assert np.array_equal(all_points(10, 12, seed_seq), pts)


def test_results_do_not_depend_on_thread_count(monkeypatch):
    # One thread, two, and four (more than the cores here), the last with a
    # short switch interval: every value, error and diagnostic is the same
    # to the bit, since the replicates are seeded up front and collected in
    # order.
    chans = [make_channel(4e-14, 1000.0), make_channel(4e-14, 4000.0)]
    runs = []
    for threads in (1, 2, 4):
        monkeypatch.setattr(gamma4_module, "qmc_threads", lambda: threads)
        interval = sys.getswitchinterval()
        if threads == 4:
            sys.setswitchinterval(1e-5)
        try:
            many = aperture_cov_qmc_many(chans, log2_points=12)
            one = gamma4((0.0, 0.0), (0.01, 0.0), C1, log2_points=12)
        finally:
            sys.setswitchinterval(interval)
        runs.append([(r.value, r.std_error, r.diagnostics)
                     for r in many + [one]])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_point_memory_is_per_chunk(monkeypatch):
    # The points stream one block at a time, so the peak traced memory of a
    # covariance call does not grow with the points per replicate: 2^16
    # stays within 1 MB of 2^13 (one block). One thread, so that the peak
    # does not depend on how the replicates overlap.
    monkeypatch.setattr(gamma4_module, "qmc_threads", lambda: 1)
    peaks = {}
    for log2_points in (13, 16):
        tracemalloc.start()
        try:
            aperture_cov_qmc(C1, log2_points=log2_points)
            peaks[log2_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] - peaks[13] < 1_000_000, peaks


def test_kernels_never_import_scipy_stats(tmp_path):
    # A fresh interpreter: the CLI tables, both QMC paths, Gamma_2 far out on
    # its Hankel rule, the law build and the zero-width postselection run on
    # numpy and scipy.special alone, leaving scipy.stats, scipy.integrate,
    # scipy.optimize and scipy.linalg unimported, lazily or not; importing
    # builds no quadrature rule.
    scenario = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scenarios", "fig2_solid.cfg")
    code = "\n".join([
        "import math, sys",
        "import turbchan.cli",
        "from turbchan import quadrature",
        "# The fixed rules are built on first use, not at import.",
        "assert quadrature.gauss_legendre.cache_info().currsize == 0",
        "assert quadrature.tanh_sinh.cache_info().currsize == 0",
        "from turbchan import (BeamStats, StatsBudget, channel_stats,",
        "                      composite_pdt_build, gamma2, gamma4,",
        "                      postselected_moments, weibull_params)",
        "from turbchan.pdt import _displacement_average",
        "from conftest import make_channel",
        "for table in ('stats', 'pdt', 'exceedance', 'squeezing'):",
        "    assert turbchan.cli.main([table, %r, '--budget', '10',"
        " '--no-cache', '--out-dir', %r]) == 0" % (scenario, str(tmp_path)),
        "chan = make_channel(4e-14, 4000.0)",
        "gamma4((0.0, 0.0), (0.01, 0.0), chan, log2_points=8)",
        "gamma2((0.3, 0.0), make_channel(4e-14, 1000.0))",
        "st = channel_stats(chan, StatsBudget(12))",
        "composite_pdt_build(st, chan.aperture_radius)",
        "wp = weibull_params(0.04, 0.05)",
        "i1, i2 = (_displacement_average(n, math.sqrt(8.4e-5), wp)",
        "          for n in (1.0, 2.0))",
        "law = composite_pdt_build(BeamStats(wp.eta0_max * i1,",
        "    wp.eta0_max ** 2 * i2, 8.4e-5, 0.0025), 0.04)",
        "assert law.sigma_r0 == 0.0",
        "postselected_moments(law, 0.5)",
        "for name in ('scipy.stats', 'scipy.integrate', 'scipy.optimize',",
        "             'scipy.linalg'):",
        "    assert name not in sys.modules, name + ' imported'",
    ])
    src = os.path.dirname(os.path.dirname(turbchan.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, tests, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
