"""The benchmark's workloads: set-up, one timed pass each, and their checks.

fig2 passes drive the CLI in-process through ``turbchan.cli.main``; the
correlation-map pass calls the library functions ``gamma2`` and ``gamma4``.
Run as a script, ``python3 perfbench/workloads.py fill SEED CACHE OUT`` runs
one cold fig2 pass into CACHE and OUT and prints its seconds; the warm
workload fills its cache that way, in a process of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SCENARIO = ROOT / "scenarios" / "fig2_solid.cfg"

for _p in (SRC, TESTS):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import turbchan  # noqa: E402
from turbchan import cli, load_scenario  # noqa: E402
from turbchan.errors import TurbchanError  # noqa: E402

FIG2_TABLES = ("stats", "pdt", "exceedance", "squeezing", "qkd", "sweep")
IMPORT_REPEATS = 3
# The warm workload's cache fill is set-up, not the timed workload: its sweep
# uses both cores. The sweep CSV does not depend on --workers, and the warm
# checks compare it byte for byte with the single-worker passes.
FILL_SWEEP_WORKERS = 2

# Correlation maps: the three reference channels and vacuum, with the beam
# of scenarios/fig2_solid.cfg (2 cm at 800 nm).
CORR_CHANNELS = (("1km", 4e-14, 1000.0), ("2km", 3e-15, 2000.0),
                 ("3km", 3e-15, 3000.0), ("vacuum", 0.0, 1000.0))
GRID = np.linspace(-0.04, 0.04, 21)
# A user mapping Gamma4 at a few pairs: 2^12 points x 16 replicates each,
# a quarter of the library default, still leaves the excess of Gamma4(r, r)
# over Gamma2(r)^2 at hundreds of standard errors.
GAMMA4_LOG2_POINTS = 12
R1 = (0.01, 0.0)
R2 = (0.0, 0.005)
SWAP_CHANNELS = ("1km", "vacuum")

IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import turbchan.cli
turbchan.cli.load_scenario(sys.argv[2])
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Median over fresh processes of importing turbchan and parsing the
    scenario file."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(SCENARIO)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Pass:
    """Wall time, operation counts and per-part seconds of one pass."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.parts = {}


# ---------------------------------------------------------------------------
# fig2: the six CLI tables of scenarios/fig2_solid.cfg
# ---------------------------------------------------------------------------

def fig2_pass(seed, cache_dir, out_dir, sweep_workers=1) -> Pass:
    result = Pass()
    t_pass = time.perf_counter()
    for table in FIG2_TABLES:
        argv = [table, str(SCENARIO), "--seed", str(seed),
                "--cache-dir", str(cache_dir), "--out-dir", str(out_dir)]
        if table == "sweep":
            argv += ["--workers", str(sweep_workers)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        result.parts[table] = time.perf_counter() - t0
        result.attempted += 1
        if rc != 0:
            result.failed += 1
            print("fig2 table %s exited %d" % (table, rc), file=sys.stderr)
    result.seconds = time.perf_counter() - t_pass
    return result


def fig2_tables(out_dir, scenario_id) -> dict:
    tables = {}
    for table in FIG2_TABLES:
        path = Path(out_dir) / ("%s_%s.csv" % (scenario_id, table))
        tables[table] = checks.read_csv(path) if path.exists() else None
    return tables


def fig2_manifests(out_dir, scenario_id) -> list:
    return [json.loads((Path(out_dir) / ("%s_%s_manifest.json"
                                         % (scenario_id, t))).read_text())
            for t in FIG2_TABLES]


def fig2_references():
    """Oracle values for the fig2 checks, from tests/oracles.py.

    Returns (stats reference, loss_ref) where loss_ref(length_m) is the mean
    loss in dB of the scenario channel at that length, extinction included.
    """
    import oracles

    ch = load_scenario(SCENARIO).channel
    ref = {"mean_eta": oracles.mean_eta(ch.cn2, ch.length, ch.w0,
                                        ch.aperture_radius, ch.wavelength),
           "sigma_bw2": oracles.sigma_bw2(ch.cn2, ch.length, ch.w0,
                                          ch.wavelength),
           "wst2": oracles.wst2(ch.cn2, ch.length, 0.999, ch.w0,
                                ch.wavelength),
           "rytov": oracles.rytov(ch.cn2, ch.length, ch.wavelength)}

    def loss_ref(length):
        eta = oracles.mean_eta(ch.cn2, length, ch.w0, ch.aperture_radius,
                               ch.wavelength)
        ext_db = ch.extinction_db_per_km * length / 1000.0
        return -10.0 * math.log10(eta) + ext_db

    return ref, loss_ref


def fig2_checks(out_dir) -> list:
    """Check every fig2 table in out_dir against the oracles of tests/."""
    import oracles

    scenario = load_scenario(SCENARIO)
    tables = fig2_tables(out_dir, scenario.scenario_id)
    missing = [t for t, rows in tables.items() if rows is None]
    if missing:
        return [checks.CheckFailed("%s.output" % t, "no CSV written")
                for t in missing]
    ref, loss_ref = fig2_references()
    return checks.collect([
        lambda: checks.check_stats(tables["stats"], ref),
        lambda: checks.check_pdt(tables["pdt"]),
        lambda: checks.check_exceedance(tables["exceedance"]),
        lambda: checks.check_squeezing(tables["squeezing"],
                                       scenario.squeezing_input_db,
                                       oracles.squeezing_out_db),
        lambda: checks.check_qkd(tables["qkd"], tables["sweep"]),
        lambda: checks.check_sweep(tables["sweep"], loss_ref),
    ])


def headline_rel_se(out_dir) -> float:
    """se_mean_eta2 / (mean_eta2 - mean_eta^2) from the stats CSV."""
    row = checks.read_csv(Path(out_dir) / "fig2-solid_stats.csv")[0]
    cov = float(row["mean_eta2"]) - float(row["mean_eta"]) ** 2
    return float(row["se_mean_eta2"]) / cov if cov > 0.0 else -1.0


def fill_cache(seed, cache_dir, out_dir) -> float:
    """Run a cold fig2 pass in a fresh process; return its seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "fill", str(seed),
         str(cache_dir), str(out_dir)],
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError("cache fill failed:\n%s" % out.stderr)
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# correlation maps: Gamma2 on a receiver grid, Gamma4 at receiver pairs
# ---------------------------------------------------------------------------

def corr_channels():
    base = load_scenario(SCENARIO).channel
    return [(label, base.replace(cn2=cn2, length=length))
            for label, cn2, length in CORR_CHANNELS]


def corr_pairs(label):
    pairs = [(R1, R1)]
    if label in SWAP_CHANNELS:
        pairs += [(R1, R2), (R2, R1)]
    return pairs


def correlation_pass(seed, channels):
    """Returns (Pass, values); values[label] = (gamma2 grid, gamma4 list)."""
    result = Pass()
    result.parts = {"gamma2": 0.0, "gamma4": 0.0}
    values = {}
    t_pass = time.perf_counter()
    for label, params in channels:
        grid = np.full((GRID.size, GRID.size), np.nan)
        t0 = time.perf_counter()
        for i, y in enumerate(GRID):
            for j, x in enumerate(GRID):
                result.attempted += 1
                try:
                    grid[i, j] = turbchan.gamma2((float(x), float(y)),
                                                  params)
                except TurbchanError as exc:  # counted; the checks fail
                    result.failed += 1
                    print("gamma2 %s at (%g, %g): %r" % (label, x, y, exc),
                          file=sys.stderr)
        t1 = time.perf_counter()
        g4 = []
        for r1, r2 in corr_pairs(label):
            result.attempted += 1
            try:
                res = turbchan.gamma4(r1, r2, params,
                                     log2_points=GAMMA4_LOG2_POINTS,
                                     seed=seed)
                g4.append((res.value, res.std_error))
            except TurbchanError as exc:
                result.failed += 1
                g4.append((math.nan, math.nan))
                print("gamma4 %s at %s %s: %r" % (label, r1, r2, exc),
                      file=sys.stderr)
        t2 = time.perf_counter()
        result.parts["gamma2"] += t1 - t0
        result.parts["gamma4"] += t2 - t1
        values[label] = (grid, g4)
    result.seconds = time.perf_counter() - t_pass
    return result, values


def correlation_checks(channels, values) -> list:
    import oracles

    xx, yy = np.meshgrid(GRID, GRID)
    radius = np.hypot(xx, yy)
    todo = []
    for label, params in channels:
        grid, g4 = values[label]
        pairs = corr_pairs(label)
        atol = checks.gamma2_atol(params)
        if params.cn2 == 0.0:
            closed = checks.vacuum_gamma2(radius ** 2, params)
            todo.append(lambda g=grid, c=closed, a=atol: checks.check_gamma2(
                g, c, a, "gamma2.vacuum"))
            for (r1, r2), (val, _) in zip(pairs, g4):
                todo.append(lambda v=val, a=r1, b=r2, p=params:
                            checks.check_gamma4_vacuum(v, a, b, p))
            continue
        by_radius = {}
        refs = np.empty_like(grid)
        for idx, r in np.ndenumerate(radius):
            key = round(float(r), 12)
            if key not in by_radius:
                by_radius[key] = oracles.gamma2_point(
                    key, params.cn2, params.length, params.w0,
                    params.wavelength)
            refs[idx] = by_radius[key]
        todo.append(lambda g=grid, rf=refs, a=atol: checks.check_gamma2(
            g, rf, a, "gamma2.oracle"))
        g2_r1 = oracles.gamma2_point(math.hypot(*R1), params.cn2,
                                     params.length, params.w0,
                                     params.wavelength)
        (same, se_same) = g4[0]
        todo.append(lambda v=same, s=se_same, g=g2_r1:
                    checks.check_gamma4_excess(v, s, g))
        if len(g4) == 3:
            (a, sa), (b, sb) = g4[1], g4[2]
            todo.append(lambda a=a, sa=sa, b=b, sb=sb:
                        checks.check_gamma4_swap(a, sa, b, sb))
    return checks.collect(todo)


def same_values(first, other) -> bool:
    return all(np.array_equal(first[k][0], other[k][0], equal_nan=True)
               and first[k][1] == other[k][1] for k in first)


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "fill":
        sys.exit("usage: workloads.py fill SEED CACHE_DIR OUT_DIR")
    done = fig2_pass(int(sys.argv[2]), sys.argv[3], sys.argv[4],
                     FILL_SWEEP_WORKERS)
    if done.failed:
        sys.exit("%d fig2 tables failed" % done.failed)
    print(done.seconds)
