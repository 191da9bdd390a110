"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig2-cold --seed 0 --seconds 20 --trace 0

Workloads (see README.md): fig2-cold, fig2-warm, correlation-maps. A run
sets up, repeats whole passes of the workload until --seconds have passed,
checks the outputs and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run measures untraced passes,
then traced passes, and reports the per-layer metrics. A failed check is
named on stderr and the run exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One thread of its own: keep the BLAS and OpenMP pools of numpy and scipy
# single-threaded, in this process and the ones it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("fig2-cold", "fig2-warm", "correlation-maps")
TARGET_REL_SE = 0.05
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def measure(run_pass, seconds) -> list:
    """Whole passes until the given seconds have passed (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(len(passes)))
    return passes


def median_seconds(passes) -> float:
    return statistics.median(p.seconds for p in passes)


class Fig2:
    """fig2-cold and fig2-warm: the six CLI tables of fig2_solid.cfg."""

    def __init__(self, wl, seed, work, warm):
        self.wl, self.seed, self.work, self.warm = wl, seed, work, warm
        self.fill_out = work / "fill-out"
        self.cache = work / "warm-cache"

    def setup(self) -> float:
        if not self.warm:
            return 0.0
        return self.wl.fill_cache(self.seed, self.cache, self.fill_out)

    def out_dir(self, i) -> Path:
        return self.work / ("out-%d" % i)

    def run_pass(self, i):
        cache = self.cache if self.warm else self.work / ("cold-cache-%d" % i)
        return self.wl.fig2_pass(self.seed, cache, self.out_dir(i))

    def check(self, passes) -> list:
        wl, checks = self.wl, self.wl.checks
        first = self.fill_out if self.warm else self.out_dir(0)
        failures = wl.fig2_checks(first)
        reference = checks.csv_bytes(first)
        name = "warm.bytes_identical" if self.warm else "rerun.identical"
        todo = [lambda i=i: checks.check_same_bytes(
            reference, checks.csv_bytes(self.out_dir(i)), name)
            for i in range(len(passes))]
        if self.warm:
            todo += [lambda i=i: checks.check_all_hits(
                wl.fig2_manifests(self.out_dir(i), "fig2-solid"))
                for i in range(len(passes))]
        return failures + checks.collect(todo)

    def time_to_5pct(self, passes) -> float:
        if self.warm:
            return 0.0
        rel = self.wl.headline_rel_se(self.out_dir(0))
        stats_s = statistics.median(p.parts["stats"] for p in passes)
        return stats_s * (rel / TARGET_REL_SE) ** 2 if rel > 0 else -1.0


class CorrelationMaps:
    """Gamma2 grids and Gamma4 pairs on the reference channels."""

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.channels = wl.corr_channels()
        self.values = []

    def setup(self) -> float:
        return 0.0

    def run_pass(self, i):
        result, values = self.wl.correlation_pass(self.seed, self.channels)
        self.values.append(values)
        return result

    def check(self, passes) -> list:
        wl = self.wl
        failures = wl.correlation_checks(self.channels, self.values[0])
        return failures + wl.checks.collect([
            lambda v=v: wl.checks.require(
                wl.same_values(self.values[0], v), "rerun.identical",
                "a later pass computed different values")
            for v in self.values[1:]])

    def time_to_5pct(self, passes) -> float:
        return 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, work) -> dict:
    import layers
    import workloads as wl

    if args.workload == "correlation-maps":
        workload = CorrelationMaps(wl, args.seed)
    else:
        workload = Fig2(wl, args.seed, work, args.workload == "fig2-warm")
    setup_s = wl.import_seconds() + workload.setup()

    passes = measure(workload.run_pass, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": median_seconds(passes), "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb}
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    if args.trace:
        tracer = layers.install()
        try:
            traced = measure(lambda i: workload.run_pass(len(passes) + i),
                             args.seconds)
        finally:
            tracer.remove()
        extra = {"time_to_5pct_s": workload.time_to_5pct(passes),
                 "trace.overhead_s":
                     median_seconds(traced) - median_seconds(passes)}
        values = layers.per_layer(tracer, traced, extra)
        metrics = {k: (v, layers.PER_LAYER_UNITS[k]) for k, v in values.items()}
        passes = passes + traced

    failures = workload.check(passes)
    for f in failures:
        print("CHECK FAILED %s" % f, file=sys.stderr)
    return {"correct": not failures,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "turbchan" / "cli.py").is_file():
        print("turbchan sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    work = WORK / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json"
                % (args.workload, args.seed, args.trace))).write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
