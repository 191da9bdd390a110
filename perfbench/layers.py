"""Per-layer tracing: wrap turbchan's public functions and time each call.

A :class:`Tracer` replaces a function under every name it is imported by
(``turbchan.cli.composite_pdt_density`` and ``turbchan.pdt.composite_pdt_
density`` are one function) with a wrapper that records calls, inclusive
seconds and self seconds (inclusive minus the time spent in other wrapped
calls it made). Optional hooks count work from the arguments or the result.
The spans live in memory; :meth:`Tracer.remove` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


class Layer:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.layers = defaultdict(Layer)
        self._stack = []
        self._patched = []

    def wrap(self, module: str, name: str, hook=None) -> None:
        """Trace module.name, under the key '<module minus turbchan.>.name'.

        hook(layer, args, kwargs, result) runs after each call, outside the
        timed span.
        """
        original = getattr(importlib.import_module(module), name)
        key = "%s.%s" % (module.removeprefix("turbchan."), name)
        layer = self.layers[key]
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                layer.calls += 1
                layer.s += dt
                layer.self_s += dt - children[0]
            if hook is not None:
                hook(layer, args, kwargs, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "turbchan" and not mod_name.startswith("turbchan."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# turbchan's layers
# ---------------------------------------------------------------------------

def _node_evals(layer, args, kwargs, result):
    # ds_segment(rx, ry, px, py, prefactor, nodes=GL_NODES, ...)
    from turbchan.kernels import structure_function
    nodes = args[5] if len(args) > 5 else kwargs.get(
        "nodes", structure_function.GL_NODES)
    layer.counts["node_evals"] += np.broadcast(*args[:4]).size * len(nodes)


def _points(layer, args, kwargs, result):
    layer.counts["points"] += result.diagnostics["points"]


def _cache_lookup(layer, args, kwargs, result):
    layer.counts["misses" if result is None else "hits"] += 1


def _cov_rel_se(layer, args, kwargs, st):
    # se_mean_eta2 / (mean_eta2 - mean_eta^2) of the last call at a length;
    # -1 when the covariance was clamped to 0.
    cov = st.mean_eta2 - st.mean_eta ** 2
    layer.counts["cov_rel_se@%g" % args[0].length] = (
        st.se_mean_eta2 / cov if cov > 0.0 else -1.0)


def _component_evals(layer, args, kwargs, result):
    eta, c = args[0], args[1]
    layer.counts["component_evals"] += c.radii.size * np.size(eta)


QUAD = ("mean_eta_quad", "sigma_bw2_quad", "mass_cut_radius", "x2_moment")
REL_SE_LENGTHS_KM = (1, 4, 10, 16)

TRACED = (
    ("turbchan.kernels.structure_function", "ds_segment", _node_evals),
    ("turbchan.kernels.gamma4", "aperture_cov_qmc", _points),
    ("turbchan.kernels.gamma4", "gamma4", _points),
    ("turbchan.kernels.gamma2", "gamma2", None),
    ("turbchan.kernels.stats", "channel_stats", _cov_rel_se),
) + tuple(("turbchan.kernels.stats", q, None) for q in QUAD) + (
    ("turbchan.cache", "stats_cache_get", _cache_lookup),
    ("turbchan.cache", "stats_cache_put", None),
    ("turbchan.pdt", "composite_pdt_build", None),
    ("turbchan.pdt", "composite_pdt_density", _component_evals),
    ("turbchan.pdt", "composite_pdt_sample", None),
    ("turbchan.pdt", "trunc_lognormal_sample", None),
    ("turbchan.tracking", "tracked_pdt", None),
    ("turbchan.tracking", "tracked_exceedance", None),
    ("turbchan.tracking", "postselected_moments", None),
    ("turbchan.tracking", "transmitted_squeezing_db", None),
    ("turbchan.qkd", "averaged_key_rate", None),
    ("turbchan.config", "load_scenario", None),
)

CLI_TABLES = ("stats", "pdt", "exceedance", "squeezing", "qkd", "sweep")


def _unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if ".cov_rel_se." in name:
        return "ratio"
    return "count"


# (layer key, field) for every per-layer metric read from the tracer; the
# metric name is '<key>.<field>'.
TRACED_METRICS = (
    ("kernels.structure_function.ds_segment", ("s", "calls", "node_evals")),
    ("kernels.gamma4.aperture_cov_qmc", ("self_s", "points")),
    ("kernels.gamma4.gamma4", ("self_s", "calls", "points")),
    ("kernels.gamma2.gamma2", ("s", "calls")),
    ("kernels.stats.channel_stats", ("s", "self_s", "calls")),
    ("cache.stats_cache_get", ("s",)),
    ("cache.stats_cache_put", ("s",)),
    ("pdt.composite_pdt_build", ("s",)),
    ("pdt.composite_pdt_density", ("s", "calls", "component_evals")),
    ("pdt.composite_pdt_sample", ("s",)),
    ("pdt.trunc_lognormal_sample", ("s",)),
    ("tracking.tracked_pdt", ("s", "calls")),
    ("tracking.tracked_exceedance", ("s", "self_s")),
    ("tracking.postselected_moments", ("s", "calls")),
    ("tracking.transmitted_squeezing_db", ("s", "self_s")),
    ("qkd.averaged_key_rate", ("s", "calls")),
)

PER_LAYER = tuple(
    ["%s.%s" % (key, f) for key, fields in TRACED_METRICS for f in fields]
    + ["kernels.stats.quad.s"]
    + ["kernels.stats.cov_rel_se.%dkm" % L for L in REL_SE_LENGTHS_KM]
    + ["cache.hits", "cache.misses"]
    + ["cli.%s.s" % t for t in CLI_TABLES]
    + ["config.load_scenario.s", "time_to_5pct_s", "trace.overhead_s"])
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


def install() -> Tracer:
    """Wrap every traced function of turbchan."""
    tracer = Tracer()
    for module, name, hook in TRACED:
        tracer.wrap(module, name, hook)
    return tracer


def per_layer(tracer, passes, extra) -> dict:
    """Per-layer values per pass, averaged over the traced passes.

    extra supplies time_to_5pct_s and trace.overhead_s; cli.<table>.s is
    the median over the passes of the benchmark's own span around each
    table. A layer a workload does not exercise reads 0.
    """
    n = len(passes)
    layers = tracer.layers
    out = {}
    for key, fields in TRACED_METRICS:
        layer = layers[key]
        for f in fields:
            if f in ("s", "self_s", "calls"):
                val = getattr(layer, f)
            else:
                val = layer.counts[f]
            out["%s.%s" % (key, f)] = val / n
    out["kernels.stats.quad.s"] = sum(
        layers["kernels.stats.%s" % q].s for q in QUAD) / n
    stats = layers["kernels.stats.channel_stats"].counts
    for L in REL_SE_LENGTHS_KM:
        out["kernels.stats.cov_rel_se.%dkm" % L] = stats.get(
            "cov_rel_se@%g" % (1000.0 * L), 0.0)
    get = layers["cache.stats_cache_get"]
    out["cache.hits"] = get.counts["hits"] / n
    out["cache.misses"] = get.counts["misses"] / n
    for t in CLI_TABLES:
        times = [p.parts[t] for p in passes if t in p.parts]
        out["cli.%s.s" % t] = statistics.median(times) if times else 0.0
    load = layers["config.load_scenario"]
    out["config.load_scenario.s"] = load.s / load.calls if load.calls else 0.0
    out.update(extra)
    return {name: float(out[name]) for name in PER_LAYER}
