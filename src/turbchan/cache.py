"""Content-addressed cache for computed beam statistics.

Entries are keyed by a sha256 over the channel parameters, the sampling
budget, the RNG seed and the kernel version, so any change that could alter
the numbers is a miss by construction. Files carry their own payload hash;
a failed integrity check degrades to a miss with a warning rather than an
error, since the pipeline can always recompute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path

from .channel import ChannelParams
from .kernels import KERNEL_VERSION
from .kernels.stats import BeamStats, StatsBudget, channel_stats_many

ENV_CACHE_DIR = "TURBCHAN_CACHE_DIR"
CACHE_FORMAT = "turbchan.stats-cache"
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "turbchan"


def _digest(obj) -> str:
    """sha256 of the canonical (sorted, compact) JSON of obj."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def stats_key(params: ChannelParams, budget: StatsBudget, seed: int) -> str:
    """Content hash identifying one channel_stats evaluation."""
    payload = {
        "channel": dataclasses.asdict(params),
        "budget": dataclasses.asdict(budget),
        "seed": int(seed),
        "kernel_version": KERNEL_VERSION,
    }
    return _digest(payload)


def _entry_path(cache_dir, key) -> Path:
    return Path(cache_dir) / ("%s.json" % key)


def stats_cache_put(key: str, stats: BeamStats, cache_dir=None) -> Path:
    """Store a BeamStats entry atomically (write-temp-rename)."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(stats)
    entry = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "key": key,
        "payload": payload,
        "payload_sha256": _digest(payload),
        "written_at": time.time(),
    }
    path = _entry_path(cache_dir, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=key[:16], suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def stats_cache_get(key: str, cache_dir=None):
    """Return the cached BeamStats for key, or None on miss.

    Corrupt entries (unreadable JSON or not an entry object, wrong format,
    payload hash mismatch) are reported with a warning and treated as
    misses.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _entry_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        if (entry.get("format") != CACHE_FORMAT
                or entry.get("version") != CACHE_VERSION
                or entry.get("key") != key):
            problem = "entry header does not match key %s" % key
        elif _digest(entry["payload"]) != entry.get("payload_sha256"):
            problem = "payload hash mismatch in %s" % path
        else:
            return BeamStats(**entry["payload"])
    # AttributeError: the entry is not a JSON object; TypeError: its
    # payload does not fit BeamStats.
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
        problem = "unreadable entry %s (%s)" % (path, exc)
    warnings.warn("stats cache: %s; recomputing" % problem, RuntimeWarning)
    return None


def cached_channel_stats_many(channels, budget: StatsBudget, seed: int = 0,
                              cache_dir=None, enabled: bool = True) -> list:
    """channel_stats_many with a read-through cache.

    Reads every key first, computes only the misses in one batch (so they
    share one covariance pass, which needs a common w0 and aperture radius)
    and writes each new entry. Returns one
    (stats, hit) pair per channel; hit says whether the value came from
    disk. A channel listed twice is computed once.
    """
    keys = [stats_key(p, budget, seed) for p in channels]
    found = {k: stats_cache_get(k, cache_dir) for k in keys} if enabled else {}
    missing = {k: p for k, p in zip(keys, channels) if found.get(k) is None}
    fresh = dict(zip(missing, channel_stats_many(list(missing.values()),
                                                 budget, seed=seed)))
    if enabled:
        for k, stats in fresh.items():
            stats_cache_put(k, stats, cache_dir)
    return [(fresh[k], False) if k in fresh else (found[k], True)
            for k in keys]

