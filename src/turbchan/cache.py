"""Content-addressed cache for computed beam statistics.

Entries are keyed by a sha256 over the channel parameters, the sampling
budget, the RNG seed, the kernel version and numpy's dispatch class (whose
float32 loops set the scan's last bits), so any change that could alter
the numbers is a miss by construction, also in a cache shared by hosts of
different classes. Files carry their own payload hash; a failed integrity
check degrades to a miss with a warning rather than an error, since the
pipeline can always recompute. A lookup that has to
sample may also compute and store companion channels in the same pass, so
that later lookups of them are hits.
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
from .errors import TurbchanError
from .kernels import KERNEL_VERSION, dispatch_class
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
        "dispatch_class": dispatch_class(),
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
                              cache_dir=None, enabled: bool = True,
                              companions=()) -> list:
    """channel_stats_many with a read-through cache.

    Reads every key first, computes only the misses in one batch (so they
    share one covariance pass, which needs a common w0 and aperture radius)
    and writes each new entry. Returns one (stats, hit) pair per channel;
    hit says whether the value came from disk. A channel listed twice is
    computed once.

    companions are channels the caller expects to need next (they must
    share the w0 and aperture radius of channels). When some channel misses
    and the cache is enabled, the companions not yet cached join the batch
    and are written too, since adding a channel to a pass costs far less
    than a pass of its own; no pair is returned for them. If that batch
    fails, it is rerun on the requested misses alone, so a companion's
    error never fails this call.
    """
    keys = [stats_key(p, budget, seed) for p in channels]
    found = {k: stats_cache_get(k, cache_dir) for k in keys} if enabled else {}
    missing = {k: p for k, p in zip(keys, channels) if found.get(k) is None}
    if not missing:
        return [(found[k], True) for k in keys]
    batch = dict(missing)
    if enabled:
        for p in companions:
            k = stats_key(p, budget, seed)
            if (k not in found and k not in batch
                    and stats_cache_get(k, cache_dir) is None):
                batch[k] = p

    def compute(todo):
        return dict(zip(todo, channel_stats_many(list(todo.values()),
                                                 budget, seed=seed)))

    try:
        fresh = compute(batch)
    except TurbchanError:
        if len(batch) == len(missing):
            raise
        fresh = compute(missing)
    if enabled:
        for k, stats in fresh.items():
            stats_cache_put(k, stats, cache_dir)
    return [(fresh[k], False) if k in fresh else (found[k], True)
            for k in keys]
