"""Content-addressed stats cache: keys, integrity, read-through wrapper."""

import hashlib
import json
import os

import numpy as np
import pytest

from turbchan import (ChannelParams, StatsBudget, cache,
                      cached_channel_stats_many, channel_stats,
                      default_cache_dir, stats_cache_get, stats_cache_put,
                      stats_key)
from turbchan.kernels import dispatch_class

BUDGET = StatsBudget(10)


@pytest.fixture(scope="module")
def chan():
    return ChannelParams(cn2=4e-14, wavelength=800e-9, length=1000.0,
                         w0=0.02, aperture_radius=0.04)


@pytest.fixture(scope="module")
def small_stats(chan):
    return channel_stats(chan, BUDGET, seed=0)


def assert_stats_equal(a, b):
    assert a.mean_eta == b.mean_eta
    assert a.mean_eta2 == b.mean_eta2
    assert a.sigma_bw2 == b.sigma_bw2
    assert a.wst2 == b.wst2
    assert a.se_mean_eta == b.se_mean_eta
    assert a.se_mean_eta2 == b.se_mean_eta2
    assert a.se_sigma_bw2 == b.se_sigma_bw2


def test_key_shape_and_sensitivity(chan):
    key = stats_key(chan, BUDGET, 0)
    assert len(key) == 64 and all(c in "0123456789abcdef" for c in key)
    assert key == stats_key(chan, BUDGET, 0)
    assert key != stats_key(chan, BUDGET, 1)
    assert key != stats_key(chan, StatsBudget(11), 0)
    other = ChannelParams(cn2=3e-15, wavelength=800e-9, length=1000.0,
                          w0=0.02, aperture_radius=0.04)
    assert key != stats_key(other, BUDGET, 0)


def fake_simd(monkeypatch, ext):
    def show_config(mode):
        if ext is None:  # numpy before 1.25 has no mode argument
            raise TypeError("show_config() got an unexpected keyword")
        return {"SIMD Extensions": ext}
    monkeypatch.setattr(np, "show_config", show_config)


@pytest.mark.parametrize("ext, cls", [
    ({"baseline": ["X86_V2"], "found": ["X86_V3", "X86_V4", "AVX512_ICL"]},
     "X86_V4"),
    ({"baseline": ["X86_V2"], "not found": ["X86_V3", "X86_V4"]}, "X86_V2"),
    ({"baseline": ["SSE", "SSE2"], "found": ["AVX2"]}, "SSE SSE2 AVX2"),
    (None, None),
])
def test_dispatch_class(monkeypatch, ext, cls):
    fake_simd(monkeypatch, ext)
    assert dispatch_class() == cls


def test_key_holds_dispatch_class(tmp_path, chan, small_stats, monkeypatch):
    # numpy's float32 loops give each dispatch class its own scan bits, so a
    # cache shared by hosts of two classes misses on the other's entries.
    fake_simd(monkeypatch, {"baseline": ["X86_V2"], "found": ["X86_V3"]})
    key = stats_key(chan, BUDGET, 0)
    stats_cache_put(key, small_stats, tmp_path)
    fake_simd(monkeypatch, {"baseline": ["X86_V2"],
                            "found": ["X86_V3", "X86_V4"]})
    assert stats_key(chan, BUDGET, 0) != key
    monkeypatch.setattr(cache, "channel_stats_many",
                        lambda chans, budget, seed: [small_stats] * len(chans))
    [(_, hit)] = cached_channel_stats_many([chan], BUDGET, cache_dir=tmp_path)
    assert not hit


def test_roundtrip(tmp_path, chan, small_stats):
    key = stats_key(chan, BUDGET, 0)
    path = stats_cache_put(key, small_stats, tmp_path)
    assert path.exists() and path.parent == tmp_path
    back = stats_cache_get(key, tmp_path)
    assert back is not None
    assert_stats_equal(back, small_stats)
    # Atomic write leaves no temp droppings behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == [key + ".json"]


def test_miss_returns_none(tmp_path, chan):
    assert stats_cache_get(stats_key(chan, BUDGET, 123), tmp_path) is None


def test_payload_tamper_detected(tmp_path, chan, small_stats):
    key = stats_key(chan, BUDGET, 0)
    path = stats_cache_put(key, small_stats, tmp_path)
    entry = json.loads(path.read_text())
    entry["payload"]["mean_eta"] = 0.123
    path.write_text(json.dumps(entry))
    with pytest.warns(RuntimeWarning, match="hash mismatch"):
        assert stats_cache_get(key, tmp_path) is None


def test_header_key_mismatch_detected(tmp_path, chan, small_stats):
    key = stats_key(chan, BUDGET, 0)
    other = stats_key(chan, BUDGET, 77)
    path = stats_cache_put(key, small_stats, tmp_path)
    os.replace(path, tmp_path / (other + ".json"))
    with pytest.warns(RuntimeWarning, match="header"):
        assert stats_cache_get(other, tmp_path) is None


def test_version_mismatch_detected(tmp_path, chan, small_stats):
    key = stats_key(chan, BUDGET, 0)
    path = stats_cache_put(key, small_stats, tmp_path)
    entry = json.loads(path.read_text())
    entry["version"] = 99
    path.write_text(json.dumps(entry))
    with pytest.warns(RuntimeWarning):
        assert stats_cache_get(key, tmp_path) is None


# A sound header over a list payload that carries its true hash.
LIST_PAYLOAD = {"payload": [],
                "payload_sha256": hashlib.sha256(b"[]").hexdigest()}


@pytest.mark.parametrize(
    "body", ["{ not json", "[]", "1", '"x"', LIST_PAYLOAD],
    ids=["not-json", "list", "number", "string", "list-payload"])
def test_garbage_file_degrades_to_miss(tmp_path, chan, small_stats, body):
    key = stats_key(chan, BUDGET, 0)
    path = stats_cache_put(key, small_stats, tmp_path)
    if isinstance(body, dict):
        body = json.dumps(dict(json.loads(path.read_text()), **body))
    path.write_text(body)
    with pytest.warns(RuntimeWarning, match="unreadable"):
        assert stats_cache_get(key, tmp_path) is None


def test_read_through_wrapper(tmp_path, chan):
    s1, hit1 = cached_channel_stats_many([chan], BUDGET, seed=0,
                                         cache_dir=tmp_path)[0]
    assert hit1 is False
    s2, hit2 = cached_channel_stats_many([chan], BUDGET, seed=0,
                                         cache_dir=tmp_path)[0]
    assert hit2 is True
    assert_stats_equal(s1, s2)
    # A different seed is a different entry.
    _, hit3 = cached_channel_stats_many([chan], BUDGET, seed=1,
                                        cache_dir=tmp_path)[0]
    assert hit3 is False


def test_batched_wrapper_computes_only_misses(tmp_path, chan):
    chans = [chan.replace(length=L) for L in (1000.0, 2000.0, 3000.0)]
    cached_channel_stats_many([chans[1]], BUDGET, seed=0, cache_dir=tmp_path)
    got = cached_channel_stats_many(chans, BUDGET, seed=0, cache_dir=tmp_path)
    assert [hit for _, hit in got] == [False, True, False]
    for c, (stats, _) in zip(chans, got):
        assert_stats_equal(stats, channel_stats(c, BUDGET, seed=0))
    assert len(list(tmp_path.iterdir())) == 3
    again = cached_channel_stats_many(chans, BUDGET, seed=0,
                                      cache_dir=tmp_path)
    assert [hit for _, hit in again] == [True, True, True]


def test_disabled_cache_never_touches_disk(tmp_path, chan):
    s1, hit = cached_channel_stats_many([chan], BUDGET, seed=0,
                                        cache_dir=tmp_path, enabled=False)[0]
    assert hit is False
    assert list(tmp_path.iterdir()) == []
    s2, hit = cached_channel_stats_many([chan], BUDGET, seed=0,
                                        cache_dir=tmp_path, enabled=False)[0]
    assert hit is False
    assert_stats_equal(s1, s2)


def test_env_var_selects_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TURBCHAN_CACHE_DIR", str(tmp_path / "xdir"))
    assert default_cache_dir() == tmp_path / "xdir"
    monkeypatch.delenv("TURBCHAN_CACHE_DIR")
    assert default_cache_dir().name == "turbchan"


def test_env_var_used_by_wrapper(tmp_path, monkeypatch, chan):
    target = tmp_path / "envcache"
    monkeypatch.setenv("TURBCHAN_CACHE_DIR", str(target))
    _, hit = cached_channel_stats_many([chan], BUDGET, seed=0)[0]
    assert hit is False
    assert target.exists() and len(list(target.iterdir())) == 1
    _, hit = cached_channel_stats_many([chan], BUDGET, seed=0)[0]
    assert hit is True
