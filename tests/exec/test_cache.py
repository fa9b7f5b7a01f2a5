"""Run cache: key canonicalization, atomic round trips, miss semantics."""

from __future__ import annotations

import json

import pytest

from repro.exec.cache import CODE_SALT, DEFAULT_CACHE_DIR, RunCache, cache_key


def test_key_ignores_dict_insertion_order():
    a = {"circuit": "primary1", "nprocs": 4, "scale": 0.1}
    b = {"scale": 0.1, "circuit": "primary1", "nprocs": 4}
    assert cache_key(a) == cache_key(b)


def test_key_sensitive_to_every_field():
    base = {"circuit": "primary1", "nprocs": 4, "seed": 1}
    assert cache_key(base) != cache_key({**base, "nprocs": 8})
    assert cache_key(base) != cache_key({**base, "seed": 2})
    assert cache_key(base) != cache_key({**base, "circuit": "primary2"})


def test_key_sensitive_to_salt():
    spec = {"circuit": "primary1"}
    assert cache_key(spec, salt=CODE_SALT) != cache_key(spec, salt="other-salt")


def test_key_distinguishes_float_from_int():
    # json canonical form keeps 1 and 1.0 distinct ("1" vs "1.0")
    assert cache_key({"scale": 1}) != cache_key({"scale": 1.0})


def test_round_trip_preserves_floats_exactly(tmp_path):
    cache = RunCache(tmp_path / "c")
    payload = {"model_time": 1.5711812500000188, "tracks": 64, "nested": [0.1, 0.2]}
    cache.put("k1", payload)
    got = cache.get("k1")
    assert got == payload
    assert got["model_time"] == 1.5711812500000188


def test_miss_then_hit_counters(tmp_path):
    cache = RunCache(tmp_path / "c")
    assert cache.get("nope") is None
    cache.put("yes", {"v": 1})
    assert cache.get("yes") == {"v": 1}
    assert cache.misses == 1
    assert cache.hits == 1


def test_corrupt_file_is_a_miss(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"v": 1})
    cache.path_for("k").write_text("{truncated", encoding="utf-8")
    assert cache.get("k") is None
    cache.put("k", {"v": 2})  # rewritten cleanly
    assert cache.get("k") == {"v": 2}


def test_len_and_clear(tmp_path):
    cache = RunCache(tmp_path / "c")
    assert len(cache) == 0
    for i in range(3):
        cache.put(f"k{i}", {"i": i})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_env_var_overrides_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    cache = RunCache()
    assert cache.root == tmp_path / "envcache"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert str(RunCache().root) == DEFAULT_CACHE_DIR


def test_put_writes_compact_valid_json(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"a": [1, 2], "b": 0.5})
    raw = cache.path_for("k").read_text(encoding="utf-8")
    assert json.loads(raw) == {"a": [1, 2], "b": 0.5}
    assert " " not in raw  # compact separators


def test_no_tmp_droppings_after_put(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"v": 1})
    leftovers = [p for p in cache.root.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_store_counter_tracks_puts(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.stores == 2


def test_stats_shape(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"v": 1})
    cache.get("k")
    cache.get("absent")
    stats = cache.stats()
    assert set(stats) == {
        "root", "entries", "hits", "misses", "stores", "hit_rate", "salt",
    }
    assert stats["root"] == str(cache.root)
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["salt"] == CODE_SALT


def test_stats_include_rates(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"v": 1})
    cache.get("k")
    cache.get("k")
    cache.get("absent")
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["stores"]) == (2, 1, 1)
    assert stats["hit_rate"] == pytest.approx(2 / 3)
    assert RunCache(tmp_path / "empty").stats()["hit_rate"] is None
