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


def test_stats_shape(tmp_path):
    cache = RunCache(tmp_path / "c")
    cache.put("k", {"v": 1})
    cache.get("k")
    cache.get("absent")
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["salt"] == CODE_SALT


class TestPersistentStats:
    def test_store_counter_tracks_puts(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.stores == 2

    def test_persist_stats_writes_sidecar(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.get("absent")
        life = cache.persist_stats()
        assert life == {"hits": 1, "misses": 1, "stores": 1}
        assert (cache.root / "_stats.meta").exists()

    def test_persist_stats_is_delta_based(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.persist_stats()
        # flushing again with no new activity must not double-count
        assert cache.persist_stats() == {"hits": 1, "misses": 0, "stores": 1}
        cache.get("k")
        assert cache.persist_stats() == {"hits": 2, "misses": 0, "stores": 1}

    def test_lifetime_survives_new_instances(self, tmp_path):
        root = tmp_path / "c"
        c1 = RunCache(root)
        c1.put("k", {"v": 1})
        c1.get("missing")
        c1.persist_stats()
        c2 = RunCache(root)
        c2.get("k")
        life = c2.persist_stats()
        assert life == {"hits": 1, "misses": 1, "stores": 1}
        assert c2.lifetime_stats() == life

    def test_sidecar_not_an_entry(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.persist_stats()
        assert len(cache) == 1  # _stats.meta is not a cache entry
        assert cache.clear() == 1
        # clearing entries keeps the lifetime ledger
        assert (cache.root / "_stats.meta").exists()

    def test_corrupt_sidecar_resets_cleanly(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.root.mkdir(parents=True, exist_ok=True)
        (cache.root / "_stats.meta").write_text("{bad json", encoding="utf-8")
        assert cache.lifetime_stats() == {"hits": 0, "misses": 0, "stores": 0}
        cache.put("k", {"v": 1})
        cache.get("k")
        assert cache.persist_stats() == {"hits": 1, "misses": 0, "stores": 1}

    def test_stats_include_rates_and_lifetime(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.get("k")
        cache.get("absent")
        cache.persist_stats()
        stats = cache.stats()
        assert stats["stores"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["lifetime"] == {"hits": 2, "misses": 1, "stores": 1}
        assert stats["lifetime_hit_rate"] == pytest.approx(2 / 3)


    def test_stats_lifetime_includes_the_unflushed_session(self, tmp_path):
        root = tmp_path / "c"
        c1 = RunCache(root)
        c1.put("k", {"v": 1})
        c1.persist_stats()
        c2 = RunCache(root)
        c2.get("k")
        c2.get("absent")
        # the live view adds c2's delta; the disk view stays disk-only
        assert c2.stats()["lifetime"] == {"hits": 1, "misses": 1, "stores": 1}
        assert c2.stats()["lifetime_hit_rate"] == pytest.approx(1 / 2)
        assert c2.lifetime_stats() == {"hits": 0, "misses": 0, "stores": 1}
        c2.persist_stats()
        assert c2.stats()["lifetime"] == c2.lifetime_stats()

    def test_context_manager_folds_once_on_exit(self, tmp_path):
        with RunCache(tmp_path / "c") as cache:
            cache.put("k", {"v": 1})
            cache.get("k")
            assert not (cache.root / "_stats.meta").exists()
        assert cache.lifetime_stats() == {"hits": 1, "misses": 0, "stores": 1}


def _persist_worker(root: str, rounds: int, barrier) -> None:
    """One concurrent writer: `rounds` interleaved delta persists."""
    cache = RunCache(root)
    barrier.wait()
    for _ in range(rounds):
        cache.hits += 1
        cache.misses += 1
        cache.stores += 1
        cache.persist_stats()


class TestConcurrentPersist:
    """persist_stats must never drop a concurrent writer's delta."""

    def test_two_processes_interleaving_deltas_sum_exactly(self, tmp_path):
        import multiprocessing as mp

        root = tmp_path / "c"
        nprocs, rounds = 2, 25
        ctx = mp.get_context()
        barrier = ctx.Barrier(nprocs)
        procs = [
            ctx.Process(target=_persist_worker, args=(str(root), rounds, barrier))
            for _ in range(nprocs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        expected = nprocs * rounds
        life = RunCache(root).lifetime_stats()
        assert life == {
            "hits": expected, "misses": expected, "stores": expected
        }

    def test_no_lock_droppings_after_persist(self, tmp_path):
        from repro.exec.cache import STATS_LOCK

        cache = RunCache(tmp_path / "c")
        cache.hits += 1
        cache.persist_stats()
        assert not (cache.root / STATS_LOCK).exists()

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time as _time

        from repro.exec.cache import STATS_LOCK, _LOCK_STALE_S

        cache = RunCache(tmp_path / "c")
        cache.root.mkdir(parents=True, exist_ok=True)
        lock = cache.root / STATS_LOCK
        lock.write_text("0", encoding="utf-8")  # orphan from a dead pid
        old = _time.time() - (_LOCK_STALE_S + 5.0)
        os.utime(lock, (old, old))
        cache.hits += 1
        assert cache.persist_stats() == {"hits": 1, "misses": 0, "stores": 0}
        assert not lock.exists()
