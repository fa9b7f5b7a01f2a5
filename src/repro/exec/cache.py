"""Content-addressed on-disk cache of run records.

Every routing run in this repository is deterministic: the circuit
generator, the router, and the simulated MPI runtime are all driven by
explicit seeds, so a run is fully determined by its spec — circuit name,
scale and seed, router and parallel configs, machine model, algorithm,
and processor count.  The cache keys records by a SHA-256 over the
canonical JSON of that spec plus :data:`CODE_SALT`, and stores one JSON
file per record under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable).

Invalidation rules
------------------
* Any spec change — different seed, scale, config knob, machine, or
  processor count — is a different key; nothing is ever overwritten with
  non-identical content.
* :data:`CODE_SALT` must be bumped whenever a code change alters routed
  quality or modeled time for an unchanged spec (the golden tests in
  ``tests/grid/test_kernel_equivalence.py`` are the tripwire for such
  changes).  Bumping the salt orphans old entries; ``repro cache
  --clear`` removes them.
* A corrupt or truncated cache file is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

#: Version salt folded into every cache key.  Bump when routing
#: semantics, modeled costs, or the record schema change.
#: v2: run records embed a per-step ``profile`` section.
#: v3: ``RouterConfig.backend`` is gone from point specs and profiles.
#: v4: ``RouterConfig.strict_kernels`` is gone from point specs.
#: v5: ``RouterConfig.transport`` defaults to ``"inprocess"`` instead of
#: an environment-resolved value, so a spec names the transport it runs on.
CODE_SALT = "repro-exec-v5"

#: default cache directory (relative to the current working directory)
DEFAULT_CACHE_DIR = ".repro_cache"

#: sidecar holding lifetime hit/miss/store tallies.  Deliberately not a
#: ``*.json`` name: ``__len__``/``clear`` glob ``*.json`` for records and
#: must never count (or delete) the bookkeeping file.
STATS_FILE = "_stats.meta"

#: lockfile serializing the sidecar's read-modify-write (same non-JSON
#: naming rule as :data:`STATS_FILE`)
STATS_LOCK = "_stats.lock"

#: a lock older than this is presumed left by a dead process and broken
_LOCK_STALE_S = 10.0

#: bounded acquisition: retries × sleep bounds the worst-case wait well
#: under the stale threshold, so two healthy writers always interleave
_LOCK_RETRIES = 200
_LOCK_SLEEP_S = 0.005


class _StatsLock:
    """``O_CREAT|O_EXCL`` lockfile with bounded retry and stale-breaking.

    Advisory and portable (no ``fcntl`` dependency): creation is atomic
    on POSIX and NT, so exactly one process holds the lock at a time.
    A crash between create and unlink leaves a stale file; any waiter
    that sees it older than :data:`_LOCK_STALE_S` removes it and retries.
    Failing to acquire within the retry budget degrades to proceeding
    unlocked — advisory counters must never wedge a sweep — and the
    caller reports whether the lock was actually held.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._held = False

    def acquire(self) -> bool:
        for _ in range(_LOCK_RETRIES):
            try:
                fd = os.open(
                    self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                try:
                    age = time.time() - self._path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_S:
                    try:
                        self._path.unlink()
                    except OSError:
                        pass
                    continue
                time.sleep(_LOCK_SLEEP_S)
                continue
            except OSError:
                return False  # unwritable root: no serialization possible
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            finally:
                os.close(fd)
            self._held = True
            return True
        return False

    def release(self) -> None:
        if self._held:
            self._held = False
            try:
                self._path.unlink()
            except OSError:
                pass

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *_exc: Any) -> None:
        self.release()


def cache_key(spec: Dict[str, Any], salt: str = CODE_SALT) -> str:
    """SHA-256 content address of a run spec.

    The spec must be JSON-serializable; canonical form uses sorted keys
    and compact separators so dict ordering can never split the cache.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{salt}|{canonical}".encode("utf-8")).hexdigest()


class RunCache:
    """A directory of ``<key>.json`` run records with hit/miss counters.

    Used as a context manager, the cache folds its session tallies into
    the lifetime sidecar once, on exit (:meth:`persist_stats`).

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan`; its
    ``on_cache`` hook runs inside :meth:`get` (an injected ``OSError``
    is indistinguishable from a corrupt file: a miss) and at the top of
    :meth:`put` (the error propagates, as a real full-disk write would).
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        faults: Optional[Any] = None,
    ) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if faults is None:
            from repro.faults.plan import NULL_FAULT_PLAN

            faults = NULL_FAULT_PLAN
        self._faults = faults
        # what persist_stats() has already folded into the sidecar, so
        # repeated persists never double-count this instance's tallies
        self._flushed = (0, 0, 0)

    def __enter__(self) -> "RunCache":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.persist_stats()

    def path_for(self, key: str) -> Path:
        """Where the record for ``key`` lives (whether or not it exists)."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        from repro.obs.metrics import REGISTRY

        path = self.path_for(key)
        try:
            self._faults.on_cache("get")
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            REGISTRY.counter("cache.miss").inc()
            return None
        self.hits += 1
        REGISTRY.counter("cache.hit").inc()
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic rename, last write wins).

        Concurrent writers are safe: determinism means any two writers
        of the same key hold identical content.
        """
        from repro.obs.metrics import REGISTRY

        self._faults.on_cache("put")
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        REGISTRY.counter("cache.store").inc()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- stats ---------------------------------------------------------
    @property
    def _stats_path(self) -> Path:
        return self.root / STATS_FILE

    def lifetime_stats(self) -> Dict[str, int]:
        """Persisted hit/miss/store tallies (zeros when never persisted)."""
        try:
            data = json.loads(self._stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}
        return {
            "hits": int(data.get("hits", 0)),
            "misses": int(data.get("misses", 0)),
            "stores": int(data.get("stores", 0)),
        }

    def _unflushed(self) -> Tuple[int, int, int]:
        """This instance's hits/misses/stores not yet in the sidecar."""
        return (
            self.hits - self._flushed[0],
            self.misses - self._flushed[1],
            self.stores - self._flushed[2],
        )

    def persist_stats(self) -> Dict[str, int]:
        """Fold this instance's tallies into the on-disk sidecar.

        The cache's owner calls this once, when it is done with the
        cache — a CLI command on exit (``with RunCache(...)``), the
        service in :meth:`~repro.service.core.RoutingService.stop` —
        so no request or sweep pays for the sidecar write.

        The read-modify-write (load ``lifetime_stats``, add this
        instance's unflushed delta, atomic replace) is serialized with a
        lockfile (:class:`_StatsLock`): concurrent owners of one cache
        root — parallel CLI invocations, services — merge their deltas
        instead of last-write-wins dropping each other's tallies.  Safe
        to call repeatedly; only the delta since the last persist is
        added.  If the lock cannot be acquired within its bounded retry
        budget (pathological contention or an unwritable root) the fold
        still happens — one delta racing beats wedging the run for
        advisory counters.
        """
        delta = self._unflushed()
        self.root.mkdir(parents=True, exist_ok=True)
        with _StatsLock(self.root / STATS_LOCK) as locked:
            if not locked:
                from repro.obs.metrics import REGISTRY

                REGISTRY.counter("cache.stats_lock_timeouts").inc()
            # merge against the latest on-disk totals *while holding the
            # lock*, so the window between read and replace is exclusive
            life = self.lifetime_stats()
            life["hits"] += delta[0]
            life["misses"] += delta[1]
            life["stores"] += delta[2]
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(life, fh, separators=(",", ":"))
                os.replace(tmp, self._stats_path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._flushed = (self.hits, self.misses, self.stores)
        return life

    def stats(self) -> Dict[str, Any]:
        """Counters and location, for CLI reporting.

        ``hits``/``misses``/``stores`` are this instance's session
        tallies; ``lifetime`` is the persisted sidecar plus this
        instance's delta not yet folded in by :meth:`persist_stats`, so
        a live owner (a running service) reports its own activity too.
        :meth:`lifetime_stats` stays disk-only.
        """
        looked_up = self.hits + self.misses
        life = self.lifetime_stats()
        for name, delta in zip(("hits", "misses", "stores"), self._unflushed()):
            life[name] += delta
        life_lookups = life["hits"] + life["misses"]
        return {
            "root": str(self.root),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": (self.hits / looked_up) if looked_up else None,
            "lifetime": life,
            "lifetime_hit_rate": (
                life["hits"] / life_lookups if life_lookups else None
            ),
            "salt": CODE_SALT,
        }
