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
from pathlib import Path
from typing import Any, Dict, Optional, Union

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


def cache_key(spec: Dict[str, Any], salt: str = CODE_SALT) -> str:
    """SHA-256 content address of a run spec.

    The spec must be JSON-serializable; canonical form uses sorted keys
    and compact separators so dict ordering can never split the cache.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{salt}|{canonical}".encode("utf-8")).hexdigest()


class RunCache:
    """A directory of ``<key>.json`` run records with hit/miss counters.

    ``hits``/``misses``/``stores`` count this instance's lookups; the
    process-wide ``cache.hit``/``cache.miss``/``cache.store`` counters
    in :data:`~repro.obs.metrics.REGISTRY` count the same events.

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

    def stats(self) -> Dict[str, Any]:
        """Location, entry count and this instance's session counters."""
        looked_up = self.hits + self.misses
        return {
            "root": str(self.root),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": (self.hits / looked_up) if looked_up else None,
            "salt": CODE_SALT,
        }
