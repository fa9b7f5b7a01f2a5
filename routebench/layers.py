"""Per-layer probes for the traced benchmark run.

The benchmark measures layers from its own files: :class:`Probes` wraps
public functions at the module namespace that calls them, times each
call, and files a span in a :class:`Recorder`.  Nothing under ``src/``
knows about the probes.  ``install()`` patches and ``uninstall()``
restores the original attributes, so untraced phases run the program
exactly as shipped.  Spans stay in memory and are written out once,
when the run ends (:meth:`Recorder.dump`).

Wrapped calls and the namespace they are patched in:

=====================================  ==========================  ==================
callee                                 patched at                  span / sample
=====================================  ==========================  ==================
``mcnc.generate``                      its definition              ``circuits.generate``
``build_net_tree``                     ``repro.twgr.router``       ``steiner.build_net_tree`` (µs)
``run_sweep_salvage``                  ``repro.service.core``      ``exec.execute``
``record_from_results``                ``repro.exec.engine``       route host seconds
``RunCache.get`` / ``RunCache.put``    its definition              ``exec.cache_get/put``
``RunRecord.to_dict``                  its definition              ``exec.record_encode``
``point_from_request``                 ``repro.service.core``      ``service.parse``
``RoutingService.submit``              its definition              ``service.submit``
=====================================  ==========================  ==================

Calls inside one ``run_sweep_salvage`` share a parent span id through a
thread-local context (each service worker thread runs one call at a
time), which is how a miss is split into circuit build, route, cache
store and the engine overhead left over.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    """In-memory spans plus named per-call samples."""

    def __init__(self) -> None:
        #: (span id, parent id, name, t0, t1, tags)
        self.spans: List[Tuple[int, Optional[int], str, float, float, Dict[str, Any]]] = []
        #: name -> observed values (ms unless the name says otherwise)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()

    def span(
        self, name: str, t0: float, t1: float,
        parent: Optional[int] = None, sid: Optional[int] = None, **tags: Any,
    ) -> int:
        """File one finished span; its duration joins ``samples[name]``.

        ``parent`` defaults to the calling thread's open call context.
        """
        if parent is None:
            ctx = self.context()
            parent = ctx["id"] if ctx is not None else None
        with self._lock:
            if sid is None:
                sid = next(self._ids)
            self.spans.append((sid, parent, name, t0, t1, tags))
            self.samples[name].append((t1 - t0) * 1e3)
        return sid

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- per-thread call context -------------------------------------------
    def context(self) -> Optional[Dict[str, Any]]:
        return getattr(self._tls, "ctx", None)

    def open_context(self) -> Dict[str, Any]:
        with self._lock:
            sid = next(self._ids)
        ctx = {"id": sid, "generate_s": 0.0, "route_s": 0.0, "put_s": 0.0}
        self._tls.ctx = ctx
        return ctx

    def close_context(self) -> None:
        self._tls.ctx = None

    def charge(self, key: str, seconds: float) -> None:
        ctx = self.context()
        if ctx is not None:
            ctx[key] += seconds

    def dump(self, path: Path, header: Dict[str, Any]) -> None:
        """Write the spans (and the run's stamp) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **header,
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "t0": t0, "t1": t1, **({"tags": tags} if tags else {})}
                for sid, parent, name, t0, t1, tags in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


class Probes:
    """Install/uninstall the timing wrappers listed in the module doc."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            return
        import repro.circuits.mcnc as mcnc
        import repro.exec.engine as engine
        import repro.service.core as core
        import repro.twgr.router as router
        from repro.exec.cache import RunCache
        from repro.exec.record import RunRecord

        rec = self.rec

        def timed(name: str, charge: Optional[str] = None) -> Callable[[Any], Any]:
            def make(fn: Any) -> Any:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        t1 = time.perf_counter()
                        rec.span(name, t0, t1)
                        if charge:
                            rec.charge(charge, t1 - t0)
                return wrapper
            return make

        def net_tree(fn: Any) -> Any:
            # ~10^3 calls per route: a sample, not a span
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                rec.sample("steiner.build_net_tree_us", (time.perf_counter() - t0) * 1e6)
                return out
            return wrapper

        def execute(fn: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                ctx = rec.open_context()
                t0 = time.perf_counter()
                try:
                    outcome = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    rec.close_context()
                cached = bool(outcome.records) and outcome.records[0].cached
                rec.span("exec.execute", t0, t1, sid=ctx["id"], cached=cached)
                rec.sample("exec.execute_hit_ms" if cached else "exec.execute_miss_ms",
                           (t1 - t0) * 1e3)
                rec.sample("exec.retries", float(outcome.retries))
                if outcome.records and not cached:
                    rec.sample("exec.fresh_routes", 1.0)
                    rec.sample("exec.route_host_ms", outcome.records[0].host_seconds * 1e3)
                    rec.sample("exec.overhead_ms", 1e3 * (
                        (t1 - t0) - ctx["generate_s"] - ctx["route_s"] - ctx["put_s"]
                    ))
                return outcome
            return wrapper

        def record_from_results(fn: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                record = fn(*args, **kwargs)
                rec.charge("route_s", record.host_seconds)
                return record
            return wrapper

        def cache_get(fn: Any) -> Any:
            def wrapper(cache: Any, key: str) -> Any:
                t0 = time.perf_counter()
                payload = fn(cache, key)
                rec.span("exec.cache_get", t0, time.perf_counter())
                rec.sample("exec.cache_hit", 0.0 if payload is None else 1.0)
                return payload
            return wrapper

        def cache_put(fn: Any) -> Any:
            def wrapper(cache: Any, key: str, payload: Any) -> None:
                t0 = time.perf_counter()
                fn(cache, key, payload)
                t1 = time.perf_counter()
                rec.span("exec.cache_put", t0, t1)
                rec.charge("put_s", t1 - t0)
                rec.sample("exec.record_bytes", float(cache.path_for(key).stat().st_size))
            return wrapper

        def submit(fn: Any) -> Any:
            async def wrapper(service: Any, body: Any) -> Any:
                t0 = time.perf_counter()
                out = await fn(service, body)
                rec.span("service.submit", t0, time.perf_counter())
                return out
            return wrapper

        self._patch(mcnc, "generate", timed("circuits.generate", charge="generate_s"))
        self._patch(router, "build_net_tree", net_tree)
        self._patch(core, "run_sweep_salvage", execute)
        self._patch(engine, "record_from_results", record_from_results)
        self._patch(RunCache, "get", cache_get)
        self._patch(RunCache, "put", cache_put)
        self._patch(RunRecord, "to_dict", timed("exec.record_encode"))
        self._patch(core, "point_from_request", timed("service.parse"))
        self._patch(core.RoutingService, "submit", submit)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()
