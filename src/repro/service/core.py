"""The service core: job queue, worker pool, coalescing, degradation.

:class:`RoutingService` is transport-agnostic — the HTTP front-end
(:mod:`repro.service.httpd`), the chaos scenario, and the tests all talk
to the same async API:

* :meth:`RoutingService.submit` — resolve one request body to a
  response dict plus HTTP status, coalescing duplicate in-flight work;
* :meth:`RoutingService.stats` — queue/coalescing/cache and circuit
  build/reuse counters for the ``/stats`` endpoint.

Execution model
---------------
Requests enter an ``asyncio.Queue`` and are drained by ``workers``
async worker tasks, each running the blocking engine call
(:func:`~repro.exec.engine.run_sweep_salvage` with ``jobs=1``) on a
dedicated ``ThreadPoolExecutor`` thread.  The engine path is the same
one the CLI uses, so every response embeds the familiar
:class:`~repro.exec.record.RunRecord` (profile included) and every
fresh route lands in the shared content-addressed run cache.

Coalescing
----------
In-flight work is keyed by ``point.key()``.  The first request for a
key enqueues a job and owns its future; every duplicate arriving before
completion awaits the *same* future (counted in ``service.coalesced``),
so K identical concurrent requests cost one route and one cache store.
The registration happens synchronously inside ``submit`` — before any
``await`` — so two requests racing on the event loop can never both
enqueue.

Degradation
-----------
A point that still fails after the engine's capped, jittered retries
produces a structured ``503`` body carrying the failure ledger; worker
crashes outside the engine's containment produce a ``500``.  Both paths
answer — a faulted service degrades, it never drops or hangs a
connection.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.exec.cache import RunCache
from repro.exec.engine import SweepOutcome, SweepPoint, run_sweep_salvage
from repro.service.schema import ServiceRequestError, point_from_request

#: response shape: (http_status, body_dict)
Response = Tuple[int, Dict[str, Any]]


@dataclass(slots=True)
class ServiceConfig:
    """Knobs of one service instance (CLI flags map one-to-one)."""

    #: concurrent routing executions (queue drains this wide)
    workers: int = 2
    #: retries per failing point before a degraded response
    max_retries: int = 1
    #: base retry backoff (host seconds); capped + jittered by the engine
    backoff_s: float = 0.05
    #: hard ceiling on one request's queue+route time; ``None`` = wait
    #: forever (a request past it gets a 504, the route keeps running)
    request_timeout_s: Optional[float] = 600.0
    #: named engine-level fault plan injected into every execution
    #: ("" = none) — the service-tier chaos knob
    fault_plan: str = ""
    fault_seed: int = 0

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.fault_plan:
            from repro.faults import NAMED_PLANS

            if self.fault_plan not in NAMED_PLANS:
                raise ValueError(
                    f"unknown fault plan {self.fault_plan!r}; "
                    f"choose from {sorted(NAMED_PLANS)}"
                )


@dataclass(slots=True)
class _Job:
    point: SweepPoint
    #: ``point.key()``, computed once by ``submit``
    key: str
    future: "asyncio.Future[Response]"
    enqueued_at: float = field(default_factory=time.perf_counter)


class RoutingService:
    """Async job-queue front over the salvage engine (see module doc)."""

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.cache = cache
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._inflight: Dict[str, "asyncio.Future[Response]"] = {}
        self._workers: list = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._faults: Any = None
        self._started = False
        self.started_at = time.time()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.config.fault_plan:
            from repro.faults import make_plan

            # one long-lived plan: a flaky-cache budget spans the service
            # lifetime (a transient bad spell), while flaky-point fails
            # the first attempt(s) of every matching request — degraded
            # when it outlasts max_retries, salvaged-by-retry otherwise
            self._faults = make_plan(
                self.config.fault_plan, 1, self.config.fault_seed
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker_loop(i), name=f"service-worker-{i}")
            for i in range(self.config.workers)
        ]

    async def stop(self) -> None:
        """Cancel workers and release the executor (idempotent)."""
        if not self._started:
            return
        self._started = False
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_result(
                    (503, {"status": "degraded", "error": "service stopping"})
                )
        self._inflight.clear()

    # -- request path --------------------------------------------------
    async def submit(self, body: Any) -> Response:
        """Resolve one request body to ``(http_status, response_dict)``.

        Never raises for request-shaped problems: schema errors are 400,
        contained point failures are 503, timeouts are 504, and
        unexpected worker crashes are 500.
        """
        from repro.obs.metrics import REGISTRY

        t0 = time.perf_counter()
        REGISTRY.counter("service.requests").inc()
        try:
            point = point_from_request(body)
        except ServiceRequestError as exc:
            REGISTRY.counter("service.bad_requests").inc()
            self._observe_latency(t0)
            return (400, {"status": "bad-request", "error": str(exc)})

        key = point.key()
        fut = self._inflight.get(key)
        coalesced = fut is not None
        if fut is None:
            loop = asyncio.get_running_loop()
            fut = loop.create_future()
            self._inflight[key] = fut
            self._queue.put_nowait(_Job(point=point, key=key, future=fut))
            REGISTRY.gauge("service.queue_depth").set(self._queue.qsize())
        else:
            REGISTRY.counter("service.coalesced").inc()
        try:
            status, payload = await asyncio.wait_for(
                asyncio.shield(fut), timeout=self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            REGISTRY.counter("service.timeouts").inc()
            self._observe_latency(t0)
            return (
                504,
                {
                    "status": "timeout",
                    "error": (
                        f"request exceeded {self.config.request_timeout_s}s; "
                        "the route keeps running and will be cached"
                    ),
                },
            )
        payload = dict(payload)
        payload["coalesced"] = coalesced
        if status == 503:
            REGISTRY.counter("service.degraded").inc()
        elif status >= 500:
            REGISTRY.counter("service.errors").inc()
        self._observe_latency(t0)
        return (status, payload)

    @staticmethod
    def _observe_latency(t0: float) -> None:
        from repro.obs.metrics import REGISTRY

        REGISTRY.histogram("service.request_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )

    # -- worker side ---------------------------------------------------
    def _execute(self, point: SweepPoint) -> SweepOutcome:
        """Blocking engine call; runs on an executor thread."""
        return run_sweep_salvage(
            [point],
            jobs=1,
            cache=self.cache,
            faults=self._faults,
            max_retries=self.config.max_retries,
            backoff_s=self.config.backoff_s,
        )

    async def _worker_loop(self, index: int) -> None:
        from repro.obs.metrics import REGISTRY

        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            REGISTRY.gauge("service.queue_depth").set(self._queue.qsize())
            REGISTRY.histogram("service.queue_wait_ms").observe(
                (time.perf_counter() - job.enqueued_at) * 1e3
            )
            try:
                outcome = await loop.run_in_executor(
                    self._executor, self._execute, job.point
                )
                response = self._response_from_outcome(job.key, outcome)
            except Exception as exc:  # noqa: BLE001 - must answer, not hang
                response = (
                    500,
                    {
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            finally:
                self._queue.task_done()
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_result(response)

    @staticmethod
    def _response_from_outcome(key: str, outcome: SweepOutcome) -> Response:
        if outcome.records:
            rec = outcome.records[0]
            return (
                200,
                {
                    "status": "ok",
                    "key": key,
                    "cached": rec.cached,
                    "attempts": rec.attempts,
                    "retries": outcome.retries,
                    "record": rec.to_dict(),
                },
            )
        return (
            503,
            {
                "status": "degraded",
                "key": key,
                "retries": outcome.retries,
                "failures": [f.to_dict() for f in outcome.failures],
            },
        )

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue/coalescing/cache state for the ``/stats`` endpoint."""
        from repro.obs.metrics import REGISTRY

        snap = REGISTRY.snapshot()
        counters = snap.get("counters", {})
        out: Dict[str, Any] = {
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.workers,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "requests": counters.get("service.requests", 0),
            "coalesced": counters.get("service.coalesced", 0),
            "degraded": counters.get("service.degraded", 0),
            "bad_requests": counters.get("service.bad_requests", 0),
            "circuit_builds": counters.get("engine.circuit_builds", 0),
            "circuit_reuses": counters.get("engine.circuit_reuses", 0),
            "fault_plan": self.config.fault_plan or None,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
