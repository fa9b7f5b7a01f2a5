"""Routing as a service: an async job-queue front-end over the engine.

The paper's routers are batch programs; the ROADMAP north star is an
always-on system.  This package is the serving tier between the two: a
long-lived asyncio front-end that accepts routing requests over HTTP
(raw ``asyncio`` streams — no dependencies beyond the standard library),
funnels them through a job queue, and executes them on a bounded worker
pool via the fault-containing sweep engine
(:func:`~repro.exec.engine.run_sweep_salvage`).

Layers
------
* :mod:`repro.service.schema` — the request JSON ⇄
  :class:`~repro.exec.engine.SweepPoint` codec with fail-fast
  validation (a bad request is a 400, never a worker crash);
* :mod:`repro.service.core` — :class:`RoutingService`: the job queue,
  the worker pool, in-flight request coalescing keyed by the run
  cache's content address, and degraded (rather than dropped) failure
  responses;
* :mod:`repro.service.httpd` — the asyncio socket HTTP front-end plus
  a thread host for tests, the benchmark's service workload, and chaos
  scenarios;
* :mod:`repro.service.client` — minimal blocking and async HTTP
  clients used by the CLI, the tests, and the benchmark.

Coalescing semantics
--------------------
Every request maps to a deterministic :class:`SweepPoint`, so two
identical requests are the *same computation*.  The service keys
in-flight work by ``point.key()`` (the cache's content address): K
identical concurrent requests share one execution and one cache store,
and later duplicates replay from the content-addressed cache.  The
``service.coalesced`` counter and per-request ``"coalesced"`` response
field make the sharing observable.

Failure semantics
-----------------
A request whose point fails after the engine's capped, jittered retries
gets a structured ``503`` payload (error type, message, attempts) — the
connection is never dropped and the worker pool keeps serving.  The
PR-5 fault layer doubles as chaos testing: boot the service with a
named fault plan (``repro serve --fault-plan flaky-point``) and every
injected failure surfaces as such a degraded response.
"""

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.core import RoutingService, ServiceConfig
from repro.service.httpd import ServiceHost, serve_forever
from repro.service.schema import ServiceRequestError, point_from_request

__all__ = [
    "AsyncServiceClient",
    "RoutingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHost",
    "ServiceRequestError",
    "point_from_request",
    "serve_forever",
]
