"""RoutingService behaviour: coalescing, caching, degradation, lifecycle.

These tests drive the async API directly on one event loop, which makes
coalescing deterministic: ``submit`` registers the in-flight future
synchronously (before its first ``await``), so K gathered submits for
the same point always observe each other.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exec.cache import RunCache
from repro.obs.metrics import REGISTRY
from repro.service import RoutingService, ServiceConfig


REQUEST = {"circuit": "primary1", "scale": 0.05}


@pytest.fixture(autouse=True)
def _fresh_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def run(coro):
    return asyncio.run(coro)


async def _with_service(config, body_fn, cache=None):
    service = RoutingService(cache=cache, config=config)
    await service.start()
    try:
        return await body_fn(service)
    finally:
        await service.stop()


class TestCoalescing:
    def test_k_identical_requests_cost_one_store(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        K = 5

        async def body(service):
            return await asyncio.gather(
                *(service.submit(dict(REQUEST)) for _ in range(K))
            )

        responses = run(
            _with_service(ServiceConfig(workers=2), body, cache=cache)
        )
        assert [status for status, _ in responses] == [200] * K
        # exactly one execution: one cache store, everyone else shared it
        assert cache.stats()["stores"] == 1
        coalesced = [payload["coalesced"] for _, payload in responses]
        assert coalesced.count(True) == K - 1
        assert REGISTRY.snapshot()["counters"]["service.coalesced"] == K - 1

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        cache = RunCache(tmp_path / "cache")

        async def body(service):
            return await asyncio.gather(
                service.submit({"circuit": "primary1", "scale": 0.05, "seed": 1}),
                service.submit({"circuit": "primary1", "scale": 0.05, "seed": 2}),
            )

        responses = run(
            _with_service(ServiceConfig(workers=2), body, cache=cache)
        )
        assert [status for status, _ in responses] == [200, 200]
        assert cache.stats()["stores"] == 2
        assert all(not payload["coalesced"] for _, payload in responses)

    def test_sequential_repeat_is_a_cache_hit_not_coalesced(self, tmp_path):
        cache = RunCache(tmp_path / "cache")

        async def body(service):
            first = await service.submit(dict(REQUEST))
            second = await service.submit(dict(REQUEST))
            return first, second

        (s1, p1), (s2, p2) = run(
            _with_service(ServiceConfig(workers=1), body, cache=cache)
        )
        assert (s1, s2) == (200, 200)
        assert not p1["cached"] and not p1["coalesced"]
        assert p2["cached"] and not p2["coalesced"]
        assert cache.stats()["stores"] == 1
        assert cache.stats()["hits"] == 1


class TestDegradation:
    def test_flaky_point_without_retries_degrades_structurally(self, tmp_path):
        config = ServiceConfig(
            workers=1, max_retries=0, fault_plan="flaky-point", fault_seed=3
        )

        async def body(service):
            return await service.submit(dict(REQUEST))

        status, payload = run(
            _with_service(config, body, cache=RunCache(tmp_path / "cache"))
        )
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["failures"], "degraded response must carry the ledger"
        failure = payload["failures"][0]
        # a serial point fails through the baseline pass, which keeps
        # the injected error's text in the message
        assert failure["error_type"]
        assert "InjectedFault" in failure["message"]
        assert REGISTRY.snapshot()["counters"]["service.degraded"] == 1

    def test_flaky_point_with_one_retry_is_salvaged(self, tmp_path):
        config = ServiceConfig(
            workers=1, max_retries=1, backoff_s=0.001,
            fault_plan="flaky-point", fault_seed=3,
        )

        async def body(service):
            return await service.submit(dict(REQUEST))

        status, payload = run(
            _with_service(config, body, cache=RunCache(tmp_path / "cache"))
        )
        assert status == 200
        assert payload["attempts"] == 2
        assert payload["retries"] == 1

    def test_degraded_request_does_not_poison_the_next(self, tmp_path):
        # fault plan fails attempt 1 of *every* point; with a retry each
        # request recovers independently — the pool keeps serving
        config = ServiceConfig(
            workers=1, max_retries=1, backoff_s=0.001,
            fault_plan="flaky-point", fault_seed=3,
        )

        async def body(service):
            one = await service.submit(
                {"circuit": "primary1", "scale": 0.05, "seed": 1}
            )
            two = await service.submit(
                {"circuit": "primary1", "scale": 0.05, "seed": 2}
            )
            return one, two

        (s1, _), (s2, _) = run(
            _with_service(config, body, cache=RunCache(tmp_path / "cache"))
        )
        assert (s1, s2) == (200, 200)


class TestLifecycle:
    def test_bad_request_is_400_and_counted(self):
        async def body(service):
            return await service.submit({"circuit": "primary1", "bogus": 1})

        status, payload = run(_with_service(ServiceConfig(workers=1), body))
        assert status == 400
        assert payload["status"] == "bad-request"
        assert "bogus" in payload["error"]
        assert REGISTRY.snapshot()["counters"]["service.bad_requests"] == 1

    def test_request_timeout_is_504(self, tmp_path):
        config = ServiceConfig(workers=1, request_timeout_s=0.001)

        async def body(service):
            return await service.submit(dict(REQUEST))

        status, payload = run(
            _with_service(config, body, cache=RunCache(tmp_path / "cache"))
        )
        assert status == 504
        assert payload["status"] == "timeout"

    def test_stop_resolves_pending_futures_degraded(self, tmp_path):
        async def body():
            service = RoutingService(
                cache=RunCache(tmp_path / "cache"),
                config=ServiceConfig(workers=1),
            )
            await service.start()
            task = asyncio.ensure_future(service.submit(dict(REQUEST)))
            await asyncio.sleep(0)  # let submit enqueue
            await service.stop()
            return await task

        status, payload = run(body())
        # either the worker finished the route before cancellation won
        # the race, or stop() resolved the future as degraded — both
        # answer; neither hangs
        assert status in (200, 503)
        if status == 503:
            assert payload["status"] == "degraded"

    def test_stats_reports_queue_and_cache(self, tmp_path):
        cache = RunCache(tmp_path / "cache")

        async def body(service):
            await service.submit(dict(REQUEST))
            return service.stats()

        stats = run(_with_service(ServiceConfig(workers=1), body, cache=cache))
        assert stats["workers"] == 1
        assert stats["requests"] == 1
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == 0
        assert stats["cache"]["stores"] == 1

    def test_session_tallies_count_each_request_once(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        other = {"circuit": "primary1", "scale": 0.05, "seed": 2}

        async def body(service):
            for req in (REQUEST, REQUEST, other, REQUEST, other):
                status, _ = await service.submit(dict(req))
                assert status == 200
            return service.stats()

        stats = run(_with_service(ServiceConfig(workers=2), body, cache=cache))
        assert stats["requests"] == 5
        session = {k: stats["cache"][k] for k in ("hits", "misses", "stores")}
        # each fresh serial point is one miss: the engine looks a key up
        # once, and a serial point is its own baseline
        assert session == {"hits": 3, "misses": 2, "stores": 2}
        # the registry counts the same events and /metrics exports them
        counters = REGISTRY.snapshot()["counters"]
        assert (
            counters["cache.hit"], counters["cache.miss"], counters["cache.store"]
        ) == (3, 2, 2)

    def test_stats_count_one_build_and_one_reuse_per_parallel_miss(self):
        # the serial baseline builds the circuit; the parallel point reuses it
        async def body(service):
            status, _ = await service.submit(
                {**REQUEST, "algorithm": "hybrid", "nprocs": 2}
            )
            assert status == 200
            return service.stats()

        stats = run(_with_service(ServiceConfig(workers=1), body))
        assert (stats["circuit_builds"], stats["circuit_reuses"]) == (1, 1)

    def test_latency_histogram_is_observed(self, tmp_path):
        async def body(service):
            return await service.submit(dict(REQUEST))

        run(
            _with_service(
                ServiceConfig(workers=1), body,
                cache=RunCache(tmp_path / "cache"),
            )
        )
        hist = REGISTRY.snapshot()["histograms"]["service.request_ms"]
        assert hist["count"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(max_retries=-1).validate()
        with pytest.raises(ValueError):
            ServiceConfig(fault_plan="no-such-plan").validate()
