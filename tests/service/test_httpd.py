"""HTTP front-end: real sockets via ServiceHost + both clients."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exec.cache import RunCache
from repro.obs.metrics import REGISTRY
from repro.service import (
    AsyncServiceClient,
    RoutingService,
    ServiceClient,
    ServiceConfig,
    ServiceHost,
)

REQUEST = {"circuit": "primary1", "scale": 0.05}


@pytest.fixture(autouse=True)
def _fresh_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


@pytest.fixture
def host(tmp_path):
    service = RoutingService(
        cache=RunCache(tmp_path / "cache"), config=ServiceConfig(workers=2)
    )
    with ServiceHost(service) as h:
        yield h


@pytest.fixture
def client(host):
    with ServiceClient(host.host, host.port) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == (200, {"status": "ok"})

    def test_route_embeds_run_record(self, client):
        status, payload = client.route(dict(REQUEST))
        assert status == 200
        assert payload["status"] == "ok"
        record = payload["record"]
        assert record["format"] == "repro-run-record-v1"
        assert record["profile"], "response must embed the RunProfile"
        # same connection, same point: a cache hit this time
        status, payload = client.route(dict(REQUEST))
        assert status == 200
        assert payload["cached"] is True

    def test_schema_error_is_http_400(self, client):
        status, payload = client.route({"circuit": "primary1", "bogus": 1})
        assert status == 400
        assert payload["status"] == "bad-request"
        assert "bogus" in payload["error"]

    def test_non_json_body_is_http_400(self, host):
        with ServiceClient(host.host, host.port) as c:
            conn_status, _ = c.request("POST", "/route", None)
            # empty body decodes to {} which fails schema ("circuit" missing)
            assert conn_status == 400

    def test_unknown_path_is_http_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "/nope" in payload["error"]

    def test_wrong_method_is_http_405(self, client):
        status, _ = client.request("POST", "/healthz", {})
        assert status == 405
        status, _ = client.request("GET", "/route")
        assert status == 405

    def test_stats_endpoint(self, client):
        client.route(dict(REQUEST))
        status, stats = client.stats()
        assert status == 200
        assert stats["requests"] >= 1
        assert stats["cache"]["stores"] == 1

    def test_metrics_endpoint_has_latency_quantiles(self, client):
        client.route(dict(REQUEST))
        text = client.metrics_text()
        assert "repro_service_request_ms" in text
        for q in ("0.5", "0.95", "0.99"):
            assert f'repro_service_request_ms{{quantile="{q}"}}' in text
        assert "repro_service_request_ms_count" in text

    def test_shutdown_endpoint_stops_the_host(self, tmp_path):
        service = RoutingService(config=ServiceConfig(workers=1))
        host = ServiceHost(service).start()
        with ServiceClient(host.host, host.port) as c:
            assert c.shutdown() == (200, {"status": "stopping"})
        host._thread.join(timeout=10.0)
        assert not host._thread.is_alive()
        host._thread = None  # joined; make stop() a no-op

    def test_admin_can_be_disabled(self, tmp_path):
        service = RoutingService(config=ServiceConfig(workers=1))
        with ServiceHost(service, allow_admin=False) as host:
            with ServiceClient(host.host, host.port) as c:
                status, _ = c.shutdown()
                assert status == 404
                assert c.healthz()[0] == 200

    def test_shutdown_leaves_only_records_in_cache_dir(self, tmp_path):
        """Leaving the host stops the service; the cache directory then
        holds one ``<key>.json`` record per fresh point and nothing else."""
        root = tmp_path / "cache"
        cache = RunCache(root)
        service = RoutingService(cache=cache, config=ServiceConfig(workers=1))
        with ServiceHost(service) as h:
            with ServiceClient(h.host, h.port) as c:
                for body in (REQUEST, REQUEST, {**REQUEST, "seed": 2}):
                    assert c.route(dict(body))[0] == 200
        session = cache.stats()
        assert (session["hits"], session["stores"]) == (1, 2)
        names = sorted(p.name for p in root.iterdir())
        assert len(names) == 2
        assert all(name.endswith(".json") for name in names)


class TestProtocolEdges:
    def test_malformed_request_line_is_400_and_closes(self, host):
        async def poke():
            reader, writer = await asyncio.open_connection(host.host, host.port)
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read(4096)
            writer.close()
            return raw

        raw = asyncio.run(poke())
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in raw

    def test_oversized_content_length_is_413(self, host):
        async def poke():
            reader, writer = await asyncio.open_connection(host.host, host.port)
            writer.write(
                b"POST /route HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read(4096)
            writer.close()
            return raw

        raw = asyncio.run(poke())
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_degraded_service_answers_503_and_healthz_still_ok(self, tmp_path):
        service = RoutingService(
            cache=RunCache(tmp_path / "cache"),
            config=ServiceConfig(
                workers=1, max_retries=0,
                fault_plan="flaky-point", fault_seed=5,
            ),
        )
        with ServiceHost(service) as host:
            with ServiceClient(host.host, host.port) as c:
                status, payload = c.route(dict(REQUEST))
                assert status == 503
                assert payload["status"] == "degraded"
                assert "InjectedFault" in payload["failures"][0]["message"]
                # the connection survived the degraded answer
                assert c.healthz()[0] == 200


class TestAsyncClient:
    def test_round_trip_and_keep_alive(self, host):
        async def body():
            async with AsyncServiceClient(host.host, host.port) as c:
                one = await c.healthz()
                two = await c.route(dict(REQUEST))
                three = await c.stats()
                return one, two, three

        (hs, hb), (rs, rb), (ss, sb) = asyncio.run(body())
        assert (hs, hb) == (200, {"status": "ok"})
        assert rs == 200 and rb["status"] == "ok"
        assert ss == 200 and sb["requests"] >= 1

    def test_concurrent_clients_coalesce_over_http(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        service = RoutingService(cache=cache, config=ServiceConfig(workers=2))
        K = 4

        async def one_client(h):
            async with AsyncServiceClient(h.host, h.port) as c:
                return await c.route(dict(REQUEST))

        async def burst(h):
            return await asyncio.gather(*(one_client(h) for _ in range(K)))

        with ServiceHost(service) as h:
            responses = asyncio.run(burst(h))
        assert [status for status, _ in responses] == [200] * K
        # the burst may straddle the first completion, so some clients
        # coalesce and some replay from the cache — but never K stores
        assert cache.stats()["stores"] == 1
        payloads = [payload for _, payload in responses]
        fresh = [p for p in payloads if not (p["coalesced"] or p["cached"])]
        assert len(fresh) == 1, payloads
        assert any(p["coalesced"] for p in payloads), payloads

    def test_unreachable_raises(self):
        from repro.service.client import ServiceUnreachable

        async def body():
            c = AsyncServiceClient("127.0.0.1", 1)  # reserved, nothing there
            await c.route(dict(REQUEST))

        with pytest.raises(ServiceUnreachable):
            asyncio.run(body())
