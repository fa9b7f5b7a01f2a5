"""MetricsRegistry: instruments, thread safety, snapshots,
percentiles, and the Prometheus text exposition."""

from __future__ import annotations

import re
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    PERCENTILES,
    quantile_from_buckets,
    render_histograms,
    render_prometheus_snapshot,
)


def test_counter_get_or_create_and_inc():
    reg = MetricsRegistry()
    reg.counter("cache.hit").inc()
    reg.counter("cache.hit").inc(2)
    assert reg.counter("cache.hit").value == 3.0


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("pool.size")
    g.set(4)
    g.add(-1)
    assert g.value == 3.0


def test_histogram_summary():
    reg = MetricsRegistry()
    h = reg.histogram("msg.bytes")
    for v in (1, 2, 4, 100):
        h.observe(v)
    assert h.count == 4
    assert h.total == 107.0
    assert h.min == 1
    assert h.max == 100
    assert h.mean == pytest.approx(26.75)
    assert sum(h.buckets) == 4


def test_snapshot_is_plain_data():
    reg = MetricsRegistry()
    reg.counter("a").inc(5)
    reg.gauge("b").set(7)
    reg.histogram("c").observe(3)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 5.0}
    assert snap["gauges"] == {"b": 7.0}
    assert snap["histograms"]["c"]["count"] == 1
    import json

    json.dumps(snap)  # JSON-safe by construction


def test_reset_clears_everything():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_quantile_from_buckets_empty_and_single():
    assert quantile_from_buckets(0, [0] * 32, 0.5) == 0.0
    # a single observation reports its exact value at every quantile
    # (clamped to the observed [min, max] range)
    buckets = [0] * 32
    buckets[3] = 1  # 4 < value <= 8
    for q in PERCENTILES:
        assert quantile_from_buckets(1, buckets, q, 6.5, 6.5) == 6.5


def test_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        quantile_from_buckets(1, [1], 1.5)


def test_histogram_percentiles_monotonic_and_bounded():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in range(1, 101):
        h.observe(v)
    p = h.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert p["p50"] <= p["p95"] <= p["p99"]
    assert h.min <= p["p50"] and p["p99"] <= h.max
    # power-of-2 buckets: p50 of uniform 1..100 lands in the 32..64 bucket
    assert 32.0 <= p["p50"] <= 64.0


def test_snapshot_carries_mean_and_percentiles():
    reg = MetricsRegistry()
    reg.histogram("lat").observe(10)
    snap = reg.snapshot()["histograms"]["lat"]
    assert snap["mean"] == 10.0
    assert snap["p50"] == snap["p95"] == snap["p99"] == 10.0


def test_render_histograms_table():
    reg = MetricsRegistry()
    reg.histogram("point.host_ms").observe(3)
    reg.histogram("never.observed")  # zero-count: skipped
    text = render_histograms(reg.snapshot())
    assert "point.host_ms" in text
    assert "never.observed" not in text
    assert "p95" in text
    assert render_histograms(MetricsRegistry().snapshot()) == ""


# one sample line: name, optional {labels}, numeric value
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_][a-zA-Z0-9_]*)(\{[^}]*\})? ([0-9eE+.\-]+|NaN)$"
)


def _parse_prometheus(text: str):
    """Minimal Prometheus text-format parser: returns (samples, meta).

    ``samples`` maps ``name{labels}`` -> float value; ``meta`` maps
    metric family name -> declared TYPE.  Raises on any malformed line,
    which is what makes the round-trip test meaningful.
    """
    samples, meta = {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            meta[family] = kind
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return samples, meta


def test_render_prometheus_round_trip():
    reg = MetricsRegistry()
    reg.counter("cache.hit").inc(3)
    reg.gauge("pool.size").set(7)
    h = reg.histogram("point.host_ms")
    for v in (1, 2, 4, 100):
        h.observe(v)
    text = reg.render_prometheus()
    assert text.endswith("\n")
    samples, meta = _parse_prometheus(text)

    assert meta["repro_cache_hit_total"] == "counter"
    assert meta["repro_pool_size"] == "gauge"
    assert meta["repro_point_host_ms"] == "summary"
    assert samples["repro_cache_hit_total"] == 3.0
    assert samples["repro_pool_size"] == 7.0
    assert samples["repro_point_host_ms_sum"] == 107.0
    assert samples["repro_point_host_ms_count"] == 4.0
    q50 = samples['repro_point_host_ms{quantile="0.5"}']
    q99 = samples['repro_point_host_ms{quantile="0.99"}']
    assert 1.0 <= q50 <= q99 <= 100.0
    # every sample belongs to a declared family (name or name_sum/_count)
    for key in samples:
        family = re.sub(r"\{.*\}$", "", key)
        family = re.sub(r"_(sum|count)$", "", family)
        assert family in meta, f"sample {key!r} has no TYPE declaration"


def test_render_prometheus_empty_registry():
    assert MetricsRegistry().render_prometheus() == ""


def test_render_prometheus_sanitizes_names():
    snap = {
        "counters": {"weird-name.with spaces": 1.0},
        "gauges": {},
        "histograms": {},
    }
    text = render_prometheus_snapshot(snap, prefix="repro")
    samples, meta = _parse_prometheus(text)
    assert samples == {"repro_weird_name_with_spaces_total": 1.0}


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()
    counter = reg.counter("n")

    def spin() -> None:
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 4000.0
