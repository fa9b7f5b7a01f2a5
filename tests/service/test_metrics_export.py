"""Latency histograms must survive the snapshot → `repro metrics export`
round trip: the CLI renders a saved registry snapshot with p50/p95/p99
quantile lines Prometheus can scrape."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _snapshot_with_latencies(tmp_path: Path) -> Path:
    reg = MetricsRegistry()
    reg.counter("service.requests").inc(12)
    reg.counter("service.coalesced").inc(4)
    hist = reg.histogram("service.request_ms")
    for ms in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 250.0, 1000.0):
        hist.observe(ms)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(reg.snapshot()))
    return path


def test_cli_export_renders_latency_quantiles(tmp_path):
    snap = _snapshot_with_latencies(tmp_path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "metrics", "export",
            "--snapshot", str(snap),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "repro_service_requests_total 12" in out
    assert "repro_service_coalesced_total 4" in out
    for q in ("0.5", "0.95", "0.99"):
        assert f'repro_service_request_ms{{quantile="{q}"}}' in out
    assert "repro_service_request_ms_count 8" in out
    # quantiles must be monotone and inside the observed range
    quantiles = {}
    for line in out.splitlines():
        if line.startswith("repro_service_request_ms{quantile="):
            q = line.split('"')[1]
            quantiles[q] = float(line.rsplit(" ", 1)[1])
    assert quantiles["0.5"] <= quantiles["0.95"] <= quantiles["0.99"]
    assert 0.0 < quantiles["0.5"] <= 1024.0


def test_cli_export_writes_file(tmp_path):
    snap = _snapshot_with_latencies(tmp_path)
    out_path = tmp_path / "metrics.prom"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "metrics", "export",
            "--snapshot", str(snap), "--out", str(out_path),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    text = out_path.read_text()
    assert 'repro_service_request_ms{quantile="0.99"}' in text
