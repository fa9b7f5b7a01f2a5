"""Latency histograms must survive `repro metrics export`: the CLI, run
as a separate process, routes one point and renders its live registry
with p50/p95/p99 quantile lines Prometheus can scrape."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _export(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "--quiet", "metrics", "export",
            "--circuit", "primary1", "--scale", "0.05", *argv,
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def test_cli_export_renders_latency_quantiles():
    proc = _export()
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "repro_engine_circuit_builds_total 1" in out
    for q in ("0.5", "0.95", "0.99"):
        assert f'repro_engine_point_host_ms{{quantile="{q}"}}' in out
    assert "repro_engine_point_host_ms_count 1" in out
    # quantiles must be monotone and inside the observed range
    quantiles = {}
    for line in out.splitlines():
        if line.startswith("repro_engine_point_host_ms{quantile="):
            q = line.split('"')[1]
            quantiles[q] = float(line.rsplit(" ", 1)[1])
    assert quantiles["0.5"] <= quantiles["0.95"] <= quantiles["0.99"]
    assert 0.0 < quantiles["0.5"]


def test_cli_export_writes_file(tmp_path):
    out_path = tmp_path / "metrics.prom"
    proc = _export("--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    text = out_path.read_text()
    assert 'repro_engine_point_host_ms{quantile="0.99"}' in text
