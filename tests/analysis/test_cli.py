"""CLI smoke tests (capsys-based, tiny workloads)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_circuits(capsys):
    code, out = run(capsys, "circuits")
    assert code == 0
    assert "avq_large" in out
    assert "paper suite" in out


def test_route_serial(capsys):
    code, out = run(
        capsys, "route", "--circuit", "primary1", "--scale", "0.08",
        "--algorithm", "serial",
    )
    assert code == 0
    assert "tracks=" in out


def test_route_parallel_with_json(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out = run(
        capsys, "route", "--circuit", "primary1", "--scale", "0.08",
        "--algorithm", "rowwise", "--nprocs", "2", "--json", str(path),
    )
    assert code == 0
    assert "speedup" in out
    assert path.exists()
    from repro.analysis import load_results

    assert len(load_results(path)) == 2


def test_compare(capsys):
    code, out = run(
        capsys, "compare", "--circuit", "primary1", "--scale", "0.06",
        "--procs", "1", "2",
    )
    assert code == 0
    assert "Scaled tracks" in out
    assert "hybrid" in out and "netwise" in out


def test_artifact_table1(capsys):
    code, out = run(capsys, "artifact", "table1", "--scale", "0.02")
    assert code == 0
    assert "Table 1" in out


def test_trace(capsys):
    code, out = run(
        capsys, "trace", "--circuit", "primary1", "--scale", "0.06",
        "--nprocs", "2", "--algorithm", "hybrid",
    )
    assert code == 0
    assert "comm timeline" in out
    assert "bytes sent" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_bad_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["artifact", "table9"])


def test_stats(capsys):
    code, out = run(
        capsys, "stats", "--circuit", "primary1", "--scale", "0.06", "--top", "2",
    )
    assert code == 0
    assert "net degree histogram" in out
    assert "busiest channels" in out


def test_compare_sweep_routes_serially_exactly_once(capsys, monkeypatch):
    """A 4-point procs sweep (x3 algorithms) shares one serial baseline."""
    from repro.exec import engine as engine_mod

    calls = {"n": 0}
    real = engine_mod.serial_baseline

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "serial_baseline", counting)
    code, out = run(
        capsys, "compare", "--circuit", "primary1", "--scale", "0.05",
        "--procs", "1", "2", "3", "4", "--jobs", "1",
    )
    assert code == 0
    assert "Scaled tracks" in out
    assert calls["n"] == 1


def test_compare_warm_cache_replays_without_routing(capsys, tmp_path, monkeypatch):
    argv = (
        "compare", "--circuit", "primary1", "--scale", "0.05",
        "--procs", "1", "2", "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
    )
    code, cold = run(capsys, *argv)
    assert code == 0

    from repro.exec import engine as engine_mod

    def boom(*args, **kwargs):
        raise AssertionError("routed despite a warm cache")

    monkeypatch.setattr(engine_mod, "_execute", boom)
    code, warm = run(capsys, *argv)
    assert code == 0
    # identical tables; only the cache hit/miss line differs
    assert cold.split("cache:")[0] == warm.split("cache:")[0]


def test_cache_subcommand(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    run(
        capsys, "route", "--circuit", "primary1", "--scale", "0.05",
        "--algorithm", "serial", "--cache",
    )
    code, out = run(capsys, "cache", "stats")
    assert code == 0
    assert "entries   : 1" in out
    code, out = run(capsys, "cache", "clear")
    assert code == 0
    assert "removed 1" in out


def test_route_folds_lifetime_tallies_on_exit(capsys, tmp_path):
    argv = (
        "route", "--circuit", "primary1", "--scale", "0.05",
        "--algorithm", "serial", "--cache-dir", str(tmp_path / "c"),
    )
    run(capsys, *argv)
    code, out = run(capsys, *argv)
    assert code == 0
    assert "(cached)" in out
    code, out = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path / "c"))
    assert code == 0
    assert "lifetime  : 1 hits, 1 misses, 1 stores" in out


def test_compare_folds_its_session_tallies_once(capsys, tmp_path):
    from repro.exec import RunCache

    root = tmp_path / "c"
    argv = (
        "compare", "--circuit", "primary1", "--scale", "0.05",
        "--procs", "2", "--jobs", "1", "--cache-dir", str(root),
    )
    run(capsys, *argv)
    code, out = run(capsys, *argv)
    assert code == 0
    # cold: 4 point lookups + 1 baseline lookup miss, 4 stores;
    # warm: 4 point hits
    assert "cache: 4 hits, 0 misses" in out
    assert RunCache(root).lifetime_stats() == {
        "hits": 4, "misses": 5, "stores": 4,
    }


def test_profile_serial(capsys, tmp_path):
    path = tmp_path / "prof.json"
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.05",
        "--algorithm", "serial", "--json", str(path),
    )
    assert code == 0
    assert "step1_steiner" in out
    assert "step5_switch" in out
    assert "total" in out
    assert path.exists()
    import json

    data = json.loads(path.read_text())
    assert data["algorithm"] == "serial"
    assert "step3_feedthrough" in data["steps"]


def test_profile_parallel_shows_comm_columns(capsys):
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.05",
        "--algorithm", "hybrid", "--nprocs", "2",
    )
    assert code == 0
    assert "msgs" in out or "messages" in out


def test_profile_diff_exit_codes(capsys, tmp_path):
    path = tmp_path / "ref.json"
    argv = ("profile", "primary1", "--scale", "0.05", "--algorithm", "serial")
    code, _ = run(capsys, *argv, "--json", str(path))
    assert code == 0
    # identical re-run: diff passes
    code, out = run(capsys, *argv, "--diff", str(path))
    assert code == 0
    assert "ok" in out.lower()
    # inject a regression into the reference (old times much smaller)
    import json

    ref = json.loads(path.read_text())
    for step in ref["steps"].values():
        for key in ("model_s", "wall_max_s", "wall_sum_s"):
            if step.get(key) is not None:
                step[key] = step[key] / 10 if step[key] else 1e-9
    path.write_text(json.dumps(ref))
    code, out = run(capsys, *argv, "--diff", str(path))
    assert code == 1
    assert "REGRESSED" in out


def test_trace_chrome_export(capsys, tmp_path):
    path = tmp_path / "chrome.json"
    code, out = run(
        capsys, "trace", "--circuit", "primary1", "--scale", "0.06",
        "--nprocs", "2", "--algorithm", "hybrid",
        "--chrome", str(path), "--flame",
    )
    assert code == 0
    assert "collectives:" in out
    assert "flamegraph" in out
    import json

    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "step2_coarse" for e in events)


def test_quiet_suppresses_context_but_keeps_deliverables(capsys):
    argv = ("profile", "primary1", "--scale", "0.05", "--algorithm", "serial")
    _, loud = run(capsys, *argv)
    _, quiet = run(capsys, "--quiet", *argv)
    # the table header always names the machine; the log.info context
    # line repeats it, and --quiet must drop exactly that repetition
    assert loud.count("[SparcCenter-1000]") == 2
    assert quiet.count("[SparcCenter-1000]") == 1
    assert "step1_steiner" in quiet  # the table itself always prints


def test_verbose_flag_accepted(capsys):
    code, out = run(
        capsys, "--verbose", "route", "--circuit", "primary1",
        "--scale", "0.06", "--algorithm", "serial",
    )
    assert code == 0
    assert "tracks=" in out


def test_profile_diff_accepts_legacy_backend_stamp(capsys, tmp_path):
    """A reference profile saved while runs were stamped with their
    congestion backend still diffs cleanly against a fresh run."""
    import json

    path = tmp_path / "ref.json"
    base = ("profile", "primary1", "--scale", "0.05", "--algorithm", "serial")
    code, _ = run(capsys, *base, "--json", str(path))
    assert code == 0
    saved = json.loads(path.read_text())
    assert "backend" not in saved
    saved["backend"] = "numpy"
    path.write_text(json.dumps(saved))
    code, out = run(capsys, *base, "--diff", str(path))
    assert code == 0
    assert "status: OK" in out


def test_profile_prints_histogram_percentiles(capsys):
    from repro.obs.metrics import REGISTRY

    REGISTRY.reset()
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.05",
        "--algorithm", "serial",
    )
    assert code == 0
    # the engine observes per-point host latency into the registry and
    # the profile command renders the histogram summary table
    assert "engine.point_host_ms" in out
    assert "p50" in out and "p95" in out and "p99" in out


def _trend_args():
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent.parent
    return (
        "--trajectory", str(repo / "BENCH_trajectory.json"),
        "--kernels", str(repo / "BENCH_kernels.json"),
        "--sweep", str(repo / "BENCH_sweep.json"),
    )


def test_trends_text_and_gate(capsys):
    code, out = run(capsys, "trends", "--gate", *_trend_args())
    assert code == 0
    assert "backend numpy" in out
    assert "kernel:batched_eval" in out
    assert "trend gate: OK" in out
    assert "speedup vs paper" in out


def test_trends_gate_fails_at_tight_threshold(capsys):
    code, out = run(
        capsys, "trends", "--gate", "--kernel-threshold", "0.05",
        *_trend_args(),
    )
    assert code == 1
    assert "trend gate: FAILED" in out
    assert "regressed" in out


def test_trends_markdown_json_html(capsys, tmp_path):
    import json

    json_path = tmp_path / "trends.json"
    html_path = tmp_path / "trends.html"
    code, out = run(
        capsys, "trends", "--markdown", "--json", str(json_path),
        "--html", str(html_path), *_trend_args(),
    )
    assert code == 0
    assert "repro-trends:begin" in out
    assert "| metric |" in out
    payload = json.loads(json_path.read_text())
    assert "numpy" in payload["backends"]
    html = html_path.read_text()
    assert html.startswith("<!DOCTYPE html>") and "<svg" in html


def test_trends_missing_trajectory_fails_cleanly(capsys, tmp_path):
    code, out = run(
        capsys, "trends", "--trajectory", str(tmp_path / "nope.json"),
    )
    assert code == 1
    assert "nope.json" in out


def test_metrics_export_from_snapshot(capsys, tmp_path):
    import json

    snap = {
        "counters": {"cache.hit": 3},
        "gauges": {},
        "histograms": {},
    }
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snap))
    code, out = run(capsys, "metrics", "export", "--snapshot", str(path))
    assert code == 0
    assert "# TYPE repro_cache_hit_total counter" in out
    assert "repro_cache_hit_total 3.0" in out


def test_metrics_export_live_run(capsys, tmp_path):
    out_path = tmp_path / "metrics.prom"
    code, out = run(
        capsys, "metrics", "export", "--scale", "0.05",
        "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert "# TYPE repro_engine_point_host_ms summary" in text
    assert 'quantile="0.95"' in text


def test_experiment_command_runs_spec(capsys, tmp_path):
    import json

    spec = tmp_path / "mini.toml"
    spec.write_text(
        'schema = 1\nname = "mini"\n\n[grid]\ncircuits = ["primary1"]\n'
        'algorithms = ["serial", "rowwise"]\n'
        'nprocs = [2]\n\n[fixed]\nscale = 0.06\nseed = 1\n'
    )
    out_path = tmp_path / "outcome.json"
    code, out = run(
        capsys, "experiment", str(spec), "--jobs", "1",
        "--json", str(out_path),
    )
    assert code == 0
    assert "experiment 'mini'" in out
    assert "2 cell(s), 2 completed, 0 failed" in out
    payload = json.loads(out_path.read_text())
    assert payload["spec"]["name"] == "mini"
    assert len(payload["records"]) == 2
    assert payload["records"][0]["spec_coord"]["experiment"] == "mini"


def test_experiment_command_rejects_bad_spec(capsys, tmp_path):
    spec = tmp_path / "bad.toml"
    spec.write_text('schema = 1\nname = "bad"\n\n[grid]\ncircuits = ["nope"]\n')
    code, out = run(capsys, "experiment", str(spec))
    assert code == 1
    assert "unknown circuit" in out
