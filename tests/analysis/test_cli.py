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
    import json

    from repro.exec.record import RunRecord

    record = RunRecord.from_dict(json.loads(path.read_text()))
    run_ = record.parallel_run()
    assert f"serial  : {run_.baseline.summary()}" in out
    assert f"parallel: {run_.summary()}" in out


def test_compare(capsys):
    code, out = run(
        capsys, "compare", "--circuit", "primary1", "--scale", "0.06",
        "--procs", "1", "2",
    )
    assert code == 0
    assert "Scaled tracks" in out
    assert "hybrid" in out and "netwise" in out


def test_artifact_table1(capsys, tmp_path):
    spec = tmp_path / "tiny.toml"
    spec.write_text(
        'name = "tiny"\n[grid]\ncircuits = ["primary1", "struct"]\n'
        "[fixed]\nscale = 0.02\n"
    )
    code, out = run(capsys, "artifact", "table1", "--spec", str(spec))
    assert code == 0
    assert "Table 1" in out and "(scale=0.02)" in out
    assert "primary1" in out and "struct" in out


@pytest.mark.parametrize(
    "content", [None, "directory", "[fixed]\nscale = 2.0\n", "[fixed]\nseed = 'abc'\n"]
)
def test_artifact_spec_error_exits_1(capsys, tmp_path, content):
    """A missing, unreadable or invalid spec is reported, not a traceback."""
    spec = tmp_path / "spec.toml"
    if content == "directory":
        spec.mkdir()
    elif content is not None:
        spec.write_text('name = "bad"\n' + content)
    code, out = run(capsys, "artifact", "table2", "--spec", str(spec))
    assert code == 1
    assert out.startswith("spec error: ")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_bad_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["artifact", "table9"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("route", "--circuit", "nosuch"), "unknown benchmark 'nosuch'"),
        (("profile", "nosuch"), "unknown benchmark 'nosuch'"),
        (("route", "--scale", "0"), "scale must be in (0, 1], got 0"),
        (("route", "--scale", "-1"), "scale must be in (0, 1], got -1"),
        (("route", "--scale", "2"), "scale must be in (0, 1], got 2"),
        (("compare", "--scale", "abc"), "not a number: 'abc'"),
        (("metrics", "export", "--scale", "0"), "scale must be in (0, 1]"),
    ],
)
def test_bad_circuit_or_scale_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # usage line(s), then one error line naming the problem
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("repro ") and ": error: argument " in last
    assert message in last


def test_circuit_alias_still_accepted():
    args = build_parser().parse_args(["route", "--circuit", "primary"])
    assert args.circuit == "primary"


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


def _forbid_routing(monkeypatch):
    """Make routing, and building a circuit, fail loudly."""
    from repro.circuits import mcnc
    from repro.exec import engine as engine_mod

    def boom(*args, **kwargs):
        raise AssertionError("routed or built a circuit despite a warm cache")

    monkeypatch.setattr(engine_mod, "_execute", boom)
    monkeypatch.setattr(mcnc, "generate", boom)
    # the cold run's circuits would otherwise come from the memo unbuilt
    engine_mod.clear_circuit_memo()


def test_compare_warm_cache_replays_without_routing(capsys, tmp_path, monkeypatch):
    argv = (
        "compare", "--circuit", "primary1", "--scale", "0.05",
        "--procs", "1", "2", "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
    )
    code, cold = run(capsys, *argv)
    assert code == 0

    _forbid_routing(monkeypatch)
    code, warm = run(capsys, *argv)
    assert code == 0
    # identical tables; only the cache hit/miss line differs
    assert cold.split("cache:")[0] == warm.split("cache:")[0]
    assert "Scaled tracks on primary1@0.05" in warm


def test_route_warm_cache_replays_without_building_the_circuit(
    capsys, tmp_path, monkeypatch
):
    argv = (
        "route", "--circuit", "primary1", "--scale", "0.05",
        "--algorithm", "hybrid", "--nprocs", "2", "--cache-dir", str(tmp_path / "c"),
    )
    code, cold = run(capsys, *argv)
    assert code == 0

    _forbid_routing(monkeypatch)
    code, warm = run(capsys, *argv)
    assert code == 0
    assert warm == cold.rstrip("\n") + "  (cached)\n"


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


def test_route_leaves_only_records_in_cache_dir(capsys, tmp_path):
    """The run cache is a directory of ``<key>.json`` records and nothing
    else: CLI sweeps over it leave no bookkeeping files."""
    from repro.exec import CODE_SALT

    root = tmp_path / "c"
    argv = (
        "route", "--circuit", "primary1", "--scale", "0.05",
        "--algorithm", "serial", "--cache-dir", str(root),
    )
    run(capsys, *argv)
    code, out = run(capsys, *argv)
    assert code == 0
    assert "(cached)" in out
    names = [p.name for p in root.iterdir()]
    assert len(names) == 1
    assert names[0].endswith(".json")
    code, out = run(capsys, "cache", "stats", "--cache-dir", str(root))
    assert code == 0
    assert "entries   : 1" in out
    assert f"code salt : {CODE_SALT}" in out


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
    # cold: 4 point lookups miss (the serial point is the baseline, so
    # it is not looked up again) and store 4 records; warm: 4 point hits
    assert "cache: 4 hits, 0 misses" in out
    assert len(RunCache(root)) == 4


MP_ROUTE = (
    "route", "--circuit", "primary1", "--scale", "0.1",
    "--nprocs", "2", "--transport", "multiprocess",
)


def test_route_multiprocess_prints_measured_speedup(capsys):
    """The serial baseline is routed in the same sweep, so its host
    seconds give the measured speedup."""
    code, out = run(capsys, *MP_ROUTE, "--algorithm", "rowwise")
    assert code == 0
    measured = out.split("measured (multiprocess):", 1)[1]
    assert "speedup=" in measured.split("|")[0]


def test_route_multiprocess_with_cached_baseline_omits_measured_speedup(
    capsys, tmp_path
):
    """A cached baseline's host seconds come from another window, so the
    measured speedup stays unset rather than mixing the two."""
    cache = ("--cache-dir", str(tmp_path / "c"))
    code, _ = run(capsys, *MP_ROUTE, "--algorithm", "serial", *cache)
    assert code == 0
    code, out = run(capsys, *MP_ROUTE, "--algorithm", "rowwise", *cache)
    assert code == 0
    measured = out.split("measured (multiprocess):", 1)[1]
    assert "wall=" in measured
    assert "speedup=" not in measured.split("|")[0]


def test_route_after_profile_prints_the_baseline(capsys, tmp_path):
    """A parallel record cached by `profile` carries its serial baseline,
    so `route` can replay it with the `serial  :` line."""
    common = (
        "--scale", "0.05", "--algorithm", "hybrid", "--nprocs", "2",
        "--cache-dir", str(tmp_path / "d"),
    )
    code, _ = run(capsys, "profile", "primary1", *common)
    assert code == 0
    code, out = run(capsys, "route", "--circuit", "primary1", *common)
    assert code == 0
    assert "serial  : primary1@0.05" in out
    assert "(cached)" in out


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


def test_profile_parallel_prints_comm_trace(capsys):
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.06",
        "--nprocs", "2", "--algorithm", "hybrid",
    )
    assert code == 0
    assert "messages: " in out and "collectives: " in out
    assert "comm timeline" in out
    assert "bytes sent" in out


def test_profile_chrome_export(capsys, tmp_path):
    path = tmp_path / "chrome.json"
    jsonl = tmp_path / "trace.jsonl"
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.06",
        "--nprocs", "2", "--algorithm", "hybrid",
        "--chrome", str(path), "--jsonl", str(jsonl), "--flame",
    )
    assert code == 0
    assert "collectives:" in out
    assert "flamegraph" in out
    import json

    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "step2_coarse" for e in events)
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert any(r["type"] == "comm" for r in rows)


def test_profile_serial_flamegraph(capsys):
    code, out = run(
        capsys, "profile", "primary1", "--scale", "0.05",
        "--algorithm", "serial", "--flame",
    )
    assert code == 0
    assert "flamegraph (wall time)" in out
    # a serial run moves no messages, so no comm block prints
    assert "comm timeline" not in out


def test_profile_trace_of_a_cached_run_exits_1(capsys, tmp_path):
    argv = (
        "profile", "primary1", "--scale", "0.05", "--algorithm", "hybrid",
        "--nprocs", "2", "--cache-dir", str(tmp_path / "c"),
    )
    code, _ = run(capsys, *argv)
    assert code == 0
    code, out = run(capsys, *argv)
    assert code == 0
    assert "comm timeline" not in out  # a replay keeps no spans
    code, out = run(capsys, *argv, "--flame")
    assert code == 1
    assert out.startswith("no trace: ") and out.count("\n") == 1


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


def test_metrics_export_renders_counters(capsys, tmp_path):
    out_path = tmp_path / "metrics.prom"
    code, _ = run(
        capsys, "metrics", "export", "--scale", "0.05",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert "# TYPE repro_engine_circuit_builds_total counter" in lines
    (sample,) = [
        line for line in lines
        if line.startswith("repro_engine_circuit_builds_total ")
    ]
    assert float(sample.split()[1]) >= 1.0


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
    entry = payload["records"][0]
    assert entry["coord"]["experiment"] == "mini"
    assert entry["record"]["algorithm"] == entry["coord"]["algorithm"]


def test_experiment_command_rejects_bad_spec(capsys, tmp_path):
    spec = tmp_path / "bad.toml"
    spec.write_text('schema = 1\nname = "bad"\n\n[grid]\ncircuits = ["nope"]\n')
    code, out = run(capsys, "experiment", str(spec))
    assert code == 1
    assert "unknown circuit" in out


CHAOS = ("chaos", "--circuit", "primary1", "--scale", "0.1", "--nprocs", "4")


def test_chaos_smoke_passes(capsys):
    code, out = run(capsys, *CHAOS, "--smoke")
    assert code == 0
    assert "ok: crash contained (origin rank 0, step3_feedthrough)" in out
    assert "ok: delay plan replayed bit-identically" in out
    assert "ok: transient point retried and salvaged" in out


def test_chaos_crash_prints_the_containment_report(capsys):
    code, out = run(capsys, *CHAOS, "--plan", "crash-step3")
    assert code == 3
    assert "SPMD run failed: injected fault on rank 0 in step3_feedthrough" in out
    assert "ranks     : 4 total, 1 crashed, 3 released with RankError" in out
    assert "injected events:\n  rank0: 1 event(s)  [crash@step3_feedthrough]" in out


def test_chaos_message_delay_survives(capsys):
    code, out = run(capsys, *CHAOS, "--plan", "message-delay")
    assert code == 0
    assert "run survived the fault plan: primary1@0.1: tracks=" in out
    assert "modeled time: " in out
    summary = out.split("injected events:\n", 1)[1]
    assert [line.split(":")[0].strip() for line in summary.splitlines()] == [
        "rank0", "rank1", "rank2", "rank3",
    ]


def test_chaos_flaky_point_is_salvaged(capsys):
    code, out = run(capsys, *CHAOS, "--plan", "flaky-point")
    assert code == 0
    assert "salvage sweep: 2 point(s) completed, 0 failed, 2 retries" in out
    assert "  ok   : primary1 hybrid p=4 (attempt(s)=2)" in out


def test_quiet_chaos_keeps_warnings_off_stdout(capsys):
    code = main(["-q", *CHAOS, "--plan", "flaky-cache"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("salvage sweep: 2 point(s) completed, 0 failed")
    assert "cache write failed" not in captured.out
    assert "cache write failed for " in captured.err


def test_chaos_never_opens_a_run_cache(capsys, monkeypatch):
    from repro import exec as exec_mod

    def no_cache(*args, **kwargs):
        raise AssertionError("a chaos run opened a run cache")

    monkeypatch.setattr(exec_mod, "RunCache", no_cache)
    code, _ = run(capsys, *CHAOS, "--plan", "message-delay")
    assert code == 0
    code, _ = run(capsys, *CHAOS, "--smoke")
    assert code == 0


def test_experiment_json_carries_the_containment_report(capsys, tmp_path):
    import json
    from pathlib import Path

    spec = Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "chaos.json"
    out_path = tmp_path / "chaos.json"
    code, _ = run(
        capsys, "experiment", str(spec), "--jobs", "1", "--max-retries", "0",
        "--json", str(out_path),
    )
    assert code == 3
    (failure,) = json.loads(out_path.read_text())["failures"]
    assert "+crash-step3" in failure["point"]
    report = failure["report"]
    assert report["injected"] is True
    assert report["step"] == "step3_feedthrough"
    assert report["nprocs"] == 4 and len(report["ranks"]) == 4
