"""Execution engine: bit-identity, baseline sharing, fan-out fallback."""

from __future__ import annotations

import pytest

from repro.circuits import mcnc
from repro.exec import RunCache, SweepPoint, execute_point, resolve_jobs, run_sweep
from repro.exec import engine as engine_mod
from repro.parallel.driver import ParallelConfig, route_parallel, serial_baseline
from repro.perfmodel.machine import MACHINES
from repro.twgr.config import RouterConfig

CFG = RouterConfig(seed=13)
POINT = SweepPoint(
    circuit="primary1", algorithm="hybrid", nprocs=3, scale=0.05,
    circuit_seed=1, config=CFG,
)


def quality(result):
    return (
        result.total_tracks,
        result.area,
        result.num_feedthroughs,
        result.model_time,
    )


# ---------------------------------------------------------------------------
# the acceptance-criteria test: pooled == cached == direct in-process
# ---------------------------------------------------------------------------

def test_pooled_cached_and_direct_runs_are_bit_identical(tmp_path):
    cache = RunCache(tmp_path / "cache")

    # engine run through run_sweep with a multi-worker pool request
    (pooled,) = [r for r in run_sweep([POINT, POINT.baseline_point()], jobs=2, cache=cache)
                 if r.algorithm == "hybrid"]
    assert not pooled.cached

    # cached replay of the same point
    replay = execute_point(POINT, cache=cache)
    assert replay.cached

    # direct in-process call, bypassing the engine entirely
    circuit = mcnc.generate("primary1", scale=0.05, seed=1)
    machine = MACHINES["SparcCenter-1000"]
    base = serial_baseline(
        circuit, CFG, machine=machine,
        memory_stats=engine_mod._full_scale_stats("primary1"),
    )
    direct = route_parallel(
        circuit, algorithm="hybrid", nprocs=3, machine=machine,
        config=CFG, baseline=base,
    )

    assert pooled.quality == replay.quality == quality(direct.result)
    assert pooled.baseline_result().model_time == base.model_time
    assert replay.parallel_run().speedup == direct.speedup
    assert replay.parallel_run().scaled_tracks == direct.scaled_tracks


def test_jobs_values_do_not_change_results(tmp_path):
    serial = run_sweep([POINT], jobs=1)
    pooled = run_sweep([POINT], jobs=2)
    assert [r.quality for r in serial] == [r.quality for r in pooled]
    assert serial[0].timing == pooled[0].timing


# ---------------------------------------------------------------------------
# baseline sharing (satellite: one serial route per circuit/config)
# ---------------------------------------------------------------------------

def test_procs_sweep_routes_serially_exactly_once(monkeypatch):
    calls = {"n": 0}
    real = engine_mod.serial_baseline

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "serial_baseline", counting)
    points = [
        SweepPoint(circuit="primary1", algorithm="rowwise", nprocs=p,
                   scale=0.05, circuit_seed=1, config=CFG)
        for p in (1, 2, 3, 4)
    ]
    records = run_sweep(points, jobs=1)
    assert calls["n"] == 1
    assert len(records) == 4
    base_q = records[0].baseline_result()
    for rec in records:
        assert quality(rec.baseline_result()) == quality(base_q)


def test_ablation_points_share_one_baseline():
    a = SweepPoint(circuit="primary1", algorithm="netwise", nprocs=2,
                   scale=0.05, circuit_seed=1, config=CFG,
                   pconfig=ParallelConfig(net_scheme="center"))
    b = SweepPoint(circuit="primary1", algorithm="netwise", nprocs=2,
                   scale=0.05, circuit_seed=1, config=CFG,
                   pconfig=ParallelConfig(net_scheme="density"))
    assert a.key() != b.key()
    assert a.baseline_point().key() == b.baseline_point().key()


def test_serial_spec_drops_parallel_knobs():
    p = SweepPoint(circuit="primary1", scale=0.05, circuit_seed=1, config=CFG,
                   pconfig=ParallelConfig(net_scheme="density"))
    assert "pconfig" not in p.spec()
    assert p.spec()["nprocs"] == 1


# ---------------------------------------------------------------------------
# cache interaction inside sweeps
# ---------------------------------------------------------------------------

def test_sweep_cache_cold_then_warm(tmp_path, monkeypatch):
    cache = RunCache(tmp_path / "cache")
    points = [
        SweepPoint(circuit="primary1", algorithm=a, nprocs=2,
                   scale=0.05, circuit_seed=1, config=CFG)
        for a in ("rowwise", "netwise")
    ]
    cold = run_sweep(points, jobs=1, cache=cache)
    assert all(not r.cached for r in cold)
    assert len(cache) == 3  # two parallel records + one shared baseline

    def boom(*args, **kwargs):  # a warm sweep must never route
        raise AssertionError("routed on a warm cache")

    monkeypatch.setattr(engine_mod, "_execute", boom)
    warm = run_sweep(points, jobs=1, cache=cache)
    assert all(r.cached for r in warm)
    assert [r.quality for r in warm] == [r.quality for r in cold]


def test_execute_point_serial_record_roundtrip(tmp_path):
    cache = RunCache(tmp_path / "cache")
    point = POINT.baseline_point()
    fresh = execute_point(point, cache=cache)
    replay = execute_point(point, cache=cache)
    assert not fresh.cached and replay.cached
    assert replay.host_seconds == 0.0
    assert fresh.quality == replay.quality
    with pytest.raises(ValueError):
        replay.parallel_run()  # serial records carry no timing report


# ---------------------------------------------------------------------------
# validation and jobs resolution
# ---------------------------------------------------------------------------

def test_validate_rejects_bad_specs():
    with pytest.raises(KeyError):
        SweepPoint(circuit="not-a-benchmark").validate()
    with pytest.raises(ValueError):
        SweepPoint(circuit="primary1", machine="not-a-machine").validate()
    with pytest.raises(ValueError):
        SweepPoint(circuit="primary1", algorithm="hybrid", nprocs=9).validate()


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(5) == 5
    assert resolve_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert resolve_jobs() >= 1
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() >= 1


def test_pool_failure_falls_back_to_inline(monkeypatch):
    def broken_map(self, fn, tasks):
        raise OSError("no pool for you")

    import concurrent.futures

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "map", broken_map
    )
    records = run_sweep([POINT], jobs=4)
    assert [r.quality for r in records] == [r.quality for r in run_sweep([POINT], jobs=1)]


def _echo_worker(task):
    return {"task": task}


def test_pool_fallback_is_logged(monkeypatch, caplog):
    """The inline fallback is announced through the obs logger, not silent."""

    def broken_map(self, fn, tasks):
        raise OSError("no pool for you")

    import concurrent.futures
    import logging

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "map", broken_map
    )
    with caplog.at_level(logging.WARNING, logger="repro.exec"):
        out = engine_mod._map_tasks([1, 2], jobs=2, worker=_echo_worker)
    assert out == [{"task": 1}, {"task": 2}]
    assert any("inline" in rec.message for rec in caplog.records)


def _raising_worker(task):
    raise ValueError("deterministic worker failure")


def test_worker_exception_propagates_not_swallowed():
    """Regression: ``_map_tasks`` used to catch *every* exception and
    silently rerun the whole batch inline — a deterministic worker
    failure was masked (and recomputed) instead of surfacing.  Only
    pool-level failures may trigger the fallback."""
    tasks = [(POINT, None), (POINT.baseline_point(), None)]
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="deterministic worker failure"):
            engine_mod._map_tasks(tasks, jobs, worker=_raising_worker)


# ---------------------------------------------------------------------------
# telemetry: every routed record carries a per-step profile
# ---------------------------------------------------------------------------

STEP_NAMES = {
    "step1_steiner",
    "step2_coarse",
    "step3_feedthrough",
    "step4_connect",
    "step5_switch",
}


def test_records_carry_step_profiles(tmp_path):
    record = execute_point(POINT, cache=RunCache(tmp_path / "c"))
    assert record.profile is not None
    prof = record.run_profile()
    assert STEP_NAMES <= set(prof.steps)
    assert prof.algorithm == "hybrid"
    assert prof.nprocs == 3
    # parallel runs move real traffic; the profile must see it
    assert prof.comm["messages"] > 0
    assert prof.comm["bytes"] > 0
    for name in STEP_NAMES:
        assert prof.step_seconds(name) >= 0.0


def test_cached_replay_retains_profile(tmp_path):
    cache = RunCache(tmp_path / "c")
    first = execute_point(POINT, cache=cache)
    replay = execute_point(POINT, cache=cache)
    assert replay.cached
    assert replay.profile == first.profile
    assert replay.run_profile().to_dict() == first.run_profile().to_dict()


def test_serial_points_profile_without_comm(tmp_path):
    serial = POINT.baseline_point()
    record = execute_point(serial, cache=RunCache(tmp_path / "c"))
    prof = record.run_profile()
    assert STEP_NAMES <= set(prof.steps)
    assert prof.comm["messages"] == 0
    assert prof.comm["collectives"] == 0


def test_profile_model_time_matches_record(tmp_path):
    record = execute_point(POINT, cache=RunCache(tmp_path / "c"))
    prof = record.run_profile()
    assert prof.model_time == pytest.approx(record.quality[3])


# ---------------------------------------------------------------------------
# the fault axis (experiment specs inject SPMD fault plans per point)
# ---------------------------------------------------------------------------

def test_validate_rejects_unknown_or_serial_fault_plans():
    with pytest.raises(ValueError):
        SweepPoint(
            circuit="primary1", algorithm="hybrid", nprocs=2,
            fault_plan="gremlins",
        ).validate()
    with pytest.raises(ValueError):
        SweepPoint(circuit="primary1", fault_plan="crash-step3").validate()


def test_fault_plan_changes_cache_key_only_when_set():
    clean = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=CFG,
    )
    # fault-free points keep the pre-fault-axis spec (cache keys stable)
    assert "fault_plan" not in clean.spec()
    assert "fault_seed" not in clean.spec()
    faulted = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=CFG, fault_plan="message-delay", fault_seed=7,
    )
    assert faulted.spec()["fault_plan"] == "message-delay"
    assert faulted.spec()["fault_seed"] == 7
    assert faulted.key() != clean.key()
    assert "+message-delay" in faulted.describe()


def test_baseline_point_clears_faults():
    faulted = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=CFG, fault_plan="message-delay", fault_seed=7,
    )
    base = faulted.baseline_point()
    assert base.algorithm == "serial"
    assert base.fault_plan == "" and base.fault_seed == 0
    # the faulted parallel point shares the clean serial baseline key
    clean = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=CFG,
    )
    assert base.key() == clean.baseline_point().key()


def test_benign_fault_plan_executes_and_is_observed():
    from repro.obs.metrics import REGISTRY

    REGISTRY.reset()
    point = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=RouterConfig(seed=1),
        fault_plan="message-delay", fault_seed=3,
    )
    record = execute_point(point, compute_baseline=False)
    # delays perturb timing, never routed quality (determinism contract)
    clean = execute_point(
        point.baseline_point(), compute_baseline=False
    )
    assert record.result["total_tracks"] == clean.result["total_tracks"]
    # fresh executions observe per-point host latency into the registry
    snap = REGISTRY.snapshot()
    assert snap["histograms"]["engine.point_host_ms"]["count"] == 2
