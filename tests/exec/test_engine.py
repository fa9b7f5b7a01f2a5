"""Execution engine: bit-identity, baseline sharing, fan-out fallback."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits import mcnc
from repro.exec import RunCache, SweepPoint, resolve_jobs, run_sweep_salvage
from repro.exec import engine as engine_mod
from repro.parallel.driver import ParallelConfig, route_parallel, serial_baseline
from repro.perfmodel.machine import MACHINES
from repro.twgr.config import RouterConfig

CFG = RouterConfig(seed=13)
POINT = SweepPoint(
    circuit="primary1", algorithm="hybrid", nprocs=3, scale=0.05,
    circuit_seed=1, config=CFG,
)


def sweep_records(points, jobs=1, cache=None):
    """Records of a sweep that must lose no point.

    Every parallel record, fresh or replayed from the cache, carries the
    serial baseline it was scaled against.
    """
    outcome = run_sweep_salvage(points, jobs=jobs, cache=cache)
    assert outcome.ok, outcome.failures
    for rec in outcome.records:
        assert rec.algorithm == "serial" or rec.baseline is not None
    return outcome.records


def run_point(point, cache=None):
    (record,) = sweep_records([point], cache=cache)
    return record


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

    # engine run with a multi-worker pool request
    (pooled,) = [r for r in sweep_records([POINT, POINT.baseline_point()], jobs=2, cache=cache)
                 if r.algorithm == "hybrid"]
    assert not pooled.cached

    # cached replay of the same point
    replay = run_point(POINT, cache=cache)
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
    serial = sweep_records([POINT], jobs=1)
    pooled = sweep_records([POINT], jobs=2)
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
    records = sweep_records(points, jobs=1)
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


def test_key_names_the_transport_that_runs():
    # the default point's key must not be shared with a multiprocess run
    p = SweepPoint(circuit="primary1", algorithm="rowwise", nprocs=2,
                   scale=0.05, circuit_seed=1, config=CFG)
    mp = replace(p, config=replace(CFG, transport="multiprocess"))
    assert p.spec()["config"]["transport"] == "inprocess"
    assert p.key() != mp.key()


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
    cold = sweep_records(points, jobs=1, cache=cache)
    assert all(not r.cached for r in cold)
    assert len(cache) == 3  # two parallel records + one shared baseline

    def boom(*args, **kwargs):  # a warm sweep must never route
        raise AssertionError("routed on a warm cache")

    monkeypatch.setattr(engine_mod, "_execute", boom)
    warm = sweep_records(points, jobs=1, cache=cache)
    assert all(r.cached for r in warm)
    assert [r.quality for r in warm] == [r.quality for r in cold]


def test_each_distinct_key_is_looked_up_once(tmp_path):
    """A cold serial point is one miss and one store, not a miss as
    itself plus a second miss as its own baseline."""
    point = POINT.baseline_point()
    cold = RunCache(tmp_path / "cache")
    run_point(point, cache=cold)
    assert (cold.hits, cold.misses, cold.stores) == (0, 1, 1)
    warm = RunCache(tmp_path / "cache")
    run_point(point, cache=warm)
    assert (warm.hits, warm.misses, warm.stores) == (1, 0, 0)


def test_serial_record_roundtrip(tmp_path):
    cache = RunCache(tmp_path / "cache")
    point = POINT.baseline_point()
    fresh = run_point(point, cache=cache)
    replay = run_point(point, cache=cache)
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


def test_resolve_jobs_precedence():
    assert resolve_jobs(5) == 5
    assert resolve_jobs() >= 1
    assert resolve_jobs(0) == resolve_jobs()


def test_pool_failure_falls_back_to_inline(monkeypatch):
    def broken_map(self, fn, tasks):
        raise OSError("no pool for you")

    import concurrent.futures

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "map", broken_map
    )
    records = sweep_records([POINT], jobs=4)
    assert [r.quality for r in records] == [r.quality for r in sweep_records([POINT], jobs=1)]


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


_real_execute = engine_mod._execute


def _raising_execute(point, baseline):
    if point.algorithm != "serial":
        raise ValueError("deterministic worker failure")
    return _real_execute(point, baseline)


def test_worker_exception_propagates_not_swallowed(monkeypatch, caplog):
    """Regression: ``_map_tasks`` used to catch *every* exception and
    silently rerun the whole batch inline — a deterministic worker
    failure was masked (and recomputed) instead of surfacing.  A raising
    point is reported with its own error type after exactly
    ``max_retries + 1`` attempts; only pool-level failures may trigger
    the inline fallback."""
    import logging

    monkeypatch.setattr(engine_mod, "_execute", _raising_execute)
    points = [POINT, replace(POINT, nprocs=2)]
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            outcome = run_sweep_salvage(points, jobs=jobs, max_retries=1, backoff_s=0.0)
        assert outcome.records == []  # the shared baseline is not a point
        assert [f.error_type for f in outcome.failures] == ["ValueError", "ValueError"]
        assert all(f.attempts == 2 for f in outcome.failures)
        assert outcome.retries == 2
        assert not any("inline" in rec.message for rec in caplog.records)


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
    record = run_point(POINT, cache=RunCache(tmp_path / "c"))
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
    first = run_point(POINT, cache=cache)
    replay = run_point(POINT, cache=cache)
    assert replay.cached
    assert replay.profile == first.profile
    assert replay.run_profile().to_dict() == first.run_profile().to_dict()


def test_serial_points_profile_without_comm(tmp_path):
    serial = POINT.baseline_point()
    record = run_point(serial, cache=RunCache(tmp_path / "c"))
    prof = record.run_profile()
    assert STEP_NAMES <= set(prof.steps)
    assert prof.comm["messages"] == 0
    assert prof.comm["collectives"] == 0


def test_profile_model_time_matches_record(tmp_path):
    record = run_point(POINT, cache=RunCache(tmp_path / "c"))
    prof = record.run_profile()
    assert prof.model_time == pytest.approx(record.quality[3])


# ---------------------------------------------------------------------------
# spans and fault logs: a fresh record keeps its run's trace, a replay has
# none, and neither reaches the record's dict form
# ---------------------------------------------------------------------------

RECORD_KEYS = {
    "format", "circuit", "scale", "circuit_seed", "algorithm", "nprocs",
    "machine", "result", "timing", "baseline", "profile", "key",
    "host_seconds", "attempts",
}


def _span_names(roots):
    roots = sorted(roots, key=lambda span: span.tags.get("rank", -1))
    return [span.name for root in roots for span in root.walk()]


def _comm_rows(roots):
    return sorted(
        (e.kind, e.rank, e.peer, e.tag, e.nbytes, e.op)
        for root in roots for span in root.walk() for e in span.events
    )


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess"])
def test_fresh_record_spans_match_a_direct_traced_run(transport):
    from repro.obs import Tracer

    config = RouterConfig(seed=13, transport=transport)
    record = run_point(replace(POINT, nprocs=2, config=config))
    tracer = Tracer()
    route_parallel(
        mcnc.generate("primary1", scale=0.05, seed=1), algorithm="hybrid",
        nprocs=2, config=config, compute_baseline=False, obs=tracer,
    )
    assert _span_names(record.spans) == _span_names(tracer.roots)
    assert _comm_rows(record.spans) == _comm_rows(tracer.roots)
    assert any(row[0] == "send" for row in _comm_rows(record.spans))


def test_pool_workers_return_their_spans():
    points = [POINT, replace(POINT, nprocs=2)]
    for record in sweep_records(points, jobs=2):
        ranks = sorted(root.tags["rank"] for root in record.spans)
        assert ranks == list(range(record.nprocs))


def test_cached_replay_has_no_spans_and_the_cache_stores_nothing_new(tmp_path):
    cache = RunCache(tmp_path / "c")
    fresh = run_point(POINT, cache=cache)
    assert fresh.spans and set(fresh.to_dict()) == RECORD_KEYS
    assert set(cache.get(POINT.key())) == RECORD_KEYS
    replay = run_point(POINT, cache=cache)
    assert replay.cached
    assert replay.spans == [] and replay.fired == {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_fault_logs_reach_the_record_and_the_failure(jobs):
    delay = replace(POINT, nprocs=2, fault_plan="message-delay", fault_seed=3)
    crash = replace(POINT, nprocs=2, fault_plan="crash-step3", fault_seed=1)
    outcome = run_sweep_salvage([delay, crash], jobs=jobs, max_retries=0)
    (record,) = outcome.records
    assert set(record.fired) == {"rank0", "rank1"}
    assert set(record.to_dict()) == RECORD_KEYS
    (failure,) = outcome.failures
    assert failure.error_type == "RankError"
    assert failure.report.injected and failure.report.failed_rank == 1
    assert failure.fired == {"rank1": ["crash@step3_feedthrough"]}
    assert "report" not in failure.to_dict()


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
    clean, record = sweep_records([point.baseline_point(), point])
    # delays perturb timing, never routed quality (determinism contract)
    assert record.result["total_tracks"] == clean.result["total_tracks"]
    # fresh executions (the point and its baseline) observe per-point
    # host latency into the registry
    snap = REGISTRY.snapshot()
    assert snap["histograms"]["engine.point_host_ms"]["count"] == 2
