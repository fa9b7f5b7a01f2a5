"""Retry-with-backoff and partial-result salvage in the sweep engine."""

from __future__ import annotations

import pytest

from repro.exec import (
    DEGRADED_EXIT,
    RunCache,
    SweepPoint,
    run_sweep_salvage,
)
from repro.faults import CacheIOFault, FaultPlan, PointFault
from repro.twgr.config import RouterConfig

CFG = RouterConfig(seed=13)
SERIAL = SweepPoint(
    circuit="primary1", algorithm="serial", scale=0.05, circuit_seed=1, config=CFG
)
HYBRID = SweepPoint(
    circuit="primary1", algorithm="hybrid", nprocs=3, scale=0.05,
    circuit_seed=1, config=CFG,
)


def clean_quality(points):
    """Quality tuples of the same points swept without faults."""
    outcome = run_sweep_salvage(points, jobs=1)
    assert outcome.ok
    return [r.quality for r in outcome.records]


def test_clean_sweep_has_an_empty_ledger(tmp_path):
    """Without faults a sweep returns every record and an empty ledger."""
    outcome = run_sweep_salvage([SERIAL, HYBRID], jobs=1)
    assert outcome.ok
    assert outcome.exit_code == 0
    assert outcome.retries == 0
    assert [r.algorithm for r in outcome.records] == ["serial", "hybrid"]
    assert all(r.attempts == 1 for r in outcome.records)


def test_transient_point_retried_then_salvaged():
    """The acceptance sweep: one transiently failing point completes,
    retries at most max_retries times, every other record is salvaged,
    and the outcome carries the documented degraded/clean status."""
    plan = FaultPlan(0, (PointFault(match="hybrid", fail_times=1),))
    outcome = run_sweep_salvage(
        [SERIAL, HYBRID], jobs=1, faults=plan, max_retries=2, backoff_s=0.0
    )
    assert outcome.ok
    assert outcome.exit_code == 0
    assert outcome.retries == 1  # recovered on the second attempt
    assert len(outcome.records) == 2
    by_algo = {r.algorithm: r for r in outcome.records}
    assert by_algo["hybrid"].attempts == 2
    assert by_algo["serial"].attempts == 1


def test_persistent_point_lost_others_salvaged():
    plan = FaultPlan(0, (PointFault(match="hybrid", fail_times=99),))
    outcome = run_sweep_salvage(
        [SERIAL, HYBRID], jobs=1, faults=plan, max_retries=2, backoff_s=0.0
    )
    assert not outcome.ok
    assert outcome.exit_code == DEGRADED_EXIT
    # the serial record survives the hybrid point's death
    assert [r.algorithm for r in outcome.records] == ["serial"]
    (failure,) = outcome.failures
    assert failure.point.algorithm == "hybrid"
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 3  # 1 try + max_retries retries, never more
    assert "hybrid" in failure.describe()


def test_lost_baseline_fails_dependents_but_not_the_sweep():
    plan = FaultPlan(0, (PointFault(match="serial", fail_times=99),))
    outcome = run_sweep_salvage(
        [SERIAL, HYBRID], jobs=1, faults=plan, max_retries=1, backoff_s=0.0
    )
    assert outcome.exit_code == DEGRADED_EXIT
    assert outcome.records == []
    assert len(outcome.failures) == 2
    kinds = {f.point.algorithm: f.error_type for f in outcome.failures}
    assert kinds["serial"] == "BaselineFailure"
    assert kinds["hybrid"] == "BaselineFailure"


def test_salvaged_results_are_bit_identical_to_clean_runs():
    plan = FaultPlan(0, (PointFault(match="", fail_times=1),))
    salvaged = run_sweep_salvage(
        [SERIAL, HYBRID], jobs=1, faults=plan, max_retries=3, backoff_s=0.0
    )
    assert salvaged.ok
    assert [r.quality for r in salvaged.records] == clean_quality([SERIAL, HYBRID])


def test_salvage_replays_deterministically():
    outcomes = []
    for _ in range(2):
        plan = FaultPlan(4, (PointFault(match="hybrid", fail_times=2),))
        outcome = run_sweep_salvage(
            [SERIAL, HYBRID], jobs=1, faults=plan, max_retries=3, backoff_s=0.0
        )
        outcomes.append(
            (
                [r.quality for r in outcome.records],
                [r.attempts for r in outcome.records],
                outcome.retries,
                plan.fired(),
            )
        )
    assert outcomes[0] == outcomes[1]


def test_max_retries_zero_means_single_attempt():
    plan = FaultPlan(0, (PointFault(match="serial", fail_times=1),))
    outcome = run_sweep_salvage(
        [SERIAL], jobs=1, faults=plan, max_retries=0, backoff_s=0.0
    )
    assert not outcome.ok
    assert outcome.failures[0].attempts == 1
    with pytest.raises(ValueError):
        run_sweep_salvage([SERIAL], max_retries=-1)


# ---------------------------------------------------------------------------
# cache I/O faults: reads degrade to misses, writes are contained
# ---------------------------------------------------------------------------

def test_injected_cache_read_errors_are_misses(tmp_path):
    plan = FaultPlan(0, (CacheIOFault(op="get", fail_times=1),))
    cache = RunCache(tmp_path / "c", faults=plan)
    outcome = run_sweep_salvage([SERIAL], jobs=1, cache=cache)
    assert outcome.ok
    assert not outcome.records[0].cached  # the poisoned first read missed
    # budget spent: a fresh fault-free lookup now hits
    clean_cache = RunCache(tmp_path / "c")
    assert clean_cache.get(SERIAL.key()) is not None


def test_injected_cache_write_errors_do_not_lose_records(tmp_path):
    plan = FaultPlan(0, (CacheIOFault(op="put", fail_times=99),))
    cache = RunCache(tmp_path / "c", faults=plan)
    outcome = run_sweep_salvage([SERIAL], jobs=1, cache=cache, faults=plan)
    assert outcome.ok  # the record survives even though caching it failed
    assert len(cache) == 0  # nothing was persisted
    assert [outcome.records[0].quality] == clean_quality([SERIAL])


def test_cache_write_error_without_salvage_propagates(tmp_path):
    """Plain RunCache.put raises like a real full disk; only the salvage
    engine contains it."""
    plan = FaultPlan(0, (CacheIOFault(op="put", fail_times=1),))
    cache = RunCache(tmp_path / "c", faults=plan)
    with pytest.raises(OSError, match="injected cache put error"):
        cache.put("deadbeef", {"x": 1})
    cache.put("deadbeef", {"x": 1})  # transient: second write lands
    assert cache.get("deadbeef") == {"x": 1}


class TestRetryBackoff:
    """Capped, deterministically jittered retry sleeps."""

    def test_backoff_is_capped(self):
        from repro.exec import retry_backoff_s

        # without the cap, attempt 12 of a 50 ms base would be ~51 s
        delay = retry_backoff_s(0.05, 12, jitter_key="k")
        assert delay <= 2.0 * 1.5

    def test_backoff_is_deterministic_per_key_and_attempt(self):
        from repro.exec import retry_backoff_s

        a = retry_backoff_s(0.05, 3, jitter_key="point-a")
        assert a == retry_backoff_s(0.05, 3, jitter_key="point-a")
        assert a != retry_backoff_s(0.05, 3, jitter_key="point-b")
        assert a != retry_backoff_s(0.05, 4, jitter_key="point-a")

    def test_backoff_jitter_stays_in_band(self):
        from repro.exec import retry_backoff_s

        for attempt in range(2, 8):
            base = min(0.05 * (2 ** (attempt - 2)), 2.0)
            delay = retry_backoff_s(0.05, attempt, jitter_key=f"p{attempt}")
            assert 0.5 * base <= delay <= 1.5 * base

    def test_zero_backoff_never_sleeps(self):
        from repro.exec import retry_backoff_s

        assert retry_backoff_s(0.0, 5, jitter_key="k") == 0.0

    def test_jittered_retries_do_not_thunder_in_lockstep(self):
        from repro.exec import retry_backoff_s

        delays = {
            round(retry_backoff_s(0.05, 2, jitter_key=f"client{i}"), 9)
            for i in range(8)
        }
        assert len(delays) == 8  # every coalesced client sleeps differently
