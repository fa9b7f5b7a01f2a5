"""The engine's circuit memo: one shared, bounded, unmutated circuit per key."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.circuits import mcnc
from repro.exec import SweepPoint, run_sweep_salvage
from repro.exec import engine as engine_mod
from repro.exec.engine import build_circuit
from repro.obs.metrics import REGISTRY
from repro.twgr.config import RouterConfig
from tests.circuits.fingerprint import circuit_fingerprint
from tests.grid.test_kernel_equivalence import GOLDEN


def _counts():
    counters = REGISTRY.snapshot()["counters"]
    return (
        counters.get("engine.circuit_builds", 0),
        counters.get("engine.circuit_reuses", 0),
    )


def _snapshot(circuit):
    return circuit_fingerprint(circuit), sorted(vars(circuit))


def _deterministic(record):
    return record.result, record.baseline, record.timing


def test_two_sweeps_share_one_circuit_and_agree(monkeypatch):
    built = []
    real = engine_mod.build_circuit

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(engine_mod, "build_circuit", spy)
    point = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=2, scale=0.05,
        circuit_seed=1, config=RouterConfig(seed=1),
    )
    first = run_sweep_salvage([point], jobs=1)
    second = run_sweep_salvage([point], jobs=1)
    assert first.ok and second.ok
    # baseline + parallel point, twice
    assert len(built) == 4
    assert all(c is built[0] for c in built)
    assert [_deterministic(r) for r in first.records] == [
        _deterministic(r) for r in second.records
    ]


def test_alias_and_canonical_name_share_one_entry():
    before = _counts()
    canonical = build_circuit("avq_small", 0.02, 1)
    assert build_circuit("avq.small", 0.02, 1) is canonical
    builds, reuses = _counts()
    assert (builds - before[0], reuses - before[1]) == (1, 1)
    assert list(engine_mod._circuits) == [("avq_small", 0.02, 1)]


def test_racing_threads_receive_one_object(monkeypatch):
    nthreads = 8
    # every thread misses, then all build at once
    barrier = threading.Barrier(nthreads, timeout=30)
    real = mcnc.generate

    def generate(*args, **kwargs):
        barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(mcnc, "generate", generate)
    got = [None] * nthreads

    def worker(i):
        got[i] = build_circuit("primary1", 0.05, 2)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    before = _counts()[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert _counts()[0] - before == nthreads
    assert got[0] is not None
    assert all(c is got[0] for c in got)
    assert list(engine_mod._circuits) == [("primary1", 0.05, 2)]
    assert build_circuit("primary1", 0.05, 2) is got[0]


def test_over_the_pin_budget_evicts_least_recently_used(monkeypatch):
    a = build_circuit("primary1", 0.05, 1)
    b = build_circuit("primary1", 0.05, 2)
    c_pins = len(mcnc.generate("primary1", 0.05, 3).pins)
    monkeypatch.setattr(
        engine_mod, "CIRCUIT_MEMO_PINS", len(a.pins) + max(len(b.pins), c_pins),
    )
    assert build_circuit("primary1", 0.05, 1) is a  # a is now the most recent
    c = build_circuit("primary1", 0.05, 3)
    assert list(engine_mod._circuits) == [("primary1", 0.05, 1), ("primary1", 0.05, 3)]
    assert build_circuit("primary1", 0.05, 1) is a
    assert build_circuit("primary1", 0.05, 3) is c
    assert build_circuit("primary1", 0.05, 2) is not b


def test_a_circuit_over_the_whole_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(engine_mod, "CIRCUIT_MEMO_PINS", 10)
    first = build_circuit("primary1", 0.05, 1)
    assert not engine_mod._circuits
    assert build_circuit("primary1", 0.05, 1) is not first


def test_clear_forgets_every_entry():
    first = build_circuit("primary1", 0.05, 1)
    engine_mod.clear_circuit_memo()
    assert not engine_mod._circuits
    assert build_circuit("primary1", 0.05, 1) is not first


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess"])
def test_sweeps_leave_the_memoized_circuit_unchanged(transport):
    circuit = build_circuit("primary1", 0.1, 1)
    before = _snapshot(circuit)
    builds = _counts()[0]
    points = [
        SweepPoint(
            circuit="primary1", algorithm=algorithm, nprocs=nprocs, scale=0.1,
            circuit_seed=1, config=RouterConfig(seed=1, transport=transport),
        )
        for algorithm in ("rowwise", "netwise", "hybrid")
        for nprocs in (2, 3)
    ]
    outcome = run_sweep_salvage(points, jobs=1)
    assert outcome.ok, outcome.failures
    assert _counts()[0] == builds  # every point routed the memoized object
    assert build_circuit("primary1", 0.1, 1) is circuit
    assert _snapshot(circuit) == before


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess"])
def test_a_crashed_run_leaves_the_circuit_for_a_golden_clean_route(transport):
    clean = SweepPoint(
        circuit="primary1", algorithm="hybrid", nprocs=4, scale=0.15,
        circuit_seed=13, config=RouterConfig(seed=13, transport=transport),
    )
    circuit = build_circuit("primary1", 0.15, 13)
    before = _snapshot(circuit)
    crashed = run_sweep_salvage(
        [replace(clean, fault_plan="crash-step3")], jobs=1, max_retries=0,
    )
    assert [f.error_type for f in crashed.failures] == ["RankError"]
    assert _snapshot(circuit) == before

    outcome = run_sweep_salvage([clean], jobs=1)
    assert outcome.ok, outcome.failures
    r = outcome.records[0].routing_result()
    got = (r.total_tracks, r.area, r.num_feedthroughs, r.wirelength, r.flips, r.num_spans)
    assert got == GOLDEN[("primary1", 0.15, "hybrid")]
    assert build_circuit("primary1", 0.15, 13) is circuit
