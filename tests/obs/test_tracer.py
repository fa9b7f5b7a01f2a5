"""Tracer: span nesting, clocks, metrics attribution, null behavior."""

from __future__ import annotations

import threading
import time

from repro.obs.tracer import NULL_TRACER, CommEvent, NullTracer, Span, Tracer
from repro.perfmodel.counter import TallyCounter


def test_spans_nest_and_close():
    tr = Tracer()
    with tr.span("outer", step=0):
        with tr.span("inner_a"):
            pass
        with tr.span("inner_b"):
            pass
    assert [r.name for r in tr.roots] == ["outer"]
    outer = tr.roots[0]
    assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
    assert outer.tags == {"step": 0}
    assert outer.wall_s >= 0.0
    assert outer.t1 >= outer.t0


def test_span_closes_on_exception():
    tr = Tracer()
    try:
        with tr.span("outer"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert len(tr.roots) == 1
    assert tr.roots[0].t1 >= tr.roots[0].t0


def test_metrics_attach_to_innermost_open_span():
    tr = Tracer()
    with tr.span("outer"):
        tr.add_metric("msg.sent", 1)
        with tr.span("inner"):
            tr.add_metric("msg.sent", 2)
        tr.add_metric("msg.sent", 3)
    outer = tr.roots[0]
    assert outer.metrics["msg.sent"] == 4
    assert outer.children[0].metrics["msg.sent"] == 2


def test_metric_outside_any_span_is_dropped():
    tr = Tracer()
    tr.add_metric("msg.sent", 5)  # no open span: silently ignored
    assert tr.roots == []


def test_bound_work_tally_attributes_own_ops():
    """Each span keeps the units charged while it was innermost; charges
    before any span, or after the tally is unbound, go nowhere."""
    tr = Tracer()
    tally = TallyCounter()
    tally.add("mst", 100)  # charged before binding: not a span's
    tr.bind_work(tally.units)
    tally.add("mst", 7)  # charged before any span opened
    with tr.span("route"):
        tally.add("mst", 10)
        with tr.span("step1_steiner", step=1):
            tally.add("mst", 5)
            tally.add("refine", 2)
        tally.add("mst", 1)
    tr.bind_work(None)
    with tr.span("unbound"):
        tally.add("mst", 3)
    route, unbound = tr.roots
    assert route.metrics == {"ops.mst": 11.0}
    assert route.children[0].metrics == {"ops.mst": 5.0, "ops.refine": 2.0}
    assert unbound.metrics == {}


def test_comm_event_rides_innermost_span_and_adds_metrics():
    tr = Tracer()
    clock = _FakeClock()
    tr.bind_clock(clock)
    tr.comm_event("send", 0, 1, 5, 64)  # no open span: dropped
    with tr.span("rank", rank=0):
        clock.time = 0.5
        with tr.span("step1_steiner", step=1):
            tr.comm_event("send", 0, 1, 5, 64)
            tr.comm_event("collective", 0, -1, -1, 0, "bcast")
        clock.time = 0.75
        tr.comm_event("recv", 0, 1, 5, 32)
    tr.bind_clock(None)
    rank = tr.roots[0]
    step = rank.children[0]
    # events are not spans
    assert [s.name for s in tr.walk()] == ["rank", "step1_steiner"]
    assert step.events == [
        CommEvent("send", 0.5, 0, 1, 5, 64),
        CommEvent("collective", 0.5, 0, -1, -1, 0, "bcast"),
    ]
    assert step.metrics == {"msg.sent": 1, "msg.bytes": 64, "coll.bcast": 1}
    assert rank.events == [CommEvent("recv", 0.75, 0, 1, 5, 32)]
    assert rank.metrics == {}
    # the run-wide log is in simulated-time order, across the span tree
    assert [e.kind for e in tr.comm_events()] == ["send", "collective", "recv"]


def test_comm_events_survive_span_round_trip():
    tr = Tracer()
    with tr.span("rank", rank=1):
        tr.comm_event("send", 1, 0, -3, 12, "gather")
    rebuilt = Span.from_dict(tr.roots[0].to_dict())
    assert rebuilt.events == tr.roots[0].events
    merged = Tracer()
    merged.adopt([rebuilt])
    assert merged.comm_events() == [CommEvent("send", 0.0, 1, 0, -3, 12, "gather")]


class _FakeClock:
    def __init__(self) -> None:
        self.time = 0.0


def test_bound_clock_gives_simulated_interval():
    tr = Tracer()
    clock = _FakeClock()
    tr.bind_clock(clock)
    with tr.span("work"):
        clock.time = 2.5
    tr.bind_clock(None)
    span = tr.roots[0]
    assert span.sim_t0 == 0.0
    assert span.sim_t1 == 2.5
    assert span.sim_s == 2.5


def test_unbound_clock_means_no_sim_time():
    tr = Tracer()
    with tr.span("work"):
        pass
    assert tr.roots[0].sim_s is None


def test_threads_keep_independent_stacks():
    tr = Tracer()
    barrier = threading.Barrier(2)

    def worker(rank: int) -> None:
        with tr.span("rank", rank=rank):
            barrier.wait()  # both spans open concurrently
            with tr.span("step"):
                pass

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tr.roots) == 2
    assert {r.tags["rank"] for r in tr.roots} == {0, 1}
    for root in tr.roots:
        assert [c.name for c in root.children] == ["step"]


def _ranks_finishing_in_reverse(comm) -> None:
    """An SPMD body whose higher ranks return first."""
    time.sleep(0.02 * (comm.size - comm.rank))


def test_inprocess_rank_roots_keep_rank_order():
    from repro.mpi.runtime import run_inprocess

    tr = Tracer()
    with tr.span("setup"):
        pass
    run_inprocess(3, _ranks_finishing_in_reverse, obs=tr)
    run_inprocess(3, _ranks_finishing_in_reverse, obs=tr)
    assert [(r.name, r.tags.get("rank")) for r in tr.roots] == [
        ("setup", None), *[("rank", r) for r in (0, 1, 2)] * 2,
    ]


def test_route_parallel_roots_come_in_rank_order():
    from repro.circuits import mcnc
    from repro.parallel.driver import route_parallel
    from repro.twgr.config import RouterConfig

    circuit = mcnc.generate("primary1", scale=0.05, seed=1)
    for _ in range(10):
        tr = Tracer()
        route_parallel(
            circuit, "hybrid", nprocs=3, config=RouterConfig(seed=1), obs=tr,
        )
        assert [r.tags["rank"] for r in tr.roots] == [0, 1, 2]


def test_step_totals_aggregates_across_spans():
    tr = Tracer()
    for _ in range(3):
        with tr.span("step1_steiner", step=1):
            tr.add_metric("ops.mst", 10)
    totals = tr.step_totals()
    agg = totals["step1_steiner"]
    assert agg["count"] == 3
    assert agg["ops.mst"] == 30.0
    assert agg["wall_max_s"] <= agg["wall_sum_s"]


def test_event_records_instant():
    tr = Tracer()
    with tr.span("outer"):
        tr.event("sync", round=2)
    ev = tr.roots[0].children[0]
    assert ev.name == "sync"
    assert ev.wall_s == 0.0
    assert ev.tags == {"round": 2}


def test_null_tracer_is_inert_and_identity():
    nt = NULL_TRACER
    assert isinstance(nt, NullTracer)
    with nt.span("x", a=1) as span:
        assert span is None
    nt.add_metric("m", 1)
    nt.event("e")
    nt.bind_clock(_FakeClock())
    nt.bind_work({"mst": 1.0})
    nt.comm_event("send", 0, 1, 0, 8)
    assert list(nt.walk()) == []
    assert nt.step_totals() == {}
