"""The multiprocess transport: selection, parity with in-process, faults.

Every rank program lives at module level so the suite stays correct
under the ``spawn`` start method (children must be able to import the
function by qualified name), even though the transport prefers ``fork``
where available.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.circuits import mcnc
from repro.cli import main
from repro.faults import (
    ALL_RANKS,
    FaultPlan,
    MessageDelayFault,
    ReorderFault,
    make_plan,
)
from repro.geometry import Point
from repro.mpi.runtime import TRANSPORTS, RankError, run_spmd
from repro.obs import Tracer
from repro.parallel.driver import route_parallel
from repro.steiner.tree import TreeSet, build_net_tree
from repro.twgr.config import RouterConfig
from tests.circuits.fingerprint import circuit_fingerprint


# ---------------------------------------------------------------------------
# selection: two names, anything else fails fast
# ---------------------------------------------------------------------------

def _rank_program(comm):
    return comm.rank


def _assert_lists_transports(exc_info):
    message = str(exc_info.value)
    assert "unknown SPMD transport" in message
    for name in TRANSPORTS:
        assert name in message


def test_resolve_unknown_fails_fast_listing_names(capsys):
    assert TRANSPORTS == ("inprocess", "multiprocess")
    for name in ("mpi", "auto"):
        with pytest.raises(ValueError) as exc:
            run_spmd(2, _rank_program, transport=name)
        _assert_lists_transports(exc)
    with pytest.raises(SystemExit) as exc:
        main(["route", "--circuit", "primary1", "--transport", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_router_config_carries_transport():
    assert RouterConfig().transport == "inprocess"
    RouterConfig(transport="multiprocess").validate()
    for name in ("mpi", "auto"):
        with pytest.raises(ValueError) as exc:
            RouterConfig(transport=name).validate()
        _assert_lists_transports(exc)


# ---------------------------------------------------------------------------
# collectives parity (bit-identical payloads across transports)
# ---------------------------------------------------------------------------

def _collective_program(comm):
    """Exercise every collective once; return comparable payloads."""
    seed = comm.bcast(
        np.arange(6, dtype=np.float64) + 0.125 if comm.rank == 0 else None
    )
    total = comm.reduce(int(seed.sum()) + comm.rank)
    gathered = comm.gather((comm.rank, float(seed[comm.rank % seed.size])))
    exchanged = comm.alltoall(
        [(comm.rank, dest, comm.rank * comm.size + dest)
         for dest in range(comm.size)]
    )
    # tobytes() makes the bcast payload comparison bit-exact, not just
    # numerically equal
    return (seed.tobytes(), total, gathered, exchanged)


@pytest.mark.parametrize("nprocs", [2, 3, 5])
def test_collectives_parity_across_transports(nprocs):
    ref = run_spmd(nprocs, _collective_program, transport="inprocess")
    out = run_spmd(nprocs, _collective_program, transport="multiprocess")
    assert out.values == ref.values
    assert out.message_count == ref.message_count
    assert out.byte_count == ref.byte_count
    assert ref.transport == "inprocess"
    assert out.transport == "multiprocess"


def _pingpong_program(comm):
    """Point-to-point ordering: ring exchange with tagged messages."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(("hello", comm.rank), dest=right, tag=1)
    got = comm.recv(source=left, tag=1)
    return got


@pytest.mark.parametrize("nprocs", [2, 3])
def test_point_to_point_parity(nprocs):
    ref = run_spmd(nprocs, _pingpong_program, transport="inprocess")
    out = run_spmd(nprocs, _pingpong_program, transport="multiprocess")
    assert out.values == ref.values


# ---------------------------------------------------------------------------
# messages larger than a pipe buffer (64 KiB on Linux)
# ---------------------------------------------------------------------------

def _big_payload(rank, nbytes):
    return bytes([rank]) + bytes(range(256)) * (nbytes // 256)


def _big_sendrecv_program(comm):
    """Both ranks send 1 MiB to each other at once."""
    return comm.sendrecv(_big_payload(comm.rank, 1 << 20), 1 - comm.rank, tag=3)


def _big_ring_program(comm):
    """Every rank sends 512 KiB to its right neighbour, then receives.

    A small message follows the large one on the same pipe, so it must
    queue behind the large one's unwritten remainder.
    """
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.send(_big_payload(comm.rank, 1 << 19), right, tag=4)
    comm.send(("after", comm.rank), right, tag=4)
    return comm.recv(left, tag=4), comm.recv(left, tag=4)


@pytest.mark.parametrize(
    "nprocs, program", [(2, _big_sendrecv_program), (3, _big_ring_program)]
)
def test_large_concurrent_sends_do_not_deadlock(nprocs, program):
    ref = run_spmd(nprocs, program, transport="inprocess")
    out = run_spmd(nprocs, program, transport="multiprocess", deadlock_timeout=30.0)
    assert out.values == ref.values
    assert out.message_count == ref.message_count
    assert out.byte_count == ref.byte_count


def _stream(rank):
    """24 messages from ``rank``; every third is larger than a pipe buffer."""
    return [
        (i, _big_payload(rank, 1 << 17 if i % 3 == 0 else 64)) for i in range(24)
    ]


def _stream_ring_program(comm):
    # frequent thread switches make the main thread's posts and the
    # sender thread's backlog flushes interleave as finely as they can
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for msg in _stream(comm.rank):
            comm.send(msg, (comm.rank + 1) % comm.size, tag=6)
        return [comm.recv((comm.rank - 1) % comm.size, tag=6) for _ in range(24)]
    finally:
        sys.setswitchinterval(old)


def test_interleaved_sends_keep_pipe_order():
    out = run_spmd(3, _stream_ring_program, transport="multiprocess",
                   deadlock_timeout=30.0)
    assert out.values == [_stream((rank - 1) % 3) for rank in range(3)]


def _posted_trees():
    return TreeSet(
        (net, build_net_tree(net, [Point(net, 0), Point(net + 5, 3), Point(2, 7)]))
        for net in range(200)
    )


def _mutate_after_send_program(comm):
    if comm.rank == 0:
        trees = _posted_trees()
        comm.send(trees, 1, tag=5)
        # buffered-send semantics: what was posted is what arrives
        trees.pop(0)
        trees[1].points.append(Point(-1, -1))
        trees[2] = trees[3]
        return None
    return comm.recv(0, tag=5)


def test_payload_mutated_after_send_arrives_as_posted():
    out = run_spmd(2, _mutate_after_send_program, transport="multiprocess")
    assert out.values[1] == _posted_trees()


# ---------------------------------------------------------------------------
# routing parity (the drivers run unmodified; results are bit-identical)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, scale, algorithm", [
    pytest.param("primary1", 0.1, "rowwise", id="rowwise"),
    pytest.param("primary1", 0.1, "netwise", id="netwise"),
    pytest.param("primary1", 0.1, "hybrid", id="hybrid"),
    # full size: the step-1 tree bcast is larger than a pipe buffer
    pytest.param("struct", 1.0, "hybrid", id="struct-full-hybrid"),
])
def test_routing_parity_across_transports(name, scale, algorithm):
    circuit = mcnc.generate(name, scale=scale, seed=1)
    config = RouterConfig(seed=1)
    runs, traces = {}, {}
    for transport in ("inprocess", "multiprocess"):
        traces[transport] = Tracer()
        runs[transport] = route_parallel(
            circuit, algorithm=algorithm, nprocs=2, config=config,
            compute_baseline=False, transport=transport,
            obs=traces[transport],
        )
    ref, out = runs["inprocess"], runs["multiprocess"]
    assert out.result.total_tracks == ref.result.total_tracks
    assert out.result.channel_tracks == ref.result.channel_tracks
    assert out.result.area == ref.result.area
    assert out.result.num_feedthroughs == ref.result.num_feedthroughs
    # the modeled logical clocks must agree exactly, transport or not
    assert out.result.model_time == ref.result.model_time
    assert out.timing.rank_times == ref.timing.rank_times
    # same messages with the same modeled sizes; the multiprocess ranks'
    # events reach the parent only inside their shipped span trees
    sends = {
        transport: sorted(
            (e.rank, e.peer, e.tag, e.nbytes)
            for e in trace.comm_events() if e.kind == "send"
        )
        for transport, trace in traces.items()
    }
    assert sends["multiprocess"] == sends["inprocess"]


@pytest.mark.parametrize("name", ["primary1", "struct"])
def test_multiprocess_route_leaves_circuit_unchanged(name):
    # the parent routes the serial baseline in-process and ships the
    # circuit to forked ranks: neither may touch the caller's object
    circuit = mcnc.generate(name, scale=0.2, seed=1)
    before = circuit_fingerprint(circuit), sorted(vars(circuit))
    for algorithm in ("rowwise", "netwise", "hybrid"):
        route_parallel(
            circuit, algorithm=algorithm, nprocs=2, config=RouterConfig(seed=1),
            transport="multiprocess",
        )
        assert (circuit_fingerprint(circuit), sorted(vars(circuit))) == before


def test_multiprocess_records_measured_times():
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    run = route_parallel(
        circuit, algorithm="rowwise", nprocs=2, config=RouterConfig(seed=1),
        transport="multiprocess",
    )
    t = run.timing
    assert t.transport == "multiprocess"
    assert t.measured_wall_s is not None and t.measured_wall_s > 0
    assert len(t.measured_rank_s) == 2
    assert all(s > 0 for s in t.measured_rank_s)
    # the serial baseline was routed in the same call, so the measured
    # speedup is defined (its value is a host fact, not asserted)
    assert t.measured_speedup is not None


# ---------------------------------------------------------------------------
# fault containment parity
# ---------------------------------------------------------------------------

def _contained_crash(transport):
    plan = make_plan("crash-step3", 3, 0)
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    with pytest.raises(RankError) as exc:
        route_parallel(
            circuit, algorithm="rowwise", nprocs=3, config=RouterConfig(seed=1),
            compute_baseline=False, faults=plan, transport=transport,
        )
    assert exc.value.report is not None
    return exc.value.report, plan.fired()


def test_crash_containment_matches_inprocess():
    ref, ref_fired = _contained_crash("inprocess")
    out, out_fired = _contained_crash("multiprocess")
    assert out.failed_rank == ref.failed_rank
    assert out.step == ref.step
    assert out.injected is True and ref.injected is True
    assert out.error_type == ref.error_type
    assert len(out.ranks) == 3
    assert [r.kind for r in out.ranks] == [r.kind for r in ref.ranks]
    # the children ship their fired-injection logs back to the parent
    assert out_fired == ref_fired


def _hard_exit_program(comm):
    if comm.rank == 1:
        os._exit(3)  # die without reporting — not even an exception
    if comm.rank == 0:
        comm.recv(source=1, tag=7)  # must not hang on the dead peer
    return comm.rank


def test_silent_process_death_is_contained():
    with pytest.raises(RankError) as exc:
        run_spmd(
            2, _hard_exit_program, transport="multiprocess",
            deadlock_timeout=30.0,
        )
    report = exc.value.report
    assert report is not None
    assert len(report.ranks) == 2
    dead = next(r for r in report.ranks if r.rank == 1)
    assert dead.kind == "crashed"
    assert dead.error_type == "ProcessExit"


def _orphan_then_crash_program(comm):
    if comm.rank == 0:
        comm.send("orphan", 1, tag=42)
        raise RuntimeError("die after send")
    comm.recv(0, tag=99)  # never matched; released by the abort


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_aborted_ranks_report_undelivered_messages(transport):
    with pytest.raises(RankError) as exc:
        run_spmd(
            2, _orphan_then_crash_program, deadlock_timeout=30.0,
            transport=transport,
        )
    report = exc.value.report
    assert [r.kind for r in report.ranks] == ["crashed", "aborted"]
    assert report.pending == {1: [(0, 42)]}


# ---------------------------------------------------------------------------
# reorder-fault parity (the shared inbox's hold path, on both transports)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("every", [2, 3, 5])
def test_reorder_faults_match_across_transports(every):
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    runs = {}
    for transport in TRANSPORTS:
        plan = FaultPlan(9, (
            ReorderFault(ALL_RANKS, every=every, hold=4),
            MessageDelayFault(every=2, max_delay_s=0.01),
        ))
        run = route_parallel(
            circuit, algorithm="hybrid", nprocs=3, config=RouterConfig(seed=1),
            compute_baseline=False, faults=plan, transport=transport,
        )
        runs[transport] = run, plan.fired()
    (ref, ref_fired), (out, out_fired) = runs["inprocess"], runs["multiprocess"]
    assert out.result.total_tracks == ref.result.total_tracks
    assert out.result.area == ref.result.area
    assert out.result.model_time == ref.result.model_time
    assert out.timing.rank_times == ref.timing.rank_times
    assert out_fired == ref_fired
    # the holds really fired, so the pipes' hold path ran
    assert any(e.startswith("hold#") for log in ref_fired.values() for e in log)
