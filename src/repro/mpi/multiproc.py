"""The ``multiprocess`` SPMD transport: one OS process per rank.

Each rank runs in its own process with a private mailbox; messages
travel over simplex OS pipes (one per directed rank pair), serialized
with pickle — which round-trips ints, floats, and numpy arrays
bit-exactly, so routing results are identical to the in-process
transport by construction.  What this transport adds is *measured*
wall-clock time on real cores: every rank reports its own
``time.perf_counter`` interval, and the parent measures the whole
parallel section including process startup (that cost is real; hiding
it would flatter the speedup).

Semantics parity with :func:`~repro.mpi.runtime.run_inprocess` comes
from sharing its parts: each rank keeps the same
:class:`~repro.mpi.runtime._Inbox`, raises the same deadlock error and
reports into the same failure-report builder.  Only the arrival of bytes
differs.

* **Matching** — per-``(src, tag)`` FIFO, wildcard-free, MPI_Test-style
  polling via ``try_collect``.  Pipes preserve per-sender order and each
  rank drains its inbound pipes into its inbox, so non-overtaking holds
  exactly as it does in the shared-mailbox router.
* **Faults** — the seeded :class:`~repro.faults.plan.FaultPlan` is
  reconstructed inside every rank process from ``(seed, fault specs)``.
  Since every injection decision is a pure function of ``(seed, rank,
  rank's own event index)``, the per-rank schedules are bit-identical to
  the in-process run; reorder holds are chosen on the *sender* and
  shipped with the message, then applied against the receiver's arrival
  sequence.  Fired-injection logs are shipped back and merged into the
  caller's plan so replay comparisons see one coherent record.
* **Failure containment** — a crashing rank broadcasts an abort marker
  on every outbound pipe before reporting to the parent; peers raise
  :class:`~repro.mpi.runtime.RankError` out of their blocking calls.
  Every rank ships its outcome and its undelivered user messages, and
  the parent assembles the same :class:`~repro.faults.report.RunFailure`
  post-mortem as the in-process transport, with the lowest crashed rank
  as the origin.  A rank that dies without reporting is recorded as
  ``ProcessExit``; a rank waiting on a peer that already exited fails
  fast with :class:`~repro.mpi.runtime.DeadlockError` instead of burning
  the full timeout.
* **Observability** — per-rank span trees (comm events included),
  logical-clock state, and message/byte totals are shipped back and
  merged, so profiles and ``repro profile`` traces look the same
  regardless of transport (child-process metrics counters are the one
  loss: they live in the child's registry and are not merged).

A send costs its pickle and its write.  The posting thread pickles
the message at ``send`` (MPI buffered-send semantics: a payload mutated
afterwards arrives as it was posted) and writes the framed bytes
straight into the destination's pipe, whose write end is non-blocking.
Whatever the pipe cannot take goes to that destination's backlog, and
so do all later messages to it, so every pipe stays FIFO; a per-rank
sender thread finishes backlogged writes as the pipes drain.  The
posting thread never blocks on a full pipe, so two ranks that are both
mid-send cannot deadlock (the classic eager-protocol cycle): each keeps
draining its inbound pipes whenever it blocks in ``collect``.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import select
import struct
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, InjectedFault, NULL_FAULT_PLAN
from repro.faults.report import RankFailure
from repro.mpi.comm import Communicator
from repro.mpi.runtime import (
    DeadlockError,
    RankError,
    SpmdResult,
    _crash_record,
    _deadlock_error,
    _failure_report,
    _Inbox,
    _RankObs,
)
from repro.perfmodel.clock import LogicalClock
from repro.perfmodel.machine import MachineModel

#: extra real seconds the parent waits past the rank deadlock timeout
#: before declaring unreported ranks dead
_PARENT_GRACE_S = 60.0

#: how long a finishing rank waits for its sender thread to flush
_SENDER_FLUSH_S = 10.0


def _pick_context() -> mp.context.BaseContext:
    # fork is strongly preferred: no re-import, closures and fault plans
    # travel for free, and startup is milliseconds not seconds.  spawn
    # (macOS/Windows default) still works for module-level rank programs.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _frame(msg: Tuple[Any, ...]) -> memoryview:
    """``msg`` pickled by ``ForkingPickler`` and framed the way
    ``Connection.send`` frames it, so readers decode it with
    ``conn.recv()``.  The pickle is written behind a reserved header
    slot, so framing copies nothing."""
    buf = io.BytesIO()
    buf.write(b"\0\0\0\0")
    ForkingPickler(buf).dump(msg)
    frame = buf.getbuffer()
    size = len(frame) - 4
    if size > 0x7FFFFFFF:  # send_bytes' extended header
        return memoryview(struct.pack("!iQ", -1, size) + frame[4:])
    struct.pack_into("!i", frame, 0, size)
    return frame


class _Sender(threading.Thread):
    """Writes framed messages into non-blocking pipes, in per-pipe order.

    ``post`` runs in the rank's main thread.  When the destination has
    no backlog it writes the frame itself, and only a remainder the pipe
    cannot take becomes that destination's backlog; later posts to it
    queue behind the backlog.  This thread waits for backlogged pipes to
    become writable and finishes their writes.  The main thread never
    blocks on a full pipe, so it keeps draining its own inbound pipes
    and the cyclic-buffer deadlock MPI's rendezvous protocol exists to
    avoid cannot close.
    """

    def __init__(self, rank: int, writers: Dict[int, Connection]) -> None:
        super().__init__(name=f"spmd-sender-{rank}", daemon=True)
        for conn in writers.values():
            os.set_blocking(conn.fileno(), False)
        self._writers = writers
        self._backlog: Dict[int, Deque[memoryview]] = {}
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        self._closing = False

    def _write(self, dest: int, frame: memoryview) -> memoryview:
        """Write what fits of ``frame`` now; return the rest (empty when
        done).  Caller holds the lock."""
        conn = self._writers.get(dest)
        if conn is None:
            return frame[:0]
        try:
            return frame[os.write(conn.fileno(), frame):]
        except BlockingIOError:
            return frame
        except OSError:
            # peer is gone; its death is reported through the abort / EOF
            # paths, not by crashing the sender
            del self._writers[dest]
            return frame[:0]

    def post(self, dest: int, frame: memoryview) -> None:
        with self._lock:
            backlog = self._backlog.get(dest)
            if backlog is None:
                frame = self._write(dest, frame)
                if not frame:
                    return
                self._backlog[dest] = backlog = deque()
                os.write(self._wake_w, b"\0")
            backlog.append(frame)

    def _flush(self, dest: int) -> None:
        backlog = self._backlog[dest]
        while backlog:
            rest = self._write(dest, backlog[0])
            if rest:
                backlog[0] = rest
                return
            backlog.popleft()
        del self._backlog[dest]

    def run(self) -> None:
        while True:
            with self._lock:
                if self._closing and not self._backlog:
                    return
                fds = {self._writers[d].fileno(): d for d in self._backlog}
            readable, writable, _ = select.select([self._wake_r], list(fds), [])
            if readable:
                os.read(self._wake_r, 4096)
            with self._lock:
                for fd in writable:
                    self._flush(fds[fd])

    def stop(self, timeout: float = _SENDER_FLUSH_S) -> None:
        """Finish every backlogged write (up to ``timeout``), then stop."""
        with self._lock:
            self._closing = True
        os.write(self._wake_w, b"\0")
        self.join(timeout)
        if not self.is_alive():
            os.close(self._wake_r)
            os.close(self._wake_w)


class _PipeRouter:
    """One rank's router: pipe channels in front of its :class:`_Inbox`.

    Implements the same ``deliver`` / ``collect`` / ``try_collect``
    surface as the in-process ``_MailboxRouter`` over the same inbox,
    but the inbox is private to the rank's main thread, so no locks are
    needed on the receive path.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        writers: Dict[int, Connection],
        readers: Dict[int, Connection],
        faults: Any,
        deadlock_timeout: float,
    ) -> None:
        self._rank = rank
        self._nprocs = nprocs
        self._faults = faults
        self._timeout = deadlock_timeout
        self._readers = dict(readers)
        self._src_of = {conn: src for src, conn in self._readers.items()}
        self._sender = _Sender(rank, writers)
        self._sender.start()
        self.inbox = _Inbox()
        self._eof: set = set()
        self.aborted: Optional[RankError] = None
        self.message_count = 0
        self.byte_count = 0

    # -- inbound ---------------------------------------------------------
    def _handle(self, msg: Tuple[Any, ...]) -> None:
        if msg[0] == "m":
            _, src, tag, obj, timestamp, nbytes, hold = msg
            self.inbox.arrive((src, tag), (obj, timestamp, nbytes), hold)
        elif self.aborted is None:  # ("a", origin's RankFailure)
            origin = msg[1]
            self.aborted = RankError(origin.rank, _synthesize_original(origin))

    def _drain(self, timeout: float) -> None:
        conns = list(self._readers.values())
        if not conns:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return
        try:
            ready = _conn_wait(conns, timeout)
        except OSError:
            ready = []
        for conn in ready:
            src = self._src_of.get(conn)
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    # peer exited; all its data was drained before EOF
                    if src is not None:
                        self._eof.add(src)
                        self._readers.pop(src, None)
                    self._src_of.pop(conn, None)
                    conn.close()
                    break
                self._handle(msg)

    # -- mailbox interface (used by the Communicator) --------------------
    def deliver(
        self, src: int, dest: int, tag: int, obj: Any,
        timestamp: Optional[float], nbytes: int,
    ) -> None:
        self._drain(0.0)  # notice aborts promptly, even on send-heavy paths
        if self.aborted is not None:
            raise self.aborted
        self.message_count += 1
        self.byte_count += nbytes
        hold = 0
        if self._faults is not NULL_FAULT_PLAN:
            # chosen from the sender's stream (scheduling-independent)
            # and shipped with the message for the receiver to apply
            hold = self._faults.deliver_hold(src, dest, tag)
        if dest == self._rank:
            self.inbox.arrive((src, tag), (obj, timestamp, nbytes), hold)
        else:
            self._sender.post(
                dest, _frame(("m", src, tag, obj, timestamp, nbytes, hold))
            )

    def collect(
        self, dest: int, src: int, tag: int
    ) -> Tuple[Any, Optional[float], int]:
        key = (src, tag)
        deadline: Optional[float] = None
        while True:
            if self.aborted is not None:
                raise self.aborted
            item = self.inbox.take(key)
            if item is not None:
                return item
            now = time.monotonic()
            if deadline is None:
                start, deadline = now, now + self._timeout
            if src in self._eof and src != self._rank:
                # the sender already exited and everything it wrote has
                # been drained — this message can never arrive
                raise _deadlock_error(
                    dest, src, tag, now - start, self.inbox.pending(),
                    f"rank {src} has exited",
                )
            remaining = deadline - now
            if remaining <= 0:
                raise _deadlock_error(
                    dest, src, tag, now - start, self.inbox.pending(),
                    f"timeout {self._timeout}s",
                )
            self._drain(min(remaining, 0.25))

    def try_collect(
        self, dest: int, src: int, tag: int
    ) -> Optional[Tuple[Any, Optional[float], int]]:
        self._drain(0.0)
        if self.aborted is not None:
            raise self.aborted
        return self.inbox.take((src, tag))

    # -- teardown --------------------------------------------------------
    def broadcast_abort(self, origin: RankFailure) -> None:
        frame = _frame(("a", origin))
        for dest in range(self._nprocs):
            if dest != self._rank:
                self._sender.post(dest, frame)

    def shutdown(self) -> None:
        self._sender.stop()


def _rebuild_faults(plan_spec: Any, nprocs: int) -> Any:
    if plan_spec is None:
        return NULL_FAULT_PLAN
    kind, *rest = plan_spec
    if kind == "spec":
        seed, fault_specs = rest
        faults = FaultPlan(seed, fault_specs)
    else:  # "pickle": an arbitrary plan-like object shipped whole
        (faults,) = rest
    faults.begin_run(nprocs)
    return faults


def _child_main(
    rank: int,
    nprocs: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    machine: Optional[MachineModel],
    deadlock_timeout: float,
    want_obs: bool,
    plan_spec: Any,
    msg_pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]],
    res_pipes: Dict[int, Tuple[Connection, Connection]],
) -> None:
    """Entry point of one rank process."""
    from repro.obs.tracer import NULL_TRACER, Tracer

    # keep only this rank's channel ends; close every inherited copy so
    # peer EOFs are observable (an fd held open here would mask them)
    writers: Dict[int, Connection] = {}
    readers: Dict[int, Connection] = {}
    for (s, d), (rconn, wconn) in msg_pipes.items():
        if s == rank:
            writers[d] = wconn
            rconn.close()
        elif d == rank:
            readers[s] = rconn
            wconn.close()
        else:
            rconn.close()
            wconn.close()
    result_conn: Optional[Connection] = None
    for r, (rres, wres) in res_pipes.items():
        if r == rank:
            result_conn = wres
            rres.close()
        else:
            rres.close()
            wres.close()
    assert result_conn is not None

    faults = _rebuild_faults(plan_spec, nprocs)
    clock = LogicalClock(machine) if machine is not None else None
    if clock is not None and faults is not NULL_FAULT_PLAN:
        clock.slowdown = faults.compute_factor(rank)
    tracer = Tracer() if want_obs else NULL_TRACER
    robs = _RankObs(tracer, rank, faults)
    router = _PipeRouter(rank, nprocs, writers, readers, faults, deadlock_timeout)
    comm = Communicator(rank, nprocs, router, clock, obs=robs, faults=faults)
    robs.bind_clock(clock)

    outcome = RankFailure(rank=rank, kind="ok")
    value: Any = None
    t_start = time.perf_counter()
    try:
        with robs.span("rank", rank=rank, nprocs=nprocs):
            value = fn(comm, *args, **kwargs)
    except RankError:  # propagated abort from another rank
        outcome = RankFailure(rank=rank, kind="aborted", error_type="RankError")
    except BaseException as exc:  # noqa: BLE001 - must not hang siblings
        outcome = _crash_record(rank, exc, robs.current_step)
        router.broadcast_abort(outcome)
    finally:
        measured_s = time.perf_counter() - t_start
        robs.bind_clock(None)
        router.shutdown()  # flush queued sends before reporting

    stream = getattr(faults, "_stream", None)
    report: Dict[str, Any] = {
        "outcome": outcome,
        "pending": router.inbox.pending(user_only=True),
        "measured_s": measured_s,
        "fired": list(stream(rank).fired) if stream is not None else [],
        "message_count": router.message_count,
        "byte_count": router.byte_count,
        "clock": None,
        "value": value,
        "spans": [s.to_dict() for s in tracer.roots] if want_obs else [],
    }
    if clock is not None:
        report["clock"] = (
            clock.time, dict(clock.work_units), clock.comm_seconds,
            clock.idle_seconds, clock.slowdown,
        )
    try:
        result_conn.send(report)
    except Exception as exc:  # value not picklable, or parent gone
        report.update(
            outcome=RankFailure(
                rank=rank,
                kind="crashed",
                error_type=type(exc).__name__,
                message=f"rank result could not be serialized: {exc}",
            ),
            clock=None, value=None, spans=[],
        )
        try:
            result_conn.send(report)
        except Exception:
            pass
    finally:
        result_conn.close()


def _restore_clock(
    machine: Optional[MachineModel], state: Optional[Tuple[Any, ...]]
) -> Optional[LogicalClock]:
    if machine is None or state is None:
        return None
    clock = LogicalClock(machine)
    clock.time, units, clock.comm_seconds, clock.idle_seconds, clock.slowdown = state
    clock.work_units.update(units)
    return clock


def _synthesize_original(origin: RankFailure) -> BaseException:
    """A stand-in for the exception a crashed rank raised in its process."""
    message = origin.message or ""
    if origin.injected:
        return InjectedFault(message, rank=origin.rank, step=origin.step)
    if origin.error_type == "DeadlockError":
        return DeadlockError(message)
    return RuntimeError(f"{origin.error_type}: {message}")


def run_multiprocess(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
    deadlock_timeout: float = 60.0,
    obs: Optional[Any] = None,
    faults: Optional[Any] = None,
) -> SpmdResult:
    """The ``multiprocess`` transport runner (see module docstring).

    Same signature and contract as
    :func:`~repro.mpi.runtime.run_inprocess`; prefer calling
    :func:`~repro.mpi.runtime.run_spmd` with ``transport`` instead of
    calling either runner directly.
    """
    from repro.obs.tracer import NULL_TRACER, NullTracer, Span

    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    kwargs = kwargs or {}
    obs = obs if obs is not None else NULL_TRACER
    faults = faults if faults is not None else NULL_FAULT_PLAN
    faults.begin_run(nprocs)
    if faults is NULL_FAULT_PLAN:
        plan_spec = None
    elif isinstance(faults, FaultPlan):
        plan_spec = ("spec", faults.seed, faults.faults)
    else:
        plan_spec = ("pickle", faults)
    want_obs = not isinstance(obs, NullTracer)

    ctx = _pick_context()
    msg_pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]] = {
        (s, d): ctx.Pipe(duplex=False)
        for s in range(nprocs)
        for d in range(nprocs)
        if s != d
    }
    res_pipes: Dict[int, Tuple[Connection, Connection]] = {
        r: ctx.Pipe(duplex=False) for r in range(nprocs)
    }

    wall_start = time.perf_counter()
    procs: List[mp.process.BaseProcess] = []
    reports: Dict[int, Optional[Dict[str, Any]]] = {}
    # Child lifecycle is try/finally-scoped: a KeyboardInterrupt or any
    # parent-side exception raised between the first start() and the
    # normal join path used to orphan every rank process still running.
    # Children are additionally daemonic (fork-safe here: rank programs
    # spawn threads, never processes), so even a parent hard-kill that
    # skips `finally` cannot leave ranks behind.
    try:
        for rank in range(nprocs):
            p = ctx.Process(
                target=_child_main,
                args=(
                    rank, nprocs, fn, tuple(args), dict(kwargs), machine,
                    deadlock_timeout, want_obs, plan_spec,
                    msg_pipes, res_pipes,
                ),
                name=f"spmd-rank-{rank}",
                daemon=True,
            )
            p.start()
            procs.append(p)
        # the children own the channels now; parent copies must close so
        # pipe EOFs propagate when a rank exits
        for rconn, wconn in msg_pipes.values():
            rconn.close()
            wconn.close()
        for _, wres in res_pipes.values():
            wres.close()

        waiting: Dict[Connection, int] = {
            rres: rank for rank, (rres, _) in res_pipes.items()
        }
        hard_deadline = time.monotonic() + deadlock_timeout + _PARENT_GRACE_S
        while waiting and time.monotonic() < hard_deadline:
            ready = _conn_wait(list(waiting), timeout=0.5)
            for conn in ready:
                rank = waiting.pop(conn)
                try:
                    reports[rank] = conn.recv()
                except (EOFError, OSError):
                    reports[rank] = None  # died without reporting
                conn.close()
            for conn in list(waiting):
                rank = waiting[conn]
                if not procs[rank].is_alive() and not conn.poll(0):
                    del waiting[conn]
                    reports[rank] = None
                    conn.close()
        for conn, rank in list(waiting.items()):
            reports[rank] = None  # hung past the parent grace deadline
            conn.close()
        measured_wall_s = time.perf_counter() - wall_start
        for rank, p in enumerate(procs):
            p.join(timeout=5.0)
    finally:
        # no-op on the clean path (every rank already joined); on an
        # interrupted or failing path this reaps all surviving children
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=5.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)

    # merge shipped fired-injection logs into the caller's plan so chaos
    # replay comparisons and summaries see one coherent record
    stream = getattr(faults, "_stream", None)
    if stream is not None:
        for rank in range(nprocs):
            rep = reports.get(rank)
            if rep is not None:
                stream(rank).fired[:] = rep.get("fired", [])

    ranks: List[RankFailure] = []
    for rank in range(nprocs):
        rep = reports.get(rank)
        ranks.append(rep["outcome"] if rep is not None else RankFailure(
            rank=rank,
            kind="crashed",
            error_type="ProcessExit",
            message=(
                f"rank {rank} exited without reporting "
                f"(exitcode {procs[rank].exitcode})"
            ),
        ))
    crashed = [r.rank for r in ranks if r.kind == "crashed"]
    if crashed:
        # the origin is the lowest failed rank
        origin = ranks[min(crashed)]
        pending = {
            rank: rep["pending"]
            for rank, rep in sorted(reports.items())
            if rep is not None and rep["pending"]
        }
        err = RankError(origin.rank, _synthesize_original(origin))
        err.report = _failure_report(ranks, origin.rank, pending)
        raise err

    values: List[Any] = [None] * nprocs
    clocks: List[Optional[LogicalClock]] = [None] * nprocs
    measured: List[float] = [0.0] * nprocs
    message_count = 0
    byte_count = 0
    adopted: List[Any] = []
    for rank in range(nprocs):
        rep = reports[rank]
        assert rep is not None  # the crashed branch above raised otherwise
        if ranks[rank].kind == "aborted":
            # every erroring rank is crashed, so a lone "aborted" here
            # means its origin never materialized — treat as error
            raise RankError(rank, RuntimeError(
                f"rank {rank} observed an abort but no rank reported a "
                "failure"
            ))
        values[rank] = rep["value"]
        clocks[rank] = _restore_clock(machine, rep["clock"])
        measured[rank] = rep["measured_s"]
        message_count += rep["message_count"]
        byte_count += rep["byte_count"]
        adopted.extend(Span.from_dict(d) for d in rep["spans"])
    if adopted:
        adopt = getattr(obs, "adopt", None)
        if adopt is not None:
            adopt(adopted)

    return SpmdResult(
        values=values,
        clocks=clocks,
        message_count=message_count,
        byte_count=byte_count,
        transport="multiprocess",
        measured_rank_s=measured,
        measured_wall_s=measured_wall_s,
    )
