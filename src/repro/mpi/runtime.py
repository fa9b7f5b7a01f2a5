"""SPMD execution of rank programs.

:func:`run_spmd` runs ``nprocs`` ranks of the same function, each with
its own :class:`~repro.mpi.comm.Communicator`, over one of the two
:data:`TRANSPORTS`, named by ``RouterConfig.transport`` or
``--transport`` (default ``inprocess``):

* ``inprocess`` (implemented here by :func:`run_inprocess`) — one
  thread per rank over an in-process mailbox router.  Threads are not a
  performance device; they only provide MPI's blocking-receive control
  flow.  Modeled speedups come from the logical clocks, and the run is
  fully deterministic — this is the correctness oracle.
* ``multiprocess`` (:mod:`repro.mpi.multiproc`) — one OS process per
  rank over pipe channels, producing *measured* per-rank wall-clock
  times on real cores with bit-identical routing results.

This module holds everything the two share, so they differ only in how
bytes arrive: one rank's receive state (:class:`_Inbox`: matching,
reorder holds, pending listing), the :class:`DeadlockError` message and
the :class:`~repro.faults.report.RunFailure` assembly.

Both transports fill ``SpmdResult.measured_rank_s`` /
``measured_wall_s`` with real ``time.perf_counter`` readings; only the
multiprocess numbers reflect genuine parallelism (in-process ranks share
the GIL).

Failure semantics: if any rank raises, the run aborts — pending and
future receives in other ranks raise :class:`RankError` so no rank
hangs — and the originating rank's exception is re-raised (wrapped) to
the caller, carrying a structured
:class:`~repro.faults.report.RunFailure` post-mortem (originating rank
and step span, per-rank outcomes, undelivered user messages).  A receive
that waits longer than ``deadlock_timeout`` real seconds raises
:class:`DeadlockError` reporting the actually elapsed time and the
messages sitting undelivered in the rank's mailbox (wildcard-free
matching means a genuinely missing message is a program bug, not a
race).

Fault injection: a seeded :class:`~repro.faults.plan.FaultPlan` passed
as ``faults`` lets the run crash ranks at step boundaries, delay or
reorder messages (within tag-legal bounds), and slow individual rank
clocks — deterministically.  The default
:data:`~repro.faults.plan.NULL_FAULT_PLAN` injects nothing and costs
nothing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import InjectedFault, NULL_FAULT_PLAN
from repro.faults.report import RankFailure, RunFailure
from repro.mpi.comm import Communicator
from repro.perfmodel.clock import LogicalClock
from repro.perfmodel.machine import MachineModel

#: the SPMD transports :func:`run_spmd` runs on
TRANSPORTS = ("inprocess", "multiprocess")


class RankError(RuntimeError):
    """A rank program raised; carries the failing rank.

    ``report`` holds the run's :class:`~repro.faults.report.RunFailure`
    post-mortem once :func:`run_spmd` has assembled it (``None`` for
    errors raised outside a full run).
    """

    report: Optional[RunFailure] = None

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


class DeadlockError(RuntimeError):
    """A receive waited past the deadlock timeout.

    ``elapsed_s`` is the real (monotonic) time spent waiting — not the
    configured timeout — and ``pending`` snapshots the ``(src, tag)``
    pairs sitting undelivered in the waiting rank's mailbox, which is
    usually enough to see which collective or exchange went lopsided.
    """

    def __init__(
        self,
        message: str,
        elapsed_s: float = 0.0,
        pending: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.pending = pending or []


class _Inbox:
    """One rank's receive state, shared by both transports' routers.

    Messages are matched by exact ``(src, tag)`` in per-key FIFO order.
    A reorder fault may hold a message back until ``hold`` further
    messages have arrived.  Held messages never violate per-``(src,
    tag)`` FIFO order (a later same-key arrival flushes them first), and
    a receiver asking for a held message gets it at once, so injected
    reordering can delay wall-clock progress but can never manufacture
    a deadlock or change matching.  The owner does the locking.
    """

    __slots__ = ("_boxes", "_held", "_seq")

    def __init__(self) -> None:
        # (src, tag) -> deque of (obj, timestamp, nbytes)
        self._boxes: Dict[Tuple[int, int], deque] = {}
        # held reorder-fault messages: [release_seq, (src, tag), item]
        self._held: List[list] = []
        self._seq = 0

    def _release(
        self, key: Optional[Tuple[int, int]] = None,
        due_seq: Optional[int] = None,
    ) -> None:
        keep: List[list] = []
        for entry in self._held:
            release_seq, ekey, item = entry
            if ekey == key or (due_seq is not None and release_seq <= due_seq):
                self._boxes.setdefault(ekey, deque()).append(item)
            else:
                keep.append(entry)
        self._held = keep

    def arrive(self, key: Tuple[int, int], item: Tuple[Any, ...], hold: int) -> None:
        """File an arrived message, holding it back ``hold`` arrivals."""
        self._seq += 1
        if self._held:
            # non-overtaking: a same-key arrival flushes held ones first
            self._release(key=key)
        if hold > 0:
            self._held.append([self._seq + hold, key, item])
        else:
            self._boxes.setdefault(key, deque()).append(item)
        if self._held:
            self._release(due_seq=self._seq)

    def take(self, key: Tuple[int, int]) -> Optional[Tuple[Any, Optional[float], int]]:
        """The oldest message matching ``key``, or ``None``."""
        if self._held:
            # a receiver asking for a held message gets it now:
            # injected reordering must never deadlock the run
            self._release(key=key)
        q = self._boxes.get(key)
        if not q:
            return None
        item = q.popleft()
        if not q:
            del self._boxes[key]
        return item

    def pending(self, user_only: bool = False) -> List[Tuple[int, int]]:
        """The ``(src, tag)`` pairs delivered or held but not taken."""
        keys = [k for k, q in self._boxes.items() if q]
        keys += [entry[1] for entry in self._held]
        if user_only:
            keys = [k for k in keys if k[1] >= 0]
        return sorted(set(keys))


def _deadlock_error(
    dest: int, src: int, tag: int, elapsed: float,
    pending: List[Tuple[int, int]], reason: str,
) -> DeadlockError:
    """The error of a receive whose message will not arrive."""
    pretty = ", ".join(f"(src={s}, tag={t})" for s, t in pending) or "none"
    return DeadlockError(
        f"rank {dest} waited {elapsed:.2f}s ({reason}) for message from "
        f"rank {src} tag {tag}; undelivered in its mailbox: {pretty}",
        elapsed_s=elapsed,
        pending=pending,
    )


class _MailboxRouter:
    """Shared mailbox state for one in-process SPMD run.

    One lock guards every rank's :class:`_Inbox`, but each destination
    rank waits on its own condition variable, so a delivery wakes only
    the addressee instead of every blocked rank (``notify_all`` on a
    single shared condition made every message an all-rank wakeup —
    quadratic scheduler churn at high rank counts).  Deadlock detection
    uses a ``time.monotonic()`` deadline: only real elapsed time counts,
    never the number of times the wait happened to wake.
    """

    def __init__(self, size: int, faults: Any, deadlock_timeout: float) -> None:
        self._faults = faults
        self._timeout = deadlock_timeout
        self._lock = threading.Lock()
        self._conds = [threading.Condition(self._lock) for _ in range(size)]
        self._inboxes = [_Inbox() for _ in range(size)]
        self.aborted: Optional[RankError] = None
        #: per-rank pending user-tag (src, tag) pairs, frozen at abort time
        self.pending_at_abort: Dict[int, List[Tuple[int, int]]] = {}
        #: total messages and bytes, for reporting
        self.message_count = 0
        self.byte_count = 0

    def deliver(
        self, src: int, dest: int, tag: int, obj: Any, timestamp: Optional[float], nbytes: int
    ) -> None:
        with self._lock:
            if self.aborted is not None:
                raise self.aborted
            self.message_count += 1
            self.byte_count += nbytes
            hold = 0
            if self._faults is not NULL_FAULT_PLAN:
                hold = self._faults.deliver_hold(src, dest, tag)
            self._inboxes[dest].arrive((src, tag), (obj, timestamp, nbytes), hold)
            # wake the receiver even when the message was held: a blocked
            # collect() must get the chance to claim it on demand, or a
            # hold across a sleeping waiter becomes a timeout
            self._conds[dest].notify()

    def collect(
        self, dest: int, src: int, tag: int
    ) -> Tuple[Any, Optional[float], int]:
        key = (src, tag)
        inbox = self._inboxes[dest]
        cond = self._conds[dest]
        deadline: Optional[float] = None
        with self._lock:
            while True:
                if self.aborted is not None:
                    raise self.aborted
                item = inbox.take(key)
                if item is not None:
                    return item
                now = time.monotonic()
                if deadline is None:
                    start, deadline = now, now + self._timeout
                remaining = deadline - now
                if remaining <= 0:
                    raise _deadlock_error(
                        dest, src, tag, now - start, inbox.pending(),
                        f"timeout {self._timeout}s",
                    )
                cond.wait(timeout=remaining)

    def try_collect(
        self, dest: int, src: int, tag: int
    ) -> Optional[Tuple[Any, Optional[float], int]]:
        """Non-blocking collect: the matching message, or ``None``.

        MPI ``MPI_Test`` semantics for :meth:`Request.test`: completes
        the receive when a match is already in the mailbox, never waits.
        """
        with self._lock:
            if self.aborted is not None:
                raise self.aborted
            return self._inboxes[dest].take((src, tag))

    def abort(self, err: RankError) -> None:
        with self._lock:
            if self.aborted is None:
                self.aborted = err
                # freeze the undelivered-user-message picture for the
                # post-mortem before waiters drain away
                self.pending_at_abort = {
                    dest: keys
                    for dest, inbox in enumerate(self._inboxes)
                    if (keys := inbox.pending(user_only=True))
                }
            for cond in self._conds:
                cond.notify_all()


class _RankObs:
    """Per-rank view of the span tracer.

    Forwards everything to the shared tracer, but (a) consults the fault
    plan when a span opens — a :class:`CrashFault` at that step boundary
    raises here, before any step work runs — and (b) tracks the rank's
    innermost open span name so failure reports can say *where* a rank
    died without depending on tracer internals (the null tracer keeps no
    stacks).
    """

    __slots__ = ("_inner", "_rank", "_faults", "_stack", "comm_event", "bind_clock")

    def __init__(self, inner: Any, rank: int, faults: Any) -> None:
        self._inner = inner
        self._rank = rank
        self._faults = faults
        self._stack: List[str] = []
        # the communicator calls this on every message: no forwarding frame
        self.comm_event = inner.comm_event
        self.bind_clock = inner.bind_clock

    @property
    def current_step(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **tags: Any):
        self._faults.on_step(self._rank, name)
        return _RankSpanContext(self, self._inner.span(name, **tags), name)


class _RankSpanContext:
    """Span context that also maintains the rank's step stack."""

    __slots__ = ("_obs", "_inner", "_name")

    def __init__(self, obs: _RankObs, inner: Any, name: str) -> None:
        self._obs = obs
        self._inner = inner
        self._name = name

    def __enter__(self) -> Any:
        self._obs._stack.append(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc: Any) -> None:
        self._inner.__exit__(*exc)
        if self._obs._stack and self._obs._stack[-1] == self._name:
            self._obs._stack.pop()


@dataclass(slots=True)
class SpmdResult:
    """Everything :func:`run_spmd` returns."""

    values: List[Any]
    clocks: List[Optional[LogicalClock]]
    message_count: int = 0
    byte_count: int = 0
    #: transport the run executed on (one of :data:`TRANSPORTS`)
    transport: str = "inprocess"
    #: measured per-rank wall seconds (rank program entry to exit);
    #: trustworthy as parallel times only on the multiprocess transport
    measured_rank_s: List[float] = field(default_factory=list)
    #: measured wall seconds for the whole parallel section (launch of
    #: the first rank to completion of the last)
    measured_wall_s: float = 0.0

    @property
    def rank_times(self) -> List[float]:
        """Per-rank final clock times (zeros without a machine model)."""
        return [c.time if c is not None else 0.0 for c in self.clocks]

    @property
    def elapsed(self) -> float:
        """Modeled parallel runtime (max over rank clocks)."""
        times = self.rank_times
        return max(times) if times else 0.0


def _crash_record(rank: int, exc: BaseException, step: Optional[str]) -> RankFailure:
    """The outcome of a rank whose program raised ``exc`` inside ``step``."""
    injected = isinstance(exc, InjectedFault)
    if injected and getattr(exc, "step", None) is not None:
        step = exc.step
    return RankFailure(
        rank=rank,
        kind="crashed",
        step=step,
        error_type=type(exc).__name__,
        message=str(exc),
        injected=injected,
    )


def _failure_report(
    ranks: List[RankFailure],
    origin: int,
    pending: Dict[int, List[Tuple[int, int]]],
) -> RunFailure:
    """Assemble the post-mortem of an aborted run from each rank's outcome.

    ``origin`` is the rank the transport holds responsible, and
    ``pending`` maps ranks to their undelivered user-tag messages.
    """
    from repro.obs.metrics import REGISTRY

    rec = ranks[origin]
    REGISTRY.counter("spmd.failed_runs").inc()
    REGISTRY.counter("spmd.rank_failures").inc(
        sum(1 for r in ranks if r.kind == "crashed")
    )
    return RunFailure(
        nprocs=len(ranks),
        failed_rank=origin,
        step=rec.step,
        error_type=rec.error_type or "",
        message=rec.message or "",
        injected=rec.injected,
        ranks=ranks,
        pending=pending,
    )


def check_transport(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is one of :data:`TRANSPORTS`."""
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown SPMD transport {name!r} (choose from {TRANSPORTS})"
        )


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
    deadlock_timeout: float = 60.0,
    obs: Optional[Any] = None,
    faults: Optional[Any] = None,
    transport: str = "inprocess",
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    With a ``machine`` model, each rank gets a logical clock charged by
    both the communicator and any kernels using ``comm.counter``.  An
    :class:`~repro.obs.tracer.Tracer` passed as ``obs`` wraps each rank
    in a span (with the rank's logical clock bound for simulated
    timestamps and per-span work attribution), lets rank programs open
    step spans via ``comm.obs`` and records one
    :class:`~repro.obs.tracer.CommEvent` per send, receive and
    collective (:mod:`repro.mpi.trace` analyses them).
    A :class:`~repro.faults.plan.FaultPlan` passed as ``faults`` injects
    its scheduled failures; on abort, the raised :class:`RankError`
    carries a :class:`~repro.faults.report.RunFailure` report.

    ``transport`` is one of :data:`TRANSPORTS`.  Both honour the same
    contract — same values, same modeled clocks, same failure reports —
    so callers never branch on it; they only read the measured times it
    adds.
    """
    from repro.obs.metrics import REGISTRY

    check_transport(transport)
    if transport == "inprocess":
        runner = run_inprocess
    else:
        from repro.mpi.multiproc import run_multiprocess as runner
    result: SpmdResult = runner(
        nprocs,
        fn,
        args=args,
        kwargs=kwargs,
        machine=machine,
        deadlock_timeout=deadlock_timeout,
        obs=obs,
        faults=faults,
    )
    hist = REGISTRY.histogram(f"spmd.rank_wall_ms.{transport}")
    for seconds in result.measured_rank_s:
        hist.observe(seconds * 1e3)
    return result


def run_inprocess(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
    deadlock_timeout: float = 60.0,
    obs: Optional[Any] = None,
    faults: Optional[Any] = None,
) -> SpmdResult:
    """The ``inprocess`` transport: one thread per rank, mailbox router.

    This is the deterministic reference implementation the multiprocess
    transport is measured against; see the module docstring for the
    semantics it defines.
    """
    from repro.obs.tracer import NULL_TRACER

    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    kwargs = kwargs or {}
    obs = obs if obs is not None else NULL_TRACER
    faults = faults if faults is not None else NULL_FAULT_PLAN
    faults.begin_run(nprocs)
    router = _MailboxRouter(nprocs, faults, deadlock_timeout)
    clocks: List[Optional[LogicalClock]] = [
        LogicalClock(machine) if machine is not None else None for _ in range(nprocs)
    ]
    if faults is not NULL_FAULT_PLAN:
        for rank, clock in enumerate(clocks):
            if clock is not None:
                clock.slowdown = faults.compute_factor(rank)
    values: List[Any] = [None] * nprocs
    errors: List[Optional[RankError]] = [None] * nprocs
    rank_obs = [_RankObs(obs, rank, faults) for rank in range(nprocs)]
    measured = [0.0] * nprocs

    def runner(rank: int) -> None:
        robs = rank_obs[rank]
        comm = Communicator(
            rank, nprocs, router, clocks[rank], obs=robs, faults=faults,
        )
        robs.bind_clock(clocks[rank])
        t_start = time.perf_counter()
        try:
            with robs.span("rank", rank=rank, nprocs=nprocs):
                values[rank] = fn(comm, *args, **kwargs)
        except RankError as err:  # propagated abort from another rank
            errors[rank] = err
        except BaseException as exc:  # noqa: BLE001 - must not hang siblings
            err = RankError(rank, exc)
            errors[rank] = err
            router.abort(err)
        finally:
            measured[rank] = time.perf_counter() - t_start
            robs.bind_clock(None)

    wall_start = time.perf_counter()
    if nprocs == 1:
        runner(0)
    else:
        first_root = len(obs.roots)
        threads = [
            threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # rank threads close their root spans in the order they finish
        obs.order_rank_roots(first_root)
    wall_s = time.perf_counter() - wall_start

    # the origin is the first rank to abort the run
    failure = router.aborted
    if failure is None:
        failure = next((e for e in errors if e is not None), None)
    if failure is not None:
        ranks: List[RankFailure] = []
        for rank, err in enumerate(errors):
            if err is None:
                ranks.append(RankFailure(rank=rank, kind="ok"))
            elif err.rank == rank:
                ranks.append(
                    _crash_record(rank, err.original, rank_obs[rank].current_step)
                )
            else:
                # released by another rank's abort; step attribution would
                # be scheduling-dependent, so it is deliberately omitted
                ranks.append(
                    RankFailure(rank=rank, kind="aborted", error_type="RankError")
                )
        failure.report = _failure_report(
            ranks, failure.rank, dict(router.pending_at_abort)
        )
        raise failure

    return SpmdResult(
        values=values,
        clocks=clocks,
        message_count=router.message_count,
        byte_count=router.byte_count,
        transport="inprocess",
        measured_rank_s=measured,
        measured_wall_s=wall_s,
    )
