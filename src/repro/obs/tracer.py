"""Step-level tracing spans.

A :class:`Tracer` records a tree of timestamped :class:`Span` objects —
one per router step, rank, or sweep point — carrying both host wall time
(``time.perf_counter``) and, when a per-rank
:class:`~repro.perfmodel.clock.LogicalClock` is bound, simulated time.
Spans also accumulate named metrics (work-counter ops, message counts,
bytes), which is how per-phase compute and communication are attributed
without touching the routing kernels:

* ``ops.{kind}`` — the thread's bound work tally (a rank's
  :class:`~repro.perfmodel.clock.LogicalClock` ``work_units``, or the
  serial router's tally) is read whenever a span opens or closes; the
  units charged in between belong to the span that was innermost, so
  every charge counts exactly once and the kernels never see the tracer.
* ``msg.sent``/``msg.bytes``/``coll.{op}`` — added by
  :meth:`Tracer.comm_event`, which the communicator calls once per send,
  receive and collective.  The same call appends a :class:`CommEvent`
  to the innermost span; events are not spans (``walk``/``find`` never
  see them), but they travel with their span tree, so a multiprocess
  rank's comm log reaches the parent inside the spans it ships.

Thread model: each thread keeps its own open-span stack (the simulated
MPI runtime runs one thread per rank), so ranks nest their step spans
independently; finished top-level spans are appended to the shared root
list under a lock.  Tracing must never perturb routing — a tracer only
*reads* clocks and counters, it consumes no randomness and mutates no
router state, and the :class:`NullTracer` default makes every hook a
no-op so untraced runs pay nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple


class CommEvent(NamedTuple):
    """One communication event of an SPMD run."""

    kind: str  # "send" | "recv" | "collective"
    time: float  # simulated seconds (0.0 without a bound clock)
    rank: int
    peer: int  # source/destination rank; -1 for collectives
    tag: int
    nbytes: int
    #: collective operation name ("bcast", "reduce", ...); "" for p2p
    op: str = ""


@dataclass(slots=True)
class Span:
    """One traced region: a name, a wall/simulated interval, tags, metrics."""

    name: str
    t0: float
    t1: float = 0.0
    sim_t0: Optional[float] = None
    sim_t1: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    #: comm events recorded while this span was innermost
    events: List[CommEvent] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds."""
        return max(0.0, self.t1 - self.t0)

    @property
    def sim_s(self) -> Optional[float]:
        """Simulated duration in seconds (``None`` without a clock)."""
        if self.sim_t0 is None or self.sim_t1 is None:
            return None
        return max(0.0, self.sim_t1 - self.sim_t0)

    def add_metric(self, name: str, value: float) -> None:
        """Accumulate ``value`` under ``name`` on this span."""
        self.metrics[name] = self.metrics.get(name, 0.0) + value

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe recursive form."""
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.sim_t0 is not None:
            out["sim_t0"] = self.sim_t0
            out["sim_t1"] = self.sim_t1
            out["sim_s"] = self.sim_s
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.events:
            out["events"] = [list(e) for e in self.events]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        The multiprocess SPMD transport ships each rank's finished span
        tree to the parent this way, comm events included (spans are plain
        data, but the tracer that owns them does not cross the process
        boundary).  Derived fields (``wall_s``, ``sim_s``) are
        recomputed, not read.
        """
        return cls(
            name=data["name"],
            t0=data.get("t0", 0.0),
            t1=data.get("t1", 0.0),
            sim_t0=data.get("sim_t0"),
            sim_t1=data.get("sim_t1"),
            tags=dict(data.get("tags", {})),
            metrics=dict(data.get("metrics", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
            events=[CommEvent(*e) for e in data.get("events", [])],
        )


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_tags", "_span")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._tags)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        assert self._span is not None
        self._tracer._close(self._span)


class Tracer:
    """Collects a span tree from one (serial or SPMD) run."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- per-thread state ---------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def bind_clock(self, clock: Optional[Any]) -> None:
        """Attach a per-thread simulated clock (``.time`` attribute).

        The SPMD runtime binds each rank thread's
        :class:`~repro.perfmodel.clock.LogicalClock` so spans opened on
        that thread carry simulated timestamps.  Pass ``None`` to unbind.
        A clock's ``work_units`` become the thread's work tally (see
        :meth:`bind_work`).
        """
        self._tls.clock = clock
        self.bind_work(getattr(clock, "work_units", None))

    def bind_work(self, units: Optional[Dict[str, float]]) -> None:
        """Attach a per-thread work tally (``kind -> units`` charged so far).

        Spans on this thread then carry the units charged while each was
        the innermost open span, as ``ops.{kind}`` metrics.  Pass
        ``None`` to unbind.
        """
        self._tls.work = units
        self._tls.mark = dict(units) if units is not None else None

    def _clock_time(self) -> Optional[float]:
        clock = getattr(self._tls, "clock", None)
        return clock.time if clock is not None else None

    # -- recording ----------------------------------------------------------
    def span(self, name: str, **tags: Any) -> _SpanContext:
        """Open a named span around a ``with`` block."""
        return _SpanContext(self, name, tags)

    def event(self, name: str, **tags: Any) -> None:
        """Record an instant (zero-duration span) at the current position."""
        now = time.perf_counter()
        sim = self._clock_time()
        span = Span(name=name, t0=now, t1=now, sim_t0=sim, sim_t1=sim, tags=tags)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    def add_metric(self, name: str, value: float) -> None:
        """Accumulate a metric on the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            stack[-1].add_metric(name, value)

    def comm_event(
        self, kind: str, rank: int, peer: int, tag: int, nbytes: int,
        op: str = "",
    ) -> None:
        """Record one send/recv/collective on the innermost open span.

        The event is stamped with the bound clock's simulated time, and
        the span's ``msg.sent``/``msg.bytes`` (sends) or ``coll.{op}``
        (collectives) metrics grow with it.  Dropped outside any span.
        """
        stack = self._stack()
        if not stack:
            return
        span = stack[-1]
        clock = getattr(self._tls, "clock", None)
        span.events.append(CommEvent(
            kind, clock.time if clock is not None else 0.0,
            rank, peer, tag, nbytes, op,
        ))
        if kind == "send":
            span.add_metric("msg.sent", 1)
            span.add_metric("msg.bytes", nbytes)
        elif kind == "collective":
            span.add_metric(f"coll.{op}", 1)

    def _settle_work(self, stack: List[Span]) -> None:
        """Credit the units charged since the last span boundary to the
        innermost open span, and move the mark to now."""
        work = getattr(self._tls, "work", None)
        if work is None:
            return
        mark = self._tls.mark
        if stack:
            span = stack[-1]
            for kind, units in work.items():
                delta = units - mark.get(kind, 0.0)
                if delta:
                    span.add_metric(f"ops.{kind}", delta)
        self._tls.mark = dict(work)

    def _open(self, name: str, tags: Dict[str, Any]) -> Span:
        stack = self._stack()
        self._settle_work(stack)
        span = Span(
            name=name,
            t0=time.perf_counter(),
            sim_t0=self._clock_time(),
            tags=tags,
        )
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        sim = self._clock_time()
        if span.sim_t0 is not None and sim is not None:
            span.sim_t1 = sim
        stack = self._stack()
        self._settle_work(stack)
        # close any forgotten descendants, then the span itself
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            with self._lock:
                self.roots.append(span)

    def order_rank_roots(self, first: int) -> None:
        """Sort the roots from index ``first`` on by their ``rank`` tag.

        In-process SPMD rank threads close their root spans in the order
        they finish; :func:`~repro.mpi.runtime.run_inprocess` calls this
        once it has joined them, so profiles and exports list ranks in
        rank order on every run.
        """
        with self._lock:
            self.roots[first:] = sorted(
                self.roots[first:], key=lambda s: s.tags.get("rank", -1)
            )

    def adopt(self, spans: List[Span]) -> None:
        """Append already-finished span trees as roots.

        Used by the multiprocess SPMD transport to merge the span trees
        shipped back from rank processes into the parent's tracer, so
        profiles and ``repro profile``'s comm view and trace exports see
        one tree regardless of transport; ``repro profile`` also uses it
        to rebuild a tracer from a run record's spans.
        """
        if not spans:
            return
        with self._lock:
            self.roots.extend(spans)

    # -- queries ------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Every recorded span (finished roots only), preorder."""
        for root in list(self.roots):
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        """All spans with the given name."""
        return [s for s in self.walk() if s.name == name]

    def comm_events(self) -> List[CommEvent]:
        """Every comm event, rank by rank in simulated-time order.

        Events of one rank at the same simulated time (a run without a
        machine model stamps them all 0.0) keep span-tree preorder.
        """
        events = [e for span in self.walk() for e in span.events]
        events.sort(key=lambda e: (e.rank, e.time))
        return events

    def step_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregate spans by name: counts, wall/sim sums and maxima, metrics.

        ``sum`` columns add every span of the name (across ranks — total
        work); ``max`` columns keep the largest single span (the critical
        path for per-rank parallel steps).
        """
        out: Dict[str, Dict[str, float]] = {}
        for span in self.walk():
            agg = out.setdefault(
                span.name,
                {"count": 0.0, "wall_sum_s": 0.0, "wall_max_s": 0.0},
            )
            agg["count"] += 1
            agg["wall_sum_s"] += span.wall_s
            agg["wall_max_s"] = max(agg["wall_max_s"], span.wall_s)
            sim = span.sim_s
            if sim is not None:
                agg["sim_sum_s"] = agg.get("sim_sum_s", 0.0) + sim
                agg["sim_max_s"] = max(agg.get("sim_max_s", 0.0), sim)
            for mname, mval in span.metrics.items():
                agg[mname] = agg.get(mname, 0.0) + mval
        return out


class _NullSpanContext:
    """Shared no-op context manager (one instance, zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Discards everything; the off-by-default tracing hook."""

    __slots__ = ()

    roots: Tuple[Span, ...] = ()

    def span(self, name: str, **tags: Any) -> _NullSpanContext:
        """No-op span."""
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **tags: Any) -> None:
        """No-op event."""
        return None

    def add_metric(self, name: str, value: float) -> None:
        """No-op metric."""
        return None

    def bind_clock(self, clock: Optional[Any]) -> None:
        """No-op binding."""
        return None

    def bind_work(self, units: Optional[Dict[str, float]]) -> None:
        """No-op binding."""
        return None

    def comm_event(
        self, kind: str, rank: int, peer: int, tag: int, nbytes: int,
        op: str = "",
    ) -> None:
        """No-op comm event."""
        return None

    def adopt(self, spans: List[Span]) -> None:
        """No-op adoption."""
        return None

    def order_rank_roots(self, first: int) -> None:
        """No-op ordering."""
        return None

    def walk(self) -> Iterator[Span]:
        """Nothing recorded."""
        return iter(())

    def step_totals(self) -> Dict[str, Dict[str, float]]:
        """Nothing recorded."""
        return {}


#: Shared no-op tracer (the default everywhere).
NULL_TRACER = NullTracer()
