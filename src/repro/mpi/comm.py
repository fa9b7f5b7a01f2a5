"""The communicator: point-to-point and collective operations.

Point-to-point sends are buffered (MPI "eager" mode): ``send`` never
blocks, ``recv`` blocks until a message matching ``(source, tag)`` is
available.  Collectives are built from point-to-point messages —
binomial trees for broadcast/reduce, flat fan-in for gather — so their
modeled cost scales the way a real MPI implementation's would
(:math:`O(\\log p)` latency terms for trees, :math:`O(p)` for fan-ins).

Tag discipline: user tags must be non-negative; collectives use a
reserved negative tag space keyed by a per-rank collective sequence
number.  Rank programs call collectives in the same order on every rank
(SPMD), so sequence numbers agree without any central coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.faults.plan import NULL_FAULT_PLAN
from repro.mpi.sizes import estimate_size
from repro.perfmodel.clock import LogicalClock


@dataclass(frozen=True, slots=True)
class ReduceOp:
    """A named, associative reduction operator."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)


SUM = ReduceOp("sum", lambda a, b: a + b)
MAX = ReduceOp("max", lambda a, b: a if a >= b else b)
MIN = ReduceOp("min", lambda a, b: a if a <= b else b)
CONCAT = ReduceOp("concat", lambda a, b: list(a) + list(b))


#: internal sentinel a poll hook returns while its operation is pending
_PENDING = object()


class Request:
    """Handle for a non-blocking operation.

    Sends are buffered, so an isend's request is complete at creation.
    An irecv's request completes either on :meth:`wait` (the matching
    blocking receive) or on :meth:`test`, which — MPI ``MPI_Test``
    semantics — polls the mailbox non-blockingly and completes the
    request when the matching message has already been delivered.
    A ``test()`` loop therefore makes progress without ever calling
    ``wait()`` (it used to return a stale ``False`` forever).
    """

    __slots__ = ("_resolve", "_poll", "_done", "_value")

    def __init__(
        self,
        resolve: Optional[Callable[[], Any]] = None,
        value: Any = None,
        poll: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._resolve = resolve
        self._poll = poll
        self._done = resolve is None
        self._value = value

    def test(self) -> bool:
        """True once the operation has completed.

        For a pending receive this attempts completion: if the matching
        message is already in the mailbox it is consumed (with the same
        clock/trace accounting as a blocking receive) and the request
        becomes complete; otherwise the request stays pending.
        """
        if self._done:
            return True
        if self._poll is not None:
            out = self._poll()
            if out is not _PENDING:
                self._value = out
                self._done = True
        return self._done

    def wait(self) -> Any:
        """Complete the operation; returns the payload for receives."""
        if not self._done:
            self._value = self._resolve()  # type: ignore[misc]
            self._done = True
        return self._value


class Communicator:
    """One rank's endpoint in an SPMD run.

    Created by :func:`repro.mpi.runtime.run_spmd`; rank programs receive
    it as their first argument.  When a machine model was supplied the
    communicator carries a :class:`LogicalClock` which also serves as the
    rank's work counter (``comm.counter``).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        router: "object",
        clock: Optional[LogicalClock],
        obs: Optional["object"] = None,
        faults: Optional["object"] = None,
    ) -> None:
        from repro.obs.tracer import NULL_TRACER

        self.rank = rank
        self.size = size
        self._router = router
        self.clock = clock
        #: span tracer (``repro.obs``); rank programs use it for step spans
        #: and the communicator reports every send, receive and collective
        #: to it — the run's comm log and per-phase communication breakdown.
        self.obs = obs if obs is not None else NULL_TRACER
        #: fault plan consulted on every send (injected link delays)
        self._faults = faults if faults is not None else NULL_FAULT_PLAN
        self._coll_seq = 0

    # ------------------------------------------------------------------
    @property
    def counter(self):
        """Work counter for router kernels (the clock, or a no-op)."""
        if self.clock is not None:
            return self.clock
        from repro.perfmodel.counter import NULL_COUNTER

        return NULL_COUNTER

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer {peer} out of range for size {self.size}")

    # -- point-to-point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send (never blocks)."""
        self._check_peer(dest)
        if tag < 0:
            raise ValueError("negative tags are reserved for collectives")
        self._post(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive matched by exact ``(source, tag)``."""
        self._check_peer(source)
        if tag < 0:
            raise ValueError("negative tags are reserved for collectives")
        return self._fetch(source, tag)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Exchange with ``peer``: send ``obj``, return their object.

        Safe against deadlock because sends are buffered.
        """
        self.send(obj, peer, tag)
        return self.recv(peer, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send: buffered, so complete immediately."""
        self.send(obj, dest, tag)
        return Request()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive.

        ``wait()`` performs the matching blocking receive; ``test()``
        polls the mailbox and completes the request as soon as the
        matching message has been delivered (``MPI_Test`` semantics).
        """
        self._check_peer(source)
        if tag < 0:
            raise ValueError("negative tags are reserved for collectives")

        def poll() -> Any:
            item = self._router.try_collect(self.rank, source, tag)
            if item is None:
                return _PENDING
            return self._account_recv(item, source, tag)[0]

        return Request(resolve=lambda: self._fetch(source, tag), poll=poll)

    # -- internals shared with collectives --------------------------------
    def _post(self, obj: Any, dest: int, tag: int, nbytes: Optional[int] = None) -> None:
        if nbytes is None:
            nbytes = estimate_size(obj)
        timestamp = None
        if self._faults is not NULL_FAULT_PLAN:
            extra = self._faults.send_delay(self.rank, dest, tag, nbytes)
            if extra > 0.0 and self.clock is not None:
                self.clock.charge_comm(extra)  # injected link delay
        if self.clock is not None:
            cost = self.clock.machine.msg_seconds(nbytes)
            self.clock.charge_comm(cost)
            timestamp = self.clock.time
        self.obs.comm_event("send", self.rank, dest, tag, nbytes)
        self._router.deliver(self.rank, dest, tag, obj, timestamp, nbytes)

    def _fetch(self, source: int, tag: int) -> Any:
        return self._fetch_sized(source, tag)[0]

    def _fetch_sized(self, source: int, tag: int) -> "tuple[Any, int]":
        """Receive and also return the message's wire-size estimate, so
        forwarding collectives (bcast) can reuse it instead of
        re-estimating the identical payload."""
        item = self._router.collect(self.rank, source, tag)
        return self._account_recv(item, source, tag)

    def _account_recv(
        self, item: "tuple[Any, Optional[float], int]", source: int, tag: int
    ) -> "tuple[Any, int]":
        """Clock/trace bookkeeping shared by blocking and polled receives."""
        obj, timestamp, nbytes = item
        if self.clock is not None:
            if timestamp is not None:
                self.clock.wait_until(timestamp)
            # receive-side software overhead
            self.clock.charge_comm(self.clock.machine.latency_s * 0.5)
        self.obs.comm_event("recv", self.rank, source, tag, nbytes)
        return obj, nbytes

    def _coll_tag(self) -> int:
        """Fresh reserved tag for the next collective (SPMD order)."""
        self._coll_seq += 1
        return -self._coll_seq

    def _overhead(self) -> None:
        if self.clock is not None:
            self.clock.charge_comm(self.clock.machine.collective_overhead_s)

    def _coll_begin(self, op: str) -> int:
        """Common prologue of every primitive collective: reserve the tag,
        charge the fixed overhead, and record the logical operation (the
        tree-edge messages underneath are recorded individually by
        ``_post``/``_fetch``)."""
        tag = self._coll_tag()
        self._overhead()
        self.obs.comm_event("collective", self.rank, -1, tag, 0, op)
        return tag

    # -- collectives --------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks (and their logical clocks)."""
        self.allreduce(0, SUM)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` via a binomial tree."""
        self._check_peer(root)
        tag = self._coll_begin("bcast")
        vrank = (self.rank - root) % self.size
        # The identical payload travels every tree edge, so its size
        # estimate is computed once (at the root) or taken from the
        # incoming message — never re-derived per forwarded copy.
        nbytes: Optional[int] = None
        mask = 1
        while mask < self.size:
            if vrank & mask:
                src = (self.rank - mask) % self.size
                obj, nbytes = self._fetch_sized(src, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < self.size:
                dest = (self.rank + mask) % self.size
                if nbytes is None:
                    nbytes = estimate_size(obj)
                self._post(obj, dest, tag, nbytes=nbytes)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank to ``root`` (flat fan-in).

        Returns the rank-ordered list at root, ``None`` elsewhere.
        """
        self._check_peer(root)
        tag = self._coll_begin("gather")
        if self.rank == root:
            out: List[Any] = []
            for r in range(self.size):
                out.append(obj if r == root else self._fetch(r, tag))
            return out
        self._post(obj, root, tag)
        return None

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter one object to each rank from ``root``."""
        self._check_peer(root)
        tag = self._coll_begin("scatter")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter root needs exactly one object per rank")
            for r in range(self.size):
                if r != root:
                    self._post(objs[r], r, tag)
            return objs[root]
        return self._fetch(root, tag)

    def allgather(self, obj: Any) -> List[Any]:
        """Gather to rank 0, then broadcast the full list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Optional[Any]:
        """Tree reduction to ``root`` (associative ``op``, fixed order).

        The combine order is the binomial-tree order, identical on every
        run, so even non-commutative-looking payloads reduce
        deterministically.
        """
        self._check_peer(root)
        tag = self._coll_begin("reduce")
        vrank = (self.rank - root) % self.size
        acc = obj
        mask = 1
        while mask < self.size:
            if vrank & mask:
                dest = (self.rank - mask) % self.size
                self._post(acc, dest, tag)
                break
            partner = vrank | mask
            if partner < self.size:
                src = (self.rank + mask) % self.size
                other = self._fetch(src, tag)
                if self.clock is not None:
                    self.clock.charge_comm(
                        self.clock.machine.collective_overhead_s
                    )  # combine cost
                acc = op(acc, other)
            mask <<= 1
        return acc if self.rank == root else None

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Reduce to rank 0 then broadcast the result."""
        acc = self.reduce(obj, op, root=0)
        return self.bcast(acc, root=0)

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Personalized all-to-all: ``objs[r]`` goes to rank ``r``.

        Returns the rank-ordered list of objects received.  Implemented as
        ``size - 1`` shifted exchange rounds.
        """
        if len(objs) != self.size:
            raise ValueError("alltoall needs exactly one object per rank")
        tag = self._coll_begin("alltoall")
        out: List[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for shift in range(1, self.size):
            dest = (self.rank + shift) % self.size
            src = (self.rank - shift) % self.size
            self._post(objs[dest], dest, tag)
            out[src] = self._fetch(src, tag)
        return out
