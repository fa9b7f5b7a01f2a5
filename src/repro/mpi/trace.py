"""Message tracing: what a parallel run communicated, when.

The communicator reports every send, receive and collective to the
run's span :class:`~repro.obs.tracer.Tracer`, which keeps them as
:class:`~repro.obs.tracer.CommEvent` records on the innermost open span
(simulated time, rank, peer, tag, bytes, collective op).  The functions
here read those events back out of a tracer: totals, per-pair traffic,
and a text timeline and byte matrix that show the communication
structure (who talks to whom, how synchronization phases line up)
without any plotting dependency.

Point-to-point ``send``/``recv`` events cover all traffic (collectives
are built from point-to-point messages, so their tree edges are recorded
too); ``collective`` events additionally mark each logical collective
operation so analysis can attribute the reserved-tag traffic underneath
to barrier/bcast/reduce phases.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.tracer import Tracer


def total_messages(tracer: Tracer) -> int:
    """Messages sent across the whole run.

    Counts every point-to-point send, including the tree edges inside
    collectives (which use reserved negative tags) — barrier/bcast
    traffic is real traffic.
    """
    return sum(1 for e in tracer.comm_events() if e.kind == "send")


def total_bytes(tracer: Tracer) -> int:
    """Bytes sent across the whole run."""
    return sum(e.nbytes for e in tracer.comm_events() if e.kind == "send")


def collectives_by_op(tracer: Tracer) -> Dict[str, int]:
    """``op name -> count`` of logical collective operations."""
    out: Dict[str, int] = {}
    for e in tracer.comm_events():
        if e.kind == "collective":
            out[e.op] = out.get(e.op, 0) + 1
    return out


def bytes_by_pair(tracer: Tracer) -> Dict[Tuple[int, int], int]:
    """(src, dst) -> bytes sent."""
    out: Dict[Tuple[int, int], int] = {}
    for e in tracer.comm_events():
        if e.kind == "send":
            key = (e.rank, e.peer)
            out[key] = out.get(key, 0) + e.nbytes
    return out


def render_timeline(tracer: Tracer, nprocs: int, width: int = 64) -> str:
    """Per-rank send/receive activity over simulated time as text.

    Each rank gets one lane; ``>`` marks a send, ``<`` a receive,
    ``*`` both in the same bucket.
    """
    events = tracer.comm_events()
    if not any(e.kind != "collective" for e in events):
        return "(no traffic)"
    t_max = max(e.time for e in events) or 1.0
    lanes = []
    for rank in range(nprocs):
        lane = [" "] * width
        for e in events:
            if e.rank != rank or e.kind == "collective":
                continue
            slot = min(int(e.time / t_max * (width - 1)), width - 1)
            mark = ">" if e.kind == "send" else "<"
            lane[slot] = "*" if lane[slot] not in (" ", mark) else mark
        lanes.append(f"rank {rank:>2} |{''.join(lane)}|")
    header = f"comm timeline (0 .. {t_max:.4f}s, '>' send, '<' recv)"
    return "\n".join([header] + lanes)


def render_matrix(tracer: Tracer, nprocs: int) -> str:
    """Bytes-sent matrix (src rows, dst columns)."""
    pairs = bytes_by_pair(tracer)
    widths = max(8, max((len(f"{v:,}") for v in pairs.values()), default=8))
    lines = ["bytes sent (row = source, column = destination)"]
    head = "        " + " ".join(f"r{d:<{widths - 1}}" for d in range(nprocs))
    lines.append(head)
    for s in range(nprocs):
        cells = " ".join(
            f"{pairs.get((s, d), 0):>{widths},}" for d in range(nprocs)
        )
        lines.append(f"rank {s:>2} {cells}")
    return "\n".join(lines)
