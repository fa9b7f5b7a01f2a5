"""Trace sinks: JSONL, Chrome tracing, and a text flamegraph.

All three consume a :class:`~repro.obs.tracer.Tracer` — its spans and
the communication events recorded on them — and need nothing beyond the
standard library:

* :func:`write_jsonl` — one JSON object per span/comm event per line,
  the archival format;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format that ``chrome://tracing`` and Perfetto load directly;
* :func:`render_flamegraph` — an indented text tree with duration bars,
  for terminals without any viewer.

Span timelines prefer simulated time when every span carries it (the
parallel runs, where rank clocks are the meaningful axis) and fall back
to wall time otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.tracer import Span, Tracer


def _use_sim(tracer: Tracer) -> bool:
    roots = list(tracer.roots)
    return bool(roots) and all(r.sim_s is not None for r in roots)


def _interval(span: Span, sim: bool) -> Tuple[float, float]:
    if sim and span.sim_t0 is not None and span.sim_t1 is not None:
        return span.sim_t0, span.sim_t1
    return span.t0, span.t1


def _tid(span: Span, inherited: int) -> int:
    rank = span.tags.get("rank")
    return int(rank) if rank is not None else inherited


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def write_jsonl(path: Union[str, Path], tracer: Tracer) -> int:
    """Write every span (flattened, with depth) and comm event; returns
    the number of lines written."""
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        row: Dict[str, Any] = {"type": "span", "depth": depth}
        row.update({
            k: v for k, v in span.to_dict().items()
            if k not in ("children", "events")
        })
        lines.append(json.dumps(row, sort_keys=True))
        for child in span.children:
            emit(child, depth + 1)

    for root in tracer.roots:
        emit(root, 0)
    for e in tracer.comm_events():
        lines.append(json.dumps({"type": "comm", **e._asdict()}, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return len(lines)


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Trace Event Format dict loadable by ``chrome://tracing``/Perfetto.

    Spans become complete ("X") events; communication events become
    instants ("i").  Timestamps are microseconds from the earliest span.
    """
    sim = _use_sim(tracer)
    spans = list(tracer.walk())
    base = 0.0
    if spans and not sim:
        base = min(_interval(s, sim)[0] for s in spans)

    events: List[Dict[str, Any]] = []
    def emit(span: Span, tid: int) -> None:
        tid = _tid(span, tid)
        lo, hi = _interval(span, sim)
        args: Dict[str, Any] = dict(span.tags)
        args.update(span.metrics)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "span",
                "ts": (lo - base) * 1e6,
                "dur": max(hi - lo, 0.0) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
        for child in span.children:
            emit(child, tid)

    for root in tracer.roots:
        emit(root, 0)

    for e in tracer.comm_events():
        events.append(
            {
                "ph": "i",
                "name": e.op or e.kind,
                "cat": f"comm.{e.kind}",
                "ts": (e.time - (0.0 if sim else base)) * 1e6,
                "pid": 0,
                "tid": e.rank,
                "s": "t",
                "args": {"peer": e.peer, "tag": e.tag, "nbytes": e.nbytes},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated" if sim else "wall"},
    }


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> int:
    """Write :func:`chrome_trace` output; returns the event count."""
    payload = chrome_trace(tracer)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# Text flamegraph
# ---------------------------------------------------------------------------

def render_flamegraph(tracer: Tracer, width: int = 40) -> str:
    """Indented span tree with duration bars, no dependencies.

    Each line shows the span name, its duration (simulated when
    available), its share of the root, and a proportional bar.
    """
    roots = list(tracer.roots)
    if not roots:
        return "(no spans)"
    sim = _use_sim(tracer)
    lines: List[str] = [f"flamegraph ({'simulated' if sim else 'wall'} time)"]
    name_w = max(
        (2 * d + len(s.name) for s in tracer.walk() for d in [_depth_of(s, roots)]),
        default=10,
    )

    def dur(span: Span) -> float:
        lo, hi = _interval(span, sim)
        return max(hi - lo, 0.0)

    def emit(span: Span, depth: int, root_dur: float) -> None:
        d = dur(span)
        share = d / root_dur if root_dur > 0 else 0.0
        bar = "#" * max(1, int(round(share * width))) if d > 0 else ""
        label = "  " * depth + span.name
        lines.append(
            f"{label:<{name_w}}  {d * 1e3:10.3f} ms  {share:6.1%}  |{bar}"
        )
        for child in span.children:
            emit(child, depth + 1, root_dur)

    for root in roots:
        emit(root, 0, dur(root))
    return "\n".join(lines)


def _depth_of(span: Span, roots: List[Span]) -> int:
    """Depth of ``span`` under the root list (layout sizing only)."""
    for root in roots:
        depth = _find_depth(root, span, 0)
        if depth is not None:
            return depth
    return 0


def _find_depth(node: Span, target: Span, depth: int) -> Optional[int]:
    if node is target:
        return depth
    for child in node.children:
        found = _find_depth(child, target, depth + 1)
        if found is not None:
            return found
    return None
