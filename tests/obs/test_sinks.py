"""Trace sinks: JSONL, Chrome trace format, text flamegraph."""

from __future__ import annotations

import json

from repro.obs.sinks import (
    chrome_trace,
    render_flamegraph,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Tracer


class _Clock:
    time = 0.0


def _traced_run(*comm: tuple) -> Tracer:
    """Two ranks' step spans; rank 0's step 1 records the ``comm``
    events, each a ``(kind, sim_time, peer, tag, nbytes, op)`` tuple."""
    tr = Tracer()
    clock = _Clock()
    with tr.span("rank", rank=0, nprocs=2):
        with tr.span("step1_steiner", step=1):
            tr.add_metric("ops.mst", 10)
            tr.bind_clock(clock)
            for kind, t, peer, tag, nbytes, op in comm:
                clock.time = t
                tr.comm_event(kind, 0, peer, tag, nbytes, op)
            tr.bind_clock(None)
        with tr.span("step2_coarse", step=2):
            pass
    with tr.span("rank", rank=1, nprocs=2):
        with tr.span("step1_steiner", step=1):
            pass
    return tr


def test_jsonl_writes_spans_and_comm_events(tmp_path):
    tr = _traced_run(
        ("send", 0.1, 1, 5, 64, ""), ("collective", 0.2, -1, -1, 0, "bcast"),
    )
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(path, tr)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == n == 5 + 2  # 5 spans + 2 comm events
    spans = [l for l in lines if l["type"] == "span"]
    comm = [l for l in lines if l["type"] == "comm"]
    assert {s["name"] for s in spans} >= {"rank", "step1_steiner", "step2_coarse"}
    assert spans[0]["depth"] == 0 and spans[1]["depth"] == 1
    # comm events are rows of their own, not span fields
    assert all("events" not in s for s in spans)
    assert comm[0] == {
        "type": "comm", "kind": "send", "time": 0.1, "rank": 0, "peer": 1,
        "tag": 5, "nbytes": 64, "op": "",
    }
    assert comm[1]["op"] == "bcast"


def test_chrome_trace_structure(tmp_path):
    tr = _traced_run(("send", 0.0, 1, 5, 64, ""))
    payload = chrome_trace(tr)
    events = payload["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(xs) == 5
    assert len(instants) == 1
    # spans inherit the rank tag as their Chrome thread id
    step_tids = {e["tid"] for e in xs if e["name"] == "step1_steiner"}
    assert step_tids == {0, 1}
    for e in xs:
        assert e["dur"] >= 0.0
        assert e["ts"] >= 0.0
    # args carry tags and metrics
    s1 = next(e for e in xs if e["name"] == "step1_steiner" and e["tid"] == 0)
    assert s1["args"]["ops.mst"] == 10.0

    path = tmp_path / "chrome.json"
    count = write_chrome_trace(path, tr)
    assert count == len(events)
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]


def test_chrome_trace_uses_sim_clock_when_available():
    tr = Tracer()

    class Clock:
        time = 0.0

    clock = Clock()
    tr.bind_clock(clock)
    with tr.span("rank", rank=0):
        clock.time = 0.004
    tr.bind_clock(None)
    payload = chrome_trace(tr)
    assert payload["otherData"]["clock"] == "simulated"
    assert payload["traceEvents"][0]["dur"] == 4000.0  # 4ms in us


def test_flamegraph_renders_tree():
    tr = _traced_run()
    text = render_flamegraph(tr)
    assert "flamegraph" in text
    assert "step1_steiner" in text
    assert "  step1_steiner" in text  # indented under its rank
    assert "|" in text and "%" in text


def test_flamegraph_empty():
    assert render_flamegraph(Tracer()) == "(no spans)"


# ---------------------------------------------------------------------------
# edge cases: empty traces, flush boundaries, ordering, zero durations
# ---------------------------------------------------------------------------

def test_jsonl_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl(path, Tracer()) == 0
    assert path.read_text() == ""


def test_chrome_trace_empty_trace(tmp_path):
    payload = chrome_trace(Tracer())
    assert payload["traceEvents"] == []
    path = tmp_path / "empty.json"
    assert write_chrome_trace(path, Tracer()) == 0
    assert json.loads(path.read_text())["traceEvents"] == []


def test_nested_spans_crossing_sink_flush(tmp_path):
    """A sink flushed mid-span sees only *finished* roots; a later flush
    of the same tracer sees the whole nested tree (roots hold completed
    top-level spans only, so a half-open tree never leaks)."""
    tr = Tracer()
    path = tmp_path / "trace.jsonl"
    with tr.span("outer", rank=0):
        with tr.span("inner"):
            tr.add_metric("ops.x", 1)
        # outer is still open: nothing is flushable yet
        assert write_jsonl(path, tr) == 0
        assert chrome_trace(tr)["traceEvents"] == []
    # after the outer span closes, the full nested tree flushes
    n = write_jsonl(path, tr)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert n == len(lines) == 2
    assert [l["depth"] for l in lines] == [0, 1]
    assert lines[1]["name"] == "inner"
    assert lines[1]["metrics"] == {"ops.x": 1.0}


def test_jsonl_depth_of_deeply_nested_spans(tmp_path):
    tr = Tracer()
    with tr.span("d0"):
        with tr.span("d1"):
            with tr.span("d2"):
                with tr.span("d3"):
                    pass
    path = tmp_path / "deep.jsonl"
    write_jsonl(path, tr)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [l["depth"] for l in lines] == [0, 1, 2, 3]
    assert [l["name"] for l in lines] == ["d0", "d1", "d2", "d3"]


def test_chrome_trace_event_ordering():
    """Events are emitted preorder (parent before child) and the shifted
    timestamps are non-negative with every parent starting no later than
    its children — the invariant Perfetto's span nesting relies on."""
    tr = _traced_run()
    events = chrome_trace(tr)["traceEvents"]
    names = [e["name"] for e in events]
    # preorder per root: rank precedes its step children
    assert names.index("rank") < names.index("step1_steiner")
    assert names.index("step1_steiner") < names.index("step2_coarse")
    assert min(e["ts"] for e in events) == 0.0  # shifted to the earliest span
    # parent interval contains each child's start
    rank0 = events[0]
    for child in events[1:3]:
        assert rank0["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= rank0["ts"] + rank0["dur"] + 1e-6


def test_flamegraph_zero_duration_spans():
    """Zero-duration spans (a static simulated clock) render without a
    division by zero: 0.0% share, no bar, and the tree stays intact."""

    class Clock:
        time = 0.0

    tr = Tracer()
    tr.bind_clock(Clock())
    with tr.span("root", rank=0):
        with tr.span("leaf"):
            pass
    tr.bind_clock(None)
    assert all(s.sim_s == 0.0 for s in tr.walk())
    text = render_flamegraph(tr)
    assert "simulated" in text
    assert "leaf" in text
    for line in text.splitlines()[1:]:
        assert "0.0%" in line
        assert line.rstrip().endswith("|")  # no bar for zero duration
