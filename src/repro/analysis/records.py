"""JSON persistence of routing results and experiment records.

Lets experiment sweeps be archived and compared across code versions:
``results_reference.txt`` holds the human-readable artifacts; these
records hold the machine-readable ones.  The sweep engine's run
records (:mod:`repro.exec.record`) embed the same result and timing
dicts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.perfmodel.report import TimingReport
from repro.twgr.result import RoutingResult


def result_to_dict(result: RoutingResult) -> Dict[str, Any]:
    """Plain-dict form of a routing result (JSON-safe)."""
    return {
        "circuit_name": result.circuit_name,
        "algorithm": result.algorithm,
        "nprocs": result.nprocs,
        "total_tracks": result.total_tracks,
        "channel_tracks": {str(k): v for k, v in result.channel_tracks.items()},
        "num_feedthroughs": result.num_feedthroughs,
        "horizontal_wirelength": result.horizontal_wirelength,
        "vertical_wirelength": result.vertical_wirelength,
        "core_width": result.core_width,
        "area": result.area,
        "side_conflicts": result.side_conflicts,
        "unplanned_crossings": result.unplanned_crossings,
        "num_spans": result.num_spans,
        "flips": result.flips,
        "work_units": dict(result.work_units),
        "model_time": result.model_time,
        "seed": result.seed,
    }


def result_from_dict(data: Dict[str, Any]) -> RoutingResult:
    """Inverse of :func:`result_to_dict`."""
    return RoutingResult(
        circuit_name=data["circuit_name"],
        algorithm=data["algorithm"],
        nprocs=data["nprocs"],
        total_tracks=data["total_tracks"],
        channel_tracks={int(k): v for k, v in data["channel_tracks"].items()},
        num_feedthroughs=data["num_feedthroughs"],
        horizontal_wirelength=data["horizontal_wirelength"],
        vertical_wirelength=data["vertical_wirelength"],
        core_width=data["core_width"],
        area=data["area"],
        side_conflicts=data["side_conflicts"],
        unplanned_crossings=data["unplanned_crossings"],
        num_spans=data["num_spans"],
        flips=data["flips"],
        work_units=dict(data["work_units"]),
        model_time=data["model_time"],
        seed=data["seed"],
    )


def timing_to_dict(timing: TimingReport) -> Dict[str, Any]:
    """Plain-dict form of a timing report (JSON-safe).

    Measured wall-clock fields are emitted only for real-parallelism
    transports: the in-process transport's walls are host-noise thread
    times in one interpreter, and persisting them would break the
    bit-identity contract between jobs=1/jobs=N/cache-replay records.
    Records written before the transport layer existed round-trip
    byte-identically.
    """
    out = {
        "machine": timing.machine,
        "nprocs": timing.nprocs,
        "rank_times": list(timing.rank_times),
        "rank_compute": list(timing.rank_compute),
        "rank_comm": list(timing.rank_comm),
        "rank_idle": list(timing.rank_idle),
        "serial_time": timing.serial_time,
        "serial_oom": timing.serial_oom,
        "elapsed": timing.elapsed,
        "speedup": timing.speedup,
    }
    if timing.transport != "inprocess":
        out["transport"] = timing.transport
    if timing.transport != "inprocess" and timing.measured_wall_s is not None:
        out["measured_wall_s"] = timing.measured_wall_s
        out["measured_rank_s"] = list(timing.measured_rank_s)
        if timing.measured_serial_s is not None:
            out["measured_serial_s"] = timing.measured_serial_s
        out["measured_speedup"] = timing.measured_speedup
    return out


def timing_from_dict(data: Dict[str, Any]) -> TimingReport:
    """Inverse of :func:`timing_to_dict`."""
    return TimingReport(
        machine=data["machine"],
        nprocs=data["nprocs"],
        rank_times=list(data["rank_times"]),
        rank_compute=list(data.get("rank_compute", [])),
        rank_comm=list(data.get("rank_comm", [])),
        rank_idle=list(data.get("rank_idle", [])),
        serial_time=data.get("serial_time"),
        serial_oom=data.get("serial_oom", False),
        transport=data.get("transport", "inprocess"),
        measured_rank_s=list(data.get("measured_rank_s", [])),
        measured_wall_s=data.get("measured_wall_s"),
        measured_serial_s=data.get("measured_serial_s"),
    )


def save_results(
    results: Union[RoutingResult, List[RoutingResult]],
    path: Union[str, Path],
) -> None:
    """Write one or more results to a JSON file."""
    if isinstance(results, RoutingResult):
        results = [results]
    payload = {"format": "repro-results-v1", "results": [result_to_dict(r) for r in results]}
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_results(path: Union[str, Path]) -> List[RoutingResult]:
    """Read results written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro-results-v1":
        raise ValueError(f"{path}: not a repro results file")
    return [result_from_dict(d) for d in payload["results"]]


def compare_results(a: RoutingResult, b: RoutingResult) -> Dict[str, Any]:
    """Field-wise quality comparison (b relative to a)."""
    def ratio(x: float, y: float) -> Optional[float]:
        return (y / x) if x else None

    return {
        "tracks": ratio(a.total_tracks, b.total_tracks),
        "area": ratio(a.area, b.area),
        "wirelength": ratio(a.wirelength, b.wirelength),
        "feedthroughs": ratio(a.num_feedthroughs, b.num_feedthroughs),
        "same_channels": a.channel_tracks == b.channel_tracks,
    }
