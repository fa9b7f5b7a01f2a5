"""Compact run records — what a sweep point returns and what gets cached.

A :class:`RunRecord` carries plain dicts (the :func:`result_to_dict` and
:func:`timing_to_dict` forms of ``RoutingResult`` and ``TimingReport``)
rather than live objects, so it pickles cheaply across the process pool,
serializes to JSON for the on-disk cache, and reconstructs the exact
same values on every path: Python ints are exact, and floats survive
both pickling and JSON round-trips bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.driver import ParallelRun
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


@dataclass(slots=True)
class RunRecord:
    """Everything one executed sweep point produced.

    ``algorithm == "serial"`` records have no ``timing``/``baseline``;
    parallel records embed the serial baseline they were scaled against.
    """

    circuit: str
    scale: float
    circuit_seed: int
    algorithm: str
    nprocs: int
    machine: str
    result: Dict[str, Any] = field(default_factory=dict)
    timing: Optional[Dict[str, Any]] = None
    baseline: Optional[Dict[str, Any]] = None
    #: per-step telemetry summary (:class:`repro.obs.profile.RunProfile`
    #: dict form); ``None`` for records predating the telemetry layer
    profile: Optional[Dict[str, Any]] = None
    #: content-address of this run in the cache ("" when not computed)
    key: str = ""
    #: True when this record was replayed from the on-disk cache
    cached: bool = False
    #: host wall seconds spent computing (0.0 for cache hits)
    host_seconds: float = 0.0
    #: how many execution attempts this record took (salvage runs retry
    #: transiently failing points; 1 everywhere else, including records
    #: predating the field)
    attempts: int = 1
    #: root spans of the run's tracer (:class:`repro.obs.tracer.Span`)
    #: when this process or a pool worker routed it; empty for a cache
    #: replay.  Never serialized: a span tree would multiply the record's
    #: JSON size and its encode cost.
    spans: List[Any] = field(default_factory=list, repr=False, compare=False)
    #: the fault plan's per-stream injection log (fault-plan points only)
    fired: Dict[str, List[str]] = field(default_factory=dict, compare=False)

    # -- reconstruction -------------------------------------------------
    def routing_result(self) -> RoutingResult:
        """The run's ``RoutingResult``, rebuilt from the record."""
        return result_from_dict(self.result)

    def baseline_result(self) -> Optional[RoutingResult]:
        """The shared serial baseline, when one was attached."""
        if self.baseline is None:
            return None
        return result_from_dict(self.baseline)

    def timing_report(self) -> Optional[TimingReport]:
        """The modeled timing report (parallel records only)."""
        if self.timing is None:
            return None
        return timing_from_dict(self.timing)

    def parallel_run(self) -> ParallelRun:
        """Rebuild the :class:`ParallelRun` bundle analysis code consumes."""
        timing = self.timing_report()
        if timing is None:
            raise ValueError(
                f"record for {self.circuit}/{self.algorithm} is a serial "
                "baseline; it has no timing report"
            )
        return ParallelRun(
            result=self.routing_result(),
            timing=timing,
            baseline=self.baseline_result(),
        )

    def run_profile(self) -> Optional["Any"]:
        """The embedded :class:`~repro.obs.profile.RunProfile`, if any."""
        if self.profile is None:
            return None
        from repro.obs.profile import RunProfile

        return RunProfile.from_dict(self.profile)

    @property
    def quality(self) -> Tuple[int, int, int, Optional[float]]:
        """The bit-identity tuple: (tracks, area, feedthroughs, model_time)."""
        return (
            self.result["total_tracks"],
            self.result["area"],
            self.result["num_feedthroughs"],
            self.result["model_time"],
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (inverse of :meth:`from_dict`).

        ``spans`` and ``fired`` are never emitted.
        """
        return {
            "format": "repro-run-record-v1",
            "circuit": self.circuit,
            "scale": self.scale,
            "circuit_seed": self.circuit_seed,
            "algorithm": self.algorithm,
            "nprocs": self.nprocs,
            "machine": self.machine,
            "result": self.result,
            "timing": self.timing,
            "baseline": self.baseline,
            "profile": self.profile,
            "key": self.key,
            "host_seconds": self.host_seconds,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], cached: bool = False) -> "RunRecord":
        """Rebuild a record (e.g. from the cache); marks provenance."""
        if data.get("format") != "repro-run-record-v1":
            raise ValueError("not a repro run record")
        return cls(
            circuit=data["circuit"],
            scale=data["scale"],
            circuit_seed=data["circuit_seed"],
            algorithm=data["algorithm"],
            nprocs=data["nprocs"],
            machine=data["machine"],
            result=data["result"],
            timing=data.get("timing"),
            baseline=data.get("baseline"),
            profile=data.get("profile"),
            key=data.get("key", ""),
            cached=cached,
            host_seconds=0.0 if cached else data.get("host_seconds", 0.0),
            attempts=int(data.get("attempts", 1)),
        )


def record_from_results(
    point: Any,
    result: RoutingResult,
    timing: Optional[TimingReport] = None,
    baseline: Optional[RoutingResult] = None,
    profile: Optional[Dict[str, Any]] = None,
    key: str = "",
    host_seconds: float = 0.0,
) -> RunRecord:
    """Build a :class:`RunRecord` from live router objects."""
    return RunRecord(
        circuit=point.circuit,
        scale=point.scale,
        circuit_seed=point.circuit_seed,
        algorithm=point.algorithm,
        nprocs=point.nprocs,
        machine=point.machine,
        result=result_to_dict(result),
        timing=timing_to_dict(timing) if timing is not None else None,
        baseline=result_to_dict(baseline) if baseline is not None else None,
        profile=profile,
        key=key,
        host_seconds=host_seconds,
    )
