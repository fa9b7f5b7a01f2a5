"""Compact run records — what a sweep point returns and what gets cached.

A :class:`RunRecord` carries plain dicts (the :mod:`repro.analysis.records`
serialization of ``RoutingResult`` and ``TimingReport``) rather than live
objects, so it pickles cheaply across the process pool, serializes to
JSON for the on-disk cache, and reconstructs the exact same values on
every path: Python ints are exact, and floats survive both pickling and
JSON round-trips bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.driver import ParallelRun
from repro.perfmodel.report import TimingReport
from repro.twgr.result import RoutingResult


def _codec():
    """The dict<->object converters, imported lazily.

    ``repro.analysis`` (whose package init pulls in the experiment
    runners) itself imports this package, so importing
    ``repro.analysis.records`` at module scope would be circular.
    """
    from repro.analysis import records

    return records


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
    #: coordinates of the experiment-spec cell that produced this run
    #: (``{}`` for runs outside a declarative experiment); stamped
    #: parent-side by :func:`repro.analysis.specs.run_experiment`
    spec_coord: Dict[str, Any] = field(default_factory=dict)
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
        return _codec().result_from_dict(self.result)

    def baseline_result(self) -> Optional[RoutingResult]:
        """The shared serial baseline, when one was attached."""
        if self.baseline is None:
            return None
        return _codec().result_from_dict(self.baseline)

    def timing_report(self) -> Optional[TimingReport]:
        """The modeled timing report (parallel records only)."""
        if self.timing is None:
            return None
        return _codec().timing_from_dict(self.timing)

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

        ``spec_coord`` is emitted only when set, so records produced
        outside a declarative experiment keep their pre-field shape;
        ``spans`` and ``fired`` are never emitted.
        """
        out = {
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
        if self.spec_coord:
            out["spec_coord"] = self.spec_coord
        return out

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
            spec_coord=dict(data.get("spec_coord", {})),
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
    codec = _codec()
    return RunRecord(
        circuit=point.circuit,
        scale=point.scale,
        circuit_seed=point.circuit_seed,
        algorithm=point.algorithm,
        nprocs=point.nprocs,
        machine=point.machine,
        result=codec.result_to_dict(result),
        timing=codec.timing_to_dict(timing) if timing is not None else None,
        baseline=codec.result_to_dict(baseline) if baseline is not None else None,
        profile=profile,
        key=key,
        host_seconds=host_seconds,
    )
