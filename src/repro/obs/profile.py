"""Run profiles: the machine-readable per-step summary of one run.

A :class:`RunProfile` condenses a traced run into what a regression gate
can diff — per-step seconds (wall, simulated, and *modeled*, the
deterministic one), work-counter ops per step, message/byte counts per
step, and cache statistics.  It is embedded in every
:class:`~repro.exec.record.RunRecord`, so cached sweeps retain their
profiles, and :func:`profile_diff` compares two profiles and flags
step-level regressions beyond a threshold.

The modeled seconds (``model_s``) are derived from the work counters via
the machine model, so they are bit-deterministic for a fixed spec: two
hosts, or two commits that did not change routing semantics, produce
identical values — the basis of ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer
from repro.perfmodel.machine import MACHINES, MachineModel

#: canonical TWGR step span names, in pipeline order
STEP_ORDER = (
    "step1_steiner",
    "step2_coarse",
    "step3_feedthrough",
    "step4_connect",
    "step5_switch",
)

PROFILE_FORMAT = "repro-profile-v1"


@dataclass(slots=True)
class RunProfile:
    """Per-step time/ops/bytes summary of one routing run."""

    circuit: str = ""
    algorithm: str = "serial"
    nprocs: int = 1
    scale: float = 1.0
    seed: int = 0
    machine: str = ""
    #: SPMD transport the run executed on; empty for serial runs,
    #: in-process runs, and profiles recorded before the field existed
    transport: str = ""
    #: step name -> {count, wall_sum_s, wall_max_s, [sim_sum_s, sim_max_s,]
    #: model_s, ops: {kind: units}, messages, bytes, collectives}
    steps: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: total work units per kind across all steps
    ops: Dict[str, float] = field(default_factory=dict)
    #: run-wide communication totals
    comm: Dict[str, float] = field(default_factory=dict)
    #: run cache statistics at record time (hits/misses/stores)
    cache: Dict[str, Any] = field(default_factory=dict)
    total_wall_s: float = 0.0
    model_time: Optional[float] = None
    #: coordinates of the experiment-spec cell that produced this run
    #: (empty for runs outside a declarative experiment); see
    #: :mod:`repro.analysis.specs`
    spec_coord: Dict[str, Any] = field(default_factory=dict)

    def ordered_steps(self) -> List[str]:
        """Step names, pipeline steps first, extras after."""
        known = [s for s in STEP_ORDER if s in self.steps]
        extra = sorted(s for s in self.steps if s not in STEP_ORDER)
        return known + extra

    def step_seconds(self, name: str) -> float:
        """The comparable per-step time: modeled, else simulated, else wall."""
        step = self.steps.get(name, {})
        for key in ("model_s", "sim_max_s", "wall_max_s"):
            val = step.get(key)
            if val is not None:
                return float(val)
        return 0.0

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (inverse of :meth:`from_dict`).

        ``spec_coord`` and ``transport`` are emitted only when set, so
        profiles outside a declarative experiment — and runs on the
        default in-process transport — serialize exactly as before the
        fields existed (committed references like ``PROFILE_smoke.json``
        stay byte-stable).
        """
        out = {
            "format": PROFILE_FORMAT,
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "nprocs": self.nprocs,
            "scale": self.scale,
            "seed": self.seed,
            "machine": self.machine,
            "steps": self.steps,
            "ops": self.ops,
            "comm": self.comm,
            "cache": self.cache,
            "total_wall_s": self.total_wall_s,
            "model_time": self.model_time,
        }
        if self.transport:
            out["transport"] = self.transport
        if self.spec_coord:
            out["spec_coord"] = self.spec_coord
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunProfile":
        """Rebuild a profile from its dict form.

        Keys this version no longer writes are ignored, so older
        artifacts still load — e.g. the ``"backend"`` stamp of profiles
        recorded while the congestion core had several implementations.
        """
        if data.get("format") != PROFILE_FORMAT:
            raise ValueError("not a repro run profile")
        return cls(
            circuit=data.get("circuit", ""),
            algorithm=data.get("algorithm", "serial"),
            nprocs=data.get("nprocs", 1),
            scale=data.get("scale", 1.0),
            seed=data.get("seed", 0),
            machine=data.get("machine", ""),
            transport=data.get("transport", ""),
            steps=dict(data.get("steps", {})),
            ops=dict(data.get("ops", {})),
            comm=dict(data.get("comm", {})),
            cache=dict(data.get("cache", {})),
            total_wall_s=data.get("total_wall_s", 0.0),
            model_time=data.get("model_time"),
            spec_coord=dict(data.get("spec_coord", {})),
        )


def profile_from_tracer(
    tracer: Tracer,
    circuit: str = "",
    algorithm: str = "serial",
    nprocs: int = 1,
    scale: float = 1.0,
    seed: int = 0,
    machine: Optional[MachineModel] = None,
    machine_name: str = "",
    transport: str = "",
    model_time: Optional[float] = None,
    cache_stats: Optional[Dict[str, Any]] = None,
) -> RunProfile:
    """Condense a tracer's span tree into a :class:`RunProfile`.

    Step spans are recognized by their ``step`` tag (the router and the
    three parallel programs tag the five TWGR steps).  ``machine``
    resolves ``model_s`` per step from the step's work-counter ops;
    when only ``machine_name`` is given it is looked up in
    :data:`~repro.perfmodel.machine.MACHINES`.
    """
    if machine is None and machine_name:
        machine = MACHINES.get(machine_name)

    steps: Dict[str, Dict[str, Any]] = {}
    total_ops: Dict[str, float] = {}
    comm = {"messages": 0.0, "bytes": 0.0, "collectives": 0.0}
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None

    for span in tracer.walk():
        t_lo = span.t0 if t_lo is None else min(t_lo, span.t0)
        t_hi = span.t1 if t_hi is None else max(t_hi, span.t1)
        if "step" not in span.tags:
            continue
        agg = steps.setdefault(
            span.name,
            {"count": 0, "wall_sum_s": 0.0, "wall_max_s": 0.0, "ops": {}},
        )
        agg["count"] += 1
        agg["wall_sum_s"] += span.wall_s
        agg["wall_max_s"] = max(agg["wall_max_s"], span.wall_s)
        sim = span.sim_s
        if sim is not None:
            agg["sim_sum_s"] = agg.get("sim_sum_s", 0.0) + sim
            agg["sim_max_s"] = max(agg.get("sim_max_s", 0.0), sim)
        for mname, mval in span.metrics.items():
            if mname.startswith("ops."):
                kind = mname[4:]
                agg["ops"][kind] = agg["ops"].get(kind, 0.0) + mval
                total_ops[kind] = total_ops.get(kind, 0.0) + mval
            elif mname == "msg.sent":
                agg["messages"] = agg.get("messages", 0.0) + mval
                comm["messages"] += mval
            elif mname == "msg.bytes":
                agg["bytes"] = agg.get("bytes", 0.0) + mval
                comm["bytes"] += mval
            elif mname.startswith("coll."):
                agg["collectives"] = agg.get("collectives", 0.0) + mval
                comm["collectives"] += mval

    if machine is not None:
        for agg in steps.values():
            agg["model_s"] = sum(
                machine.work_seconds(kind, units)
                for kind, units in agg["ops"].items()
            )

    return RunProfile(
        circuit=circuit,
        algorithm=algorithm,
        nprocs=nprocs,
        scale=scale,
        seed=seed,
        machine=machine.name if machine is not None else machine_name,
        transport=transport,
        steps=steps,
        ops=total_ops,
        comm=comm,
        cache=dict(cache_stats or {}),
        total_wall_s=(t_hi - t_lo) if t_lo is not None and t_hi is not None else 0.0,
        model_time=model_time,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_profile(profile: RunProfile) -> str:
    """Per-step time/ops/bytes table, terminal-friendly."""
    header = (
        f"profile: {profile.circuit}@{profile.scale:g} {profile.algorithm} "
        f"p={profile.nprocs} [{profile.machine or 'no machine model'}]"
    )
    if profile.transport:
        header += f" transport={profile.transport}"
    names = profile.ordered_steps()
    total_s = sum(profile.step_seconds(n) for n in names) or 1.0
    rows = [
        (
            "step",
            "seconds",
            "share",
            "ops",
            "messages",
            "bytes",
        )
    ]
    for name in names:
        step = profile.steps[name]
        secs = profile.step_seconds(name)
        ops = sum(step.get("ops", {}).values())
        rows.append(
            (
                name,
                f"{secs:.4f}",
                f"{secs / total_s:.1%}",
                f"{ops:,.0f}",
                f"{step.get('messages', 0):,.0f}",
                f"{step.get('bytes', 0):,.0f}",
            )
        )
    rows.append(
        (
            "total",
            f"{total_s:.4f}",
            "100.0%",
            f"{sum(profile.ops.values()):,.0f}",
            f"{profile.comm.get('messages', 0):,.0f}",
            f"{profile.comm.get('bytes', 0):,.0f}",
        )
    )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [header]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(
                cell.ljust(widths[j]) if j == 0 else cell.rjust(widths[j])
                for j, cell in enumerate(row)
            )
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if profile.model_time is not None:
        lines.append(f"modeled runtime: {profile.model_time:.2f}s")
    if profile.cache:
        cache = ", ".join(f"{k}={v}" for k, v in sorted(profile.cache.items()))
        lines.append(f"cache: {cache}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StepDelta:
    """One step's change between two profiles."""

    step: str
    old_s: float
    new_s: float

    @property
    def ratio(self) -> float:
        """New time over old (1.0 = unchanged; inf for new-only steps)."""
        if self.old_s == 0:
            return float("inf") if self.new_s > 0 else 1.0
        return self.new_s / self.old_s


@dataclass(slots=True)
class ProfileDiff:
    """Step-level comparison of two profiles."""

    deltas: List[StepDelta]
    threshold: float
    #: steps slower than ``old * (1 + threshold)``
    regressions: List[StepDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no step regressed beyond the threshold."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable comparison table."""
        lines = [f"profile diff (threshold {self.threshold:.0%})"]
        width = max((len(d.step) for d in self.deltas), default=4)
        for d in self.deltas:
            flag = "  REGRESSED" if d in self.regressions else ""
            ratio = "new" if d.ratio == float("inf") else f"{d.ratio:7.3f}x"
            lines.append(
                f"  {d.step:<{width}}  {d.old_s:12.6f}s -> {d.new_s:12.6f}s"
                f"  {ratio}{flag}"
            )
        lines.append("status: " + ("REGRESSION" if self.regressions else "OK"))
        return "\n".join(lines)


def profile_diff(
    old: RunProfile, new: RunProfile, threshold: float = 0.25,
) -> ProfileDiff:
    """Compare two profiles step by step.

    Uses each profile's most deterministic per-step time (modeled >
    simulated > wall).  A step is flagged when its new time exceeds the
    old by more than ``threshold`` (fractional, e.g. 0.25 = +25%); steps
    absent from the old profile are flagged only if they take time.
    """
    names = list(dict.fromkeys(old.ordered_steps() + new.ordered_steps()))
    deltas = [
        StepDelta(step=n, old_s=old.step_seconds(n), new_s=new.step_seconds(n))
        for n in names
    ]
    regressions = [
        d for d in deltas
        if (d.old_s == 0 and d.new_s > 0)  # step is new and takes time
        or (d.old_s > 0 and d.new_s > d.old_s * (1.0 + threshold))
    ]
    return ProfileDiff(deltas=deltas, threshold=threshold, regressions=regressions)
