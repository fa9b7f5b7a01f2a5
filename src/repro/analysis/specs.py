"""Declarative experiment specs: a grid of runs as data, not code.

An :class:`ExperimentSpec` names a full experiment as the cross product
circuits x algorithms x nprocs x fault plans over one fixed
operating point (scale/seed/machine).  Specs load from TOML or JSON
(:func:`load_spec`), expand to deduplicated
:class:`~repro.exec.engine.SweepPoint` cells (:meth:`ExperimentSpec.cells`),
and execute through the fault-containing sweep engine
(:func:`run_experiment`).  :meth:`ExperimentOutcome.to_json` writes every
surviving :class:`~repro.exec.record.RunRecord` next to the coordinates
of the cell that produced it, so downstream analytics can slice results
without re-deriving the grid.

Spec file shape (TOML shown; JSON uses the same keys)::

    schema = 1
    name = "smoke"
    description = "tiny smoke grid"

    [grid]
    circuits = ["primary1"]
    algorithms = ["serial", "rowwise"]
    nprocs = [1, 4]
    fault_plans = ["none"]

    [fixed]
    scale = 0.1
    seed = 1
    machine = "SparcCenter-1000"
    fault_seed = 1

Expansion rules: ``serial`` ignores the nprocs axis (one baseline per
circuit) and never carries a fault plan; duplicate cells
collapse; fault plans must be SPMD-level (the engine-level plans —
``flaky-cache``/``flaky-point`` — perturb the sweep machinery itself and
belong to ``repro chaos``, not to a point's identity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.tables import Table
from repro.circuits import mcnc
from repro.circuits.generator import DEFAULT_SCALE, MAX_SCALE
from repro.exec.engine import (
    PointFailure,
    SweepOutcome,
    SweepPoint,
    run_sweep_salvage,
)
from repro.exec.cache import RunCache
from repro.exec.record import RunRecord
from repro.parallel.driver import ParallelConfig
from repro.perfmodel.machine import MACHINES
from repro.twgr.config import RouterConfig

#: Spec-file schema version this loader understands.
SPEC_SCHEMA = 1

#: The parallel strategies of the paper plus the serial reference.
ALGORITHMS = ("serial", "rowwise", "netwise", "hybrid")

#: Named plans that perturb the *engine* (cache I/O, point dispatch)
#: rather than the routed SPMD program; rejected on the per-point axis.
ENGINE_LEVEL_PLANS = frozenset({"flaky-cache", "flaky-point"})


class SpecError(ValueError):
    """An experiment spec failed validation; the message names the field."""


@dataclass(frozen=True, slots=True)
class ExperimentCell:
    """One grid cell: its human-readable coordinates plus the point."""

    coord: Dict[str, Any]
    point: SweepPoint


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """A declarative experiment: axes x fixed operating point."""

    name: str
    description: str = ""
    circuits: Tuple[str, ...] = ("primary1",)
    algorithms: Tuple[str, ...] = ("serial",)
    nprocs: Tuple[int, ...] = (1,)
    fault_plans: Tuple[str, ...] = ("none",)
    scale: float = DEFAULT_SCALE
    seed: int = 1
    machine: str = "SparcCenter-1000"
    fault_seed: int = 1

    def validate(self) -> None:
        """Fail fast on axes the engine would reject mid-sweep."""
        from repro.faults import NAMED_PLANS

        if not self.name:
            raise SpecError("spec: 'name' must be non-empty")
        for axis in ("circuits", "algorithms", "nprocs", "fault_plans"):
            if not getattr(self, axis):
                raise SpecError(f"spec {self.name!r}: axis {axis!r} is empty")
        for c in self.circuits:
            try:
                mcnc.spec(c)
            except KeyError:
                raise SpecError(
                    f"spec {self.name!r}: unknown circuit {c!r}; "
                    f"choose from {sorted(mcnc.names())}"
                ) from None
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise SpecError(
                    f"spec {self.name!r}: unknown algorithm {a!r}; "
                    f"choose from {list(ALGORITHMS)}"
                )
        machine = MACHINES.get(self.machine)
        if machine is None:
            raise SpecError(
                f"spec {self.name!r}: unknown machine {self.machine!r}; "
                f"choose from {sorted(MACHINES)}"
            )
        for p in self.nprocs:
            if not isinstance(p, int) or p < 1:
                raise SpecError(
                    f"spec {self.name!r}: nprocs values must be ints >= 1, "
                    f"got {p!r}"
                )
            if p > machine.max_procs:
                raise SpecError(
                    f"spec {self.name!r}: nprocs {p} exceeds "
                    f"{machine.name}'s {machine.max_procs} processors"
                )
        for plan in self.fault_plans:
            if plan not in NAMED_PLANS:
                raise SpecError(
                    f"spec {self.name!r}: unknown fault plan {plan!r}; "
                    f"choose from {sorted(NAMED_PLANS)}"
                )
            if plan in ENGINE_LEVEL_PLANS:
                raise SpecError(
                    f"spec {self.name!r}: fault plan {plan!r} perturbs the "
                    "sweep engine, not the routed run; use `repro chaos`"
                )
        if not 0 < self.scale <= MAX_SCALE:
            raise SpecError(
                f"spec {self.name!r}: scale must be in (0, {MAX_SCALE:g}], "
                f"got {self.scale!r}"
            )

    def point(
        self,
        circuit: str,
        algorithm: str,
        nprocs: int = 1,
        *,
        fault_plan: str = "",
        pconfig: ParallelConfig = ParallelConfig(),
    ) -> SweepPoint:
        """The run of one cell at this spec's operating point.

        Serial points ignore ``nprocs``; the router seed is the spec's
        seed, as in ``repro route``.
        """
        return SweepPoint(
            circuit=circuit,
            algorithm=algorithm,
            nprocs=1 if algorithm == "serial" else nprocs,
            scale=self.scale,
            circuit_seed=self.seed,
            machine=self.machine,
            config=RouterConfig(seed=self.seed),
            pconfig=pconfig,
            fault_plan=fault_plan,
            fault_seed=self.fault_seed,
        )

    def cells(self) -> List[ExperimentCell]:
        """The deduplicated grid, in deterministic axis order."""
        self.validate()
        cells: List[ExperimentCell] = []
        seen: set = set()
        for circuit in self.circuits:
            for algorithm in self.algorithms:
                for p in self.nprocs:
                    for plan in self.fault_plans:
                        nprocs = 1 if algorithm == "serial" else p
                        fault = "" if plan == "none" else plan
                        if algorithm == "serial" and fault:
                            continue  # serial runs cannot carry SPMD faults
                        ident = (circuit, algorithm, nprocs, fault)
                        if ident in seen:
                            continue
                        seen.add(ident)
                        point = self.point(
                            circuit, algorithm, nprocs, fault_plan=fault
                        )
                        coord = {
                            "experiment": self.name,
                            "circuit": circuit,
                            "algorithm": algorithm,
                            "nprocs": nprocs,
                            "fault_plan": plan,
                            "scale": self.scale,
                            "seed": self.seed,
                            "machine": self.machine,
                        }
                        cells.append(ExperimentCell(coord, point))
        return cells

    def to_dict(self) -> Dict[str, Any]:
        """JSON/TOML-safe form (inverse of :func:`spec_from_dict`)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "description": self.description,
            "grid": {
                "circuits": list(self.circuits),
                "algorithms": list(self.algorithms),
                "nprocs": list(self.nprocs),
                "fault_plans": list(self.fault_plans),
            },
            "fixed": {
                "scale": self.scale,
                "seed": self.seed,
                "machine": self.machine,
                "fault_seed": self.fault_seed,
            },
        }


def spec_from_dict(data: Any, where: str = "spec") -> ExperimentSpec:
    """Build + validate an :class:`ExperimentSpec` from its dict form."""
    if not isinstance(data, dict):
        raise SpecError(f"{where}: top level is not an object/table")
    schema = data.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise SpecError(f"{where}: schema {schema!r} != {SPEC_SCHEMA}")
    known = {"schema", "name", "description", "grid", "fixed"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(f"{where}: unknown top-level keys {unknown}")
    grid = data.get("grid", {})
    fixed = data.get("fixed", {})
    for label, section in (("grid", grid), ("fixed", fixed)):
        if not isinstance(section, dict):
            raise SpecError(f"{where}: {label!r} is not an object/table")
    grid_known = {"circuits", "algorithms", "nprocs", "fault_plans"}
    unknown = sorted(set(grid) - grid_known)
    if unknown:
        raise SpecError(f"{where}: unknown grid axes {unknown}")
    fixed_known = {"scale", "seed", "machine", "fault_seed"}
    unknown = sorted(set(fixed) - fixed_known)
    if unknown:
        raise SpecError(f"{where}: unknown fixed keys {unknown}")

    def axis(key: str, default: Tuple[Any, ...]) -> Tuple[Any, ...]:
        val = grid.get(key)
        if val is None:
            return default
        if not isinstance(val, list):
            raise SpecError(f"{where}: grid.{key} must be a list")
        return tuple(val)

    spec = ExperimentSpec(
        name=str(data.get("name", "")),
        description=str(data.get("description", "")),
        circuits=axis("circuits", ("primary1",)),
        algorithms=axis("algorithms", ("serial",)),
        nprocs=axis("nprocs", (1,)),
        fault_plans=axis("fault_plans", ("none",)),
        scale=float(fixed.get("scale", DEFAULT_SCALE)),
        seed=int(fixed.get("seed", 1)),
        machine=str(fixed.get("machine", "SparcCenter-1000")),
        fault_seed=int(fixed.get("fault_seed", 1)),
    )
    spec.validate()
    return spec


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load a spec from a ``.toml`` or ``.json`` file (by extension)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from None
    elif path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from None
    else:
        raise SpecError(f"{path}: spec files must end in .toml or .json")
    return spec_from_dict(data, where=str(path))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ExperimentOutcome:
    """A spec's grid after execution: records + failure ledger."""

    spec: ExperimentSpec
    cells: List[ExperimentCell]
    records: List[RunRecord]
    failures: List[PointFailure]
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        from repro.exec.engine import DEGRADED_EXIT

        return 0 if self.ok else DEGRADED_EXIT

    def summary(self) -> str:
        return (
            f"experiment {self.spec.name!r}: {len(self.cells)} cell(s), "
            f"{len(self.records)} completed, {len(self.failures)} failed"
            + (f", {self.retries} retried" if self.retries else "")
        )

    def table(self) -> Table:
        """Quality/fault summary table, one row per grid cell."""
        table = Table(
            title=f"experiment {self.spec.name!r} "
                  f"(scale {self.spec.scale:g}, seed {self.spec.seed}, "
                  f"{self.spec.machine})",
            columns=["circuit", "algorithm", "p", "fault",
                     "tracks", "model_s", "speedup", "status"],
        )
        by_key = {r.key: r for r in self.records if r.key}
        failed = {f.point.key(): f for f in self.failures}
        for cell in self.cells:
            key = cell.point.key()
            coord = cell.coord
            rec = by_key.get(key)
            if rec is not None:
                model_time = rec.result.get("model_time")
                speedup = None
                timing = rec.timing_report()
                if timing is not None:
                    speedup = timing.speedup
                status = "cached" if rec.cached else "ok"
                if rec.attempts > 1:
                    status += f" ({rec.attempts} attempts)"
                table.add_row(
                    coord["circuit"], coord["algorithm"],
                    coord["nprocs"], coord["fault_plan"],
                    rec.result.get("total_tracks"), model_time, speedup,
                    status,
                )
            else:
                failure = failed.get(key)
                status = "lost"
                if failure is not None:
                    status = f"contained: {failure.error_type}"
                table.add_row(
                    coord["circuit"], coord["algorithm"],
                    coord["nprocs"], coord["fault_plan"],
                    None, None, None, status,
                )
        return table

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe report (spec, records, failures).

        Each record sits next to the coordinates of the grid cell that
        produced it: ``{"coord": {...}, "record": {...}}``.
        """
        coords = {c.point.key(): c.coord for c in self.cells}
        return {
            "schema": SPEC_SCHEMA,
            "spec": self.spec.to_dict(),
            "records": [
                {"coord": coords.get(r.key), "record": r.to_dict()}
                for r in self.records
            ],
            "failures": [_failure_entry(f) for f in self.failures],
            "retries": self.retries,
        }


def _failure_entry(failure: PointFailure) -> Dict[str, Any]:
    """One ledger entry; a contained SPMD crash adds its report."""
    entry = failure.to_dict()
    if failure.report is not None:
        entry["report"] = failure.report.to_dict()
    return entry


def run_experiment(
    spec: ExperimentSpec,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    max_retries: int = 1,
) -> ExperimentOutcome:
    """Execute a spec's grid through the fault-containing sweep engine.

    Crash-plan cells fail deterministically every attempt; the salvage
    engine contains them as :class:`PointFailure` entries while every
    clean cell completes.
    """
    cells = spec.cells()
    outcome: SweepOutcome = run_sweep_salvage(
        [c.point for c in cells], jobs=jobs, cache=cache,
        max_retries=max_retries,
    )
    return ExperimentOutcome(
        spec=spec,
        cells=cells,
        records=outcome.records,
        failures=outcome.failures,
        retries=outcome.retries,
    )
