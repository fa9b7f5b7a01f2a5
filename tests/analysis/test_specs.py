"""Declarative experiment specs: loading, validation, expansion, runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.specs import (
    ExperimentSpec,
    SpecError,
    load_spec,
    run_experiment,
    spec_from_dict,
)
from repro.circuits import mcnc

SPEC_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "specs"

TOML_SPEC = """
schema = 1
name = "t"
description = "test grid"

[grid]
circuits = ["primary1"]
algorithms = ["serial", "rowwise"]
nprocs = [1, 2]

[fixed]
scale = 0.06
seed = 1
"""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_spec_toml(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(TOML_SPEC)
    spec = load_spec(path)
    assert spec.name == "t"
    assert spec.algorithms == ("serial", "rowwise")
    assert spec.nprocs == (1, 2)
    assert spec.scale == 0.06
    assert spec.fault_plans == ("none",)  # default axis


def test_load_spec_json_round_trip(tmp_path):
    spec = ExperimentSpec(name="j", algorithms=("serial", "hybrid"),
                          nprocs=(1, 4), scale=0.05)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert load_spec(path) == spec


def test_load_spec_rejects_other_extensions(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("name: nope")
    with pytest.raises(SpecError, match=r"\.toml or \.json"):
        load_spec(path)


def test_load_spec_invalid_toml_names_file(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("name = [unclosed")
    with pytest.raises(SpecError, match="invalid TOML"):
        load_spec(path)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(SpecError, match="unknown top-level keys"):
        spec_from_dict({"name": "x", "grid": {}, "typo": 1})
    with pytest.raises(SpecError, match="unknown grid axes"):
        spec_from_dict({"name": "x", "grid": {"circuit": ["primary1"]}})
    with pytest.raises(SpecError, match="unknown fixed keys"):
        spec_from_dict({"name": "x", "fixed": {"sclae": 0.1}})


def test_spec_with_backends_axis_is_rejected(tmp_path):
    """The congestion core has one implementation; a spec written when
    ``backends`` was a grid axis fails loudly instead of being half-read."""
    with pytest.raises(SpecError, match=r"unknown grid axes \['backends'\]"):
        spec_from_dict({"name": "x", "grid": {"backends": ["python", "numpy"]}})
    path = tmp_path / "old.toml"
    path.write_text(TOML_SPEC.replace("nprocs", 'backends = ["numpy"]\nnprocs'))
    with pytest.raises(SpecError, match="unknown grid axes"):
        load_spec(path)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_rejects_unknown_axis_values():
    with pytest.raises(SpecError, match="unknown circuit"):
        ExperimentSpec(name="x", circuits=("nope",)).validate()
    with pytest.raises(SpecError, match="unknown algorithm"):
        ExperimentSpec(name="x", algorithms=("diagonal",)).validate()
    with pytest.raises(SpecError, match="unknown machine"):
        ExperimentSpec(name="x", machine="Cray-1").validate()
    with pytest.raises(SpecError, match="unknown fault plan"):
        ExperimentSpec(name="x", fault_plans=("gremlins",)).validate()


def test_validate_rejects_engine_level_fault_plans():
    with pytest.raises(SpecError, match="repro chaos"):
        ExperimentSpec(
            name="x", algorithms=("hybrid",), fault_plans=("flaky-cache",)
        ).validate()


def test_validate_rejects_nprocs_beyond_machine():
    with pytest.raises(SpecError, match="exceeds"):
        ExperimentSpec(name="x", nprocs=(512,)).validate()


def test_validate_checks_scale_against_max_scale():
    ExperimentSpec(name="x", scale=1.0).validate()
    for scale in (0.0, -0.1, 1.5):
        with pytest.raises(SpecError, match=r"scale must be in \(0, 1\]"):
            ExperimentSpec(name="x", scale=scale).validate()


@pytest.mark.parametrize(
    "path", sorted(SPEC_DIR.iterdir()), ids=lambda p: p.name
)
def test_every_shipped_spec_loads(path):
    spec = load_spec(path)
    spec.validate()
    assert spec.cells()


def test_paper_suite_is_the_paper_grid():
    spec = load_spec(SPEC_DIR / "paper_suite.toml")
    assert spec.circuits == tuple(mcnc.PAPER_SUITE)
    assert spec.nprocs == (1, 2, 4, 8)
    assert (spec.scale, spec.seed, spec.machine) == (0.2, 1, "SparcCenter-1000")


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_cells_collapse_serial_and_dedupe():
    spec = ExperimentSpec(
        name="g", algorithms=("serial", "rowwise"), nprocs=(1, 2, 4),
        scale=0.06,
    )
    cells = spec.cells()
    serial = [c for c in cells if c.coord["algorithm"] == "serial"]
    rowwise = [c for c in cells if c.coord["algorithm"] == "rowwise"]
    assert len(serial) == 1  # nprocs axis collapsed
    assert serial[0].point.nprocs == 1
    assert [c.coord["nprocs"] for c in rowwise] == [1, 2, 4]


def test_cells_skip_serial_fault_combinations():
    spec = ExperimentSpec(
        name="g", algorithms=("serial", "hybrid"), nprocs=(4,),
        fault_plans=("none", "crash-step3"), scale=0.06,
    )
    cells = spec.cells()
    faulted = [c for c in cells if c.coord["fault_plan"] != "none"]
    assert all(c.coord["algorithm"] == "hybrid" for c in faulted)
    assert all(c.point.fault_plan == "crash-step3" for c in faulted)
    clean = [c for c in cells if c.coord["fault_plan"] == "none"]
    assert all(c.point.fault_plan == "" for c in clean)


def test_cell_coords_carry_full_address():
    spec = ExperimentSpec(name="g", scale=0.06)
    coord = spec.cells()[0].coord
    assert coord == {
        "experiment": "g", "circuit": "primary1", "algorithm": "serial",
        "nprocs": 1, "fault_plan": "none",
        "scale": 0.06, "seed": 1, "machine": "SparcCenter-1000",
    }


def test_fault_free_points_keep_legacy_cache_spec():
    """Adding the fault axis must not shift pre-existing cache keys."""
    spec = ExperimentSpec(name="g", algorithms=("hybrid",), nprocs=(2,),
                          scale=0.06)
    point = spec.cells()[0].point
    assert "fault_plan" not in point.spec()
    faulted = ExperimentSpec(
        name="g", algorithms=("hybrid",), nprocs=(2,), scale=0.06,
        fault_plans=("crash-step3",),
    ).cells()[0].point
    assert faulted.spec()["fault_plan"] == "crash-step3"
    assert faulted.key() != point.key()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_run_experiment_json_pairs_records_with_cell_coords():
    from repro.exec.record import RunRecord

    spec = ExperimentSpec(
        name="pair", algorithms=("serial", "rowwise"), nprocs=(2,),
        scale=0.06,
    )
    outcome = run_experiment(spec, jobs=1)
    assert outcome.ok and outcome.exit_code == 0
    assert len(outcome.records) == len(spec.cells()) == 2
    entries = json.loads(json.dumps(outcome.to_json()))["records"]
    assert len(entries) == 2
    for entry, rec in zip(entries, outcome.records):
        assert entry["coord"]["experiment"] == "pair"
        assert entry["coord"]["algorithm"] == rec.algorithm
        assert "spec_coord" not in entry["record"]
        assert RunRecord.from_dict(entry["record"]) == rec
    text = outcome.table().render()
    assert "rowwise" in text and "ok" in text


def test_run_experiment_contains_crash_cells():
    spec = ExperimentSpec(
        name="chaos", algorithms=("hybrid",), nprocs=(2,),
        fault_plans=("none", "crash-step3"),
        scale=0.06,
    )
    outcome = run_experiment(spec, jobs=1)
    assert not outcome.ok
    assert outcome.exit_code == 3  # DEGRADED_EXIT
    assert len(outcome.records) == 1  # the clean cell survived
    assert len(outcome.failures) == 1
    assert outcome.failures[0].error_type == "RankError"
    text = outcome.table().render()
    assert "contained: RankError" in text
    json.dumps(outcome.to_json())  # JSON-safe
