"""RunProfile: aggregation from tracers, rendering, diffing."""

from __future__ import annotations

import pytest

from repro.obs.profile import (
    STEP_ORDER,
    RunProfile,
    profile_diff,
    profile_from_tracer,
    render_profile,
)
from repro.obs.tracer import Tracer
from repro.perfmodel.machine import SPARCCENTER_1000


def _traced_parallel() -> Tracer:
    tr = Tracer()
    for rank in range(2):
        with tr.span("rank", rank=rank, nprocs=2):
            with tr.span("step1_steiner", step=1):
                tr.add_metric("ops.mst", 100)
                tr.add_metric("msg.sent", 2)
                tr.add_metric("msg.bytes", 64)
            with tr.span("step5_switch", step=5):
                tr.add_metric("ops.switch", 50)
                tr.add_metric("coll.allreduce", 1)
    return tr


def test_profile_aggregates_step_spans():
    prof = profile_from_tracer(
        _traced_parallel(), circuit="c", algorithm="hybrid", nprocs=2,
        machine=SPARCCENTER_1000,
    )
    s1 = prof.steps["step1_steiner"]
    assert s1["count"] == 2  # one per rank
    assert s1["ops"] == {"mst": 200.0}
    assert s1["messages"] == 4.0
    assert s1["bytes"] == 128.0
    s5 = prof.steps["step5_switch"]
    assert s5["collectives"] == 2.0
    assert prof.ops == {"mst": 200.0, "switch": 100.0}
    assert prof.comm["messages"] == 4.0
    assert prof.comm["bytes"] == 128.0
    assert prof.comm["collectives"] == 2.0


def test_model_seconds_are_deterministic_work_times():
    prof = profile_from_tracer(_traced_parallel(), machine=SPARCCENTER_1000)
    expected = SPARCCENTER_1000.work_seconds("mst", 200.0)
    assert prof.steps["step1_steiner"]["model_s"] == expected
    # model_s preferred over wall time for comparisons
    assert prof.step_seconds("step1_steiner") == expected


def test_rank_spans_are_not_steps():
    prof = profile_from_tracer(_traced_parallel())
    assert "rank" not in prof.steps


def test_ordered_steps_follow_pipeline_order():
    prof = profile_from_tracer(_traced_parallel())
    assert prof.ordered_steps() == ["step1_steiner", "step5_switch"]
    assert list(STEP_ORDER)[0] == "step1_steiner"


def test_round_trip_dict():
    prof = profile_from_tracer(
        _traced_parallel(), circuit="c", algorithm="hybrid", nprocs=2,
        scale=0.5, seed=3, machine=SPARCCENTER_1000, model_time=1.25,
        cache_stats={"hits": 1},
    )
    back = RunProfile.from_dict(prof.to_dict())
    assert back.to_dict() == prof.to_dict()
    assert back.model_time == 1.25
    assert back.cache == {"hits": 1}


def test_from_dict_rejects_foreign_payload():
    with pytest.raises(ValueError):
        RunProfile.from_dict({"format": "something-else"})


def test_render_profile_table():
    prof = profile_from_tracer(
        _traced_parallel(), circuit="c", algorithm="hybrid", nprocs=2,
        machine=SPARCCENTER_1000, model_time=2.0,
    )
    text = render_profile(prof)
    assert "step1_steiner" in text
    assert "step5_switch" in text
    assert "total" in text
    assert "100.0%" in text
    assert "modeled runtime: 2.00s" in text


def _prof(steps):
    return RunProfile(steps={
        name: {"count": 1, "wall_sum_s": s, "wall_max_s": s, "model_s": s, "ops": {}}
        for name, s in steps.items()
    })


def test_diff_flags_only_threshold_breaches():
    old = _prof({"step1_steiner": 1.0, "step2_coarse": 1.0})
    new = _prof({"step1_steiner": 1.2, "step2_coarse": 1.3})
    diff = profile_diff(old, new, threshold=0.25)
    assert not diff.ok
    assert [d.step for d in diff.regressions] == ["step2_coarse"]
    assert diff.deltas[0].ratio == pytest.approx(1.2)
    assert "REGRESSED" in diff.render()


def test_diff_ok_when_faster_or_equal():
    old = _prof({"step1_steiner": 1.0})
    new = _prof({"step1_steiner": 0.5})
    assert profile_diff(old, new).ok


def test_diff_flags_new_expensive_step():
    old = _prof({"step1_steiner": 1.0})
    new = _prof({"step1_steiner": 1.0, "stepX": 0.5})
    diff = profile_diff(old, new)
    assert [d.step for d in diff.regressions] == ["stepX"]
    assert diff.regressions[0].ratio == float("inf")


def test_diff_ignores_vanished_steps():
    old = _prof({"step1_steiner": 1.0, "step2_coarse": 1.0})
    new = _prof({"step1_steiner": 1.0})
    assert profile_diff(old, new).ok


def test_from_dict_ignores_legacy_backend_key():
    """Profiles recorded while the congestion core had several
    implementations carry a ``"backend"`` stamp; they must still load."""
    legacy = _prof({"step1_steiner": 1.0, "step2_coarse": 2.0}).to_dict()
    assert "backend" not in legacy
    legacy["backend"] = "numpy"
    prof = RunProfile.from_dict(legacy)
    assert prof.step_seconds("step2_coarse") == 2.0
    assert "backend" not in prof.to_dict()
    assert profile_diff(prof, _prof({"step1_steiner": 1.0, "step2_coarse": 2.0})).ok


def test_from_dict_ignores_legacy_spec_coord_key():
    """Profiles written when experiments stamped their cell coordinates
    into every run carry a ``"spec_coord"`` key; they must still load."""
    legacy = _prof({"step1_steiner": 1.0}).to_dict()
    legacy["spec_coord"] = {"experiment": "smoke", "nprocs": 4}
    prof = RunProfile.from_dict(legacy)
    assert prof.step_seconds("step1_steiner") == 1.0
    assert "spec_coord" not in prof.to_dict()
