"""The step-time regression gate, run as a tier-1 smoke test.

``benchmarks/check_regression.py`` routes the fixed smoke specs and
diffs their modeled per-step seconds against the committed reference
``benchmarks/PROFILE_smoke.json``.  Modeled seconds are derived from
work counters (not wall time), so this gate is bit-deterministic across
hosts: it fails exactly when a code change altered how much work a TWGR
step performs without the reference being rebased (``--update``).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
GATE = REPO / "benchmarks" / "check_regression.py"


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["check_regression"] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.smoke
def test_step_times_match_committed_reference(capsys):
    gate = _load_gate()
    code = gate.main([])
    out = capsys.readouterr().out
    assert code == 0, f"regression gate failed:\n{out}"
    # deterministic modeled seconds: every ratio is exactly 1.0
    assert "REGRESSED" not in out


@pytest.mark.smoke
def test_gate_flags_injected_regression():
    gate = _load_gate()
    import json

    from repro.obs.profile import RunProfile, profile_diff

    reference = gate.load_reference(REPO / "benchmarks" / "PROFILE_smoke.json")
    old = RunProfile.from_dict(reference["serial"])
    slow = json.loads(json.dumps(reference["serial"]))  # deep copy
    for step in slow["steps"].values():
        step["model_s"] = step["model_s"] * 1.5
    new = RunProfile.from_dict(slow)
    diff = profile_diff(old, new, threshold=0.25)
    assert not diff.ok
    assert len(diff.regressions) == len(old.steps)
