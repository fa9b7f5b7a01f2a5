import json

import pytest

from repro.analysis.records import (
    compare_results,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
    timing_from_dict,
    timing_to_dict,
)
from repro.circuits import mcnc
from repro.parallel import route_parallel
from repro.perfmodel import TimingReport
from repro.twgr import GlobalRouter, RouterConfig


@pytest.fixture(scope="module")
def result():
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    return GlobalRouter(RouterConfig(seed=1)).route(circuit)


def test_result_roundtrip(result):
    back = result_from_dict(result_to_dict(result))
    assert back.total_tracks == result.total_tracks
    assert back.channel_tracks == result.channel_tracks
    assert back.work_units == result.work_units
    assert back.wirelength == result.wirelength


def test_result_dict_is_json_safe(result):
    json.dumps(result_to_dict(result))  # must not raise


def test_save_load_file(tmp_path, result):
    path = tmp_path / "r.json"
    save_results(result, path)
    loaded = load_results(path)
    assert len(loaded) == 1
    assert loaded[0].total_tracks == result.total_tracks


def test_save_load_multiple(tmp_path, result):
    path = tmp_path / "rs.json"
    save_results([result, result], path)
    assert len(load_results(path)) == 2


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(ValueError, match="not a repro results file"):
        load_results(path)


def test_timing_roundtrip():
    t = TimingReport(
        machine="m", nprocs=2, rank_times=[1.0, 2.0],
        rank_compute=[0.5, 1.5], rank_comm=[0.1, 0.1], rank_idle=[0.4, 0.4],
        serial_time=4.0,
    )
    back = timing_from_dict(timing_to_dict(t))
    assert back.elapsed == t.elapsed
    assert back.speedup == t.speedup


def test_compare_results(result):
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    run = route_parallel(
        circuit, "hybrid", nprocs=2, config=RouterConfig(seed=1),
        compute_baseline=False,
    )
    cmp = compare_results(result, run.result)
    assert cmp["tracks"] == pytest.approx(run.result.total_tracks / result.total_tracks)
    assert "same_channels" in cmp
