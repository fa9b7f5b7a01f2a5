"""Run-record codecs: RoutingResult and TimingReport dict round trips."""

import json

import pytest

from repro.circuits import mcnc
from repro.exec.record import (
    result_from_dict,
    result_to_dict,
    timing_from_dict,
    timing_to_dict,
)
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


def test_timing_roundtrip():
    t = TimingReport(
        machine="m", nprocs=2, rank_times=[1.0, 2.0],
        rank_compute=[0.5, 1.5], rank_comm=[0.1, 0.1], rank_idle=[0.4, 0.4],
        serial_time=4.0,
    )
    back = timing_from_dict(timing_to_dict(t))
    assert back.elapsed == t.elapsed
    assert back.speedup == t.speedup
