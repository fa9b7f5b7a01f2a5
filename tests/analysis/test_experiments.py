"""Experiment harness tests, run on a very small spec for speed."""

import pytest

from repro.analysis.experiments import (
    run_alpha_ablation,
    run_circuit_characteristics,
    run_net_partition_ablation,
    run_platform_table,
    run_quality_table,
    run_speedup_figure,
    run_sync_frequency_ablation,
)
from repro.analysis.specs import ExperimentSpec
from repro.cli import main
from repro.exec import RunCache

TINY = ExperimentSpec(
    name="tiny", circuits=("primary1",), nprocs=(1, 2, 4), scale=0.1, seed=2
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One run cache for the module, so runners share their runs.

    Every runner here is called with ``jobs=1``: in-process, no pool.
    """
    return RunCache(tmp_path_factory.mktemp("runs"))


def test_characteristics_table():
    t = run_circuit_characteristics(TINY)
    assert t.columns == ["circuit", "rows", "pins", "cells", "nets"]
    assert len(t.rows) == 1
    assert t.rows[0][0] == "primary1"
    assert all(v > 0 for v in t.rows[0][1:])


@pytest.mark.parametrize("algo,number", [("rowwise", 2), ("netwise", 3), ("hybrid", 4)])
def test_quality_tables(cache, algo, number):
    table, runs = run_quality_table(algo, TINY, cache=cache, jobs=1)
    assert f"Table {number}" in table.title
    # one row per circuit plus the average
    assert len(table.rows) == 2
    # 1-proc column is exactly 1.0 (parity with serial)
    one_proc = table.column("1 proc")
    assert one_proc[0] == pytest.approx(1.0)
    assert runs["primary1"][2].result.nprocs == 2


@pytest.mark.parametrize("algo,number", [("rowwise", 4), ("netwise", 5), ("hybrid", 6)])
def test_speedup_figures(cache, algo, number):
    rendered, series = run_speedup_figure(algo, TINY, cache=cache, jobs=1)
    assert f"Figure {number}" in rendered
    assert set(series) == {"primary1"}
    assert set(series["primary1"]) == {2, 4}
    assert all(v is not None and v > 0 for v in series["primary1"].values())


def test_quality_and_figure_share_runs(tmp_path):
    """Given one RunCache, the figure replays every run of its table."""
    cache = RunCache(tmp_path)
    _, runs_a = run_quality_table("hybrid", TINY, cache=cache, jobs=1)
    stores = cache.stores
    assert stores > 0
    _, series = run_speedup_figure("hybrid", TINY, cache=cache, jobs=1)
    assert cache.stores == stores  # zero fresh routes
    assert series["primary1"][2] == runs_a["primary1"][2].speedup


def test_baseline_matches_repro_route_at_the_spec_seed(capsys, tmp_path):
    """The runner's serial baseline is the run `repro route` names at the
    spec's seed: same point key (a cache hit) and the same tracks."""
    spec = ExperimentSpec(
        name="seed2", circuits=("primary1",), nprocs=(1, 2), scale=0.06, seed=2
    )
    _, runs = run_quality_table("rowwise", spec, cache=RunCache(tmp_path), jobs=1)
    baseline = runs["primary1"][2].baseline
    capsys.readouterr()
    code = main([
        "route", "--circuit", "primary1", "--scale", "0.06", "--seed", "2",
        "--algorithm", "serial", "--cache-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "(cached)" in out
    assert f"tracks={baseline.total_tracks}," in out


def test_platform_table(cache):
    table, runs = run_platform_table(
        TINY, cache=cache, jobs=1,
        platforms=(("SparcCenter-1000", (1, 2)), ("Intel-Paragon", (1, 2))),
    )
    assert "Table 5" in table.title
    platforms = {row[0] for row in table.rows}
    assert platforms == {"SparcCenter-1000", "Intel-Paragon"}
    metrics = {row[2] for row in table.rows}
    assert {"tracks", "area", "time (s)", "scaled tracks", "speedup"} <= metrics


def test_net_partition_ablation(cache):
    table, runs = run_net_partition_ablation(
        TINY, cache=cache, jobs=1, circuit_name="primary1", nprocs=4
    )
    schemes = table.column("scheme")
    assert schemes == ["center", "locus", "density", "pin_weight"]
    imb = dict(zip(schemes, table.column("steiner imbalance")))
    assert imb["pin_weight"] <= min(imb.values()) + 1e-9


def test_alpha_ablation(cache):
    table, runs = run_alpha_ablation(
        TINY, cache=cache, jobs=1, circuit_name="primary1", nprocs=4, alphas=(1.0, 2.0)
    )
    assert table.column("alpha") == [1.0, 2.0]
    assert all(v is not None for v in table.column("speedup"))


def test_sync_frequency_ablation(cache):
    table, runs = run_sync_frequency_ablation(
        TINY, cache=cache, jobs=1, circuit_name="primary1", nprocs=4, frequencies=(1, 4)
    )
    assert table.column("syncs/pass") == [1, 4]
    speedups = table.column("speedup")
    # more synchronization must cost runtime (paper §7.2)
    assert speedups[1] <= speedups[0] * 1.05
