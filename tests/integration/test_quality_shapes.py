"""End-to-end checks that the paper's headline findings reproduce.

These are the claims of §7/§8 (who wins, in which metric); they run on a
scaled circuit suite and assert orderings, not absolute values.
"""

import pytest

from repro.analysis.experiments import run_quality_table, run_speedup_figure
from repro.analysis.specs import ExperimentSpec
from repro.exec import RunCache

SPEC = ExperimentSpec(
    name="shapes", circuits=("primary2", "biomed"), nprocs=(1, 2, 8),
    scale=0.1, seed=1,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One run cache for the module: each figure replays its table's runs."""
    return RunCache(tmp_path_factory.mktemp("runs"))


@pytest.fixture(scope="module")
def results(cache):
    out = {}
    for algo in ("rowwise", "netwise", "hybrid"):
        table, runs = run_quality_table(algo, SPEC, cache=cache, jobs=1)
        _, series = run_speedup_figure(algo, SPEC, cache=cache, jobs=1)
        avg_scaled = table.rows[-1][-1]  # average @ max procs
        avg_speedup = sum(v[8] for v in series.values()) / len(series)
        out[algo] = (avg_scaled, avg_speedup)
    return out


def test_hybrid_has_best_quality(results):
    """§8: 'the hybrid pin partitioned routing algorithm obtains the best
    quality control'."""
    assert results["hybrid"][0] <= results["rowwise"][0]
    assert results["hybrid"][0] <= results["netwise"][0]


def test_netwise_has_worst_quality(results):
    """§7.2: 'the net-wise partitioned algorithm causes significant
    degradation in quality'."""
    assert results["netwise"][0] >= results["rowwise"][0]


def test_hybrid_quality_within_few_percent(results):
    """§8: hybrid quality is only a few percent worse than serial."""
    assert results["hybrid"][0] < 1.08


def test_rowwise_moderate_degradation(results):
    """§7.1: row-wise quality is a few percent worse, not catastrophic."""
    assert 1.0 <= results["rowwise"][0] < 1.25


def test_netwise_has_worst_speedup(results):
    """§7.2: net-wise speedups are poor."""
    assert results["netwise"][1] <= results["rowwise"][1]
    assert results["netwise"][1] <= results["hybrid"][1]


def test_rowwise_fastest(results):
    """§8: 'the best algorithm should be row-wise pin partitioned'
    when runtime is the priority."""
    assert results["rowwise"][1] >= results["hybrid"][1]


def test_speedups_meaningful(results):
    """All algorithms must actually speed up at 8 processors."""
    for algo, (_, sp) in results.items():
        assert sp > 1.5, algo


def test_speedups_scale_with_procs(cache):
    _, series = run_speedup_figure("hybrid", SPEC, cache=cache, jobs=1)
    for circuit, by_p in series.items():
        assert by_p[8] > by_p[2], circuit
