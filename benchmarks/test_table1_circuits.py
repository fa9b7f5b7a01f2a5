"""Paper Table 1 — characteristics of the test circuits."""

from repro.analysis.experiments import run_circuit_characteristics
from repro.circuits import mcnc


def test_table1_circuit_characteristics(benchmark, spec, emit):
    table = benchmark.pedantic(
        run_circuit_characteristics, args=(spec,), rounds=1, iterations=1
    )
    emit(table.render())
    assert [row[0] for row in table.rows] == list(mcnc.PAPER_SUITE)
    cells = table.column("cells")
    # suite ordering by size as in the paper's Table 1
    assert cells[0] == min(cells)
    assert cells[-1] == max(cells)
    pins = table.column("pins")
    assert all(p > c for p, c in zip(pins, cells))  # more pins than cells
