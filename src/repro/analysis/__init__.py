"""Experiment harness: specs, canned runners and table/figure rendering.

An :class:`ExperimentSpec` is the one description of an experiment grid
(the shipped one is ``benchmarks/specs/paper_suite.toml``, read with
:func:`load_spec`).  Every table and figure of the paper's evaluation
section maps to one runner here that takes such a spec (see DESIGN.md's
experiment index); the benchmark suite in ``benchmarks/`` is a thin
wrapper that executes these and prints the rendered artifacts.
"""

from repro.analysis.tables import Table, render_table, render_series
from repro.analysis.congestion import (
    ChannelCongestion,
    analyze as analyze_congestion,
    hotspots,
    density_surface,
    render_heatmap,
    report as congestion_report,
)
from repro.analysis.scaling import AmdahlFit, fit_amdahl, efficiency_curve
from repro.analysis.specs import ExperimentSpec, load_spec
from repro.analysis.experiments import (
    run_circuit_characteristics,
    run_quality_table,
    run_speedup_figure,
    run_platform_table,
    run_net_partition_ablation,
    run_alpha_ablation,
    run_sync_frequency_ablation,
)

__all__ = [
    "Table",
    "render_table",
    "render_series",
    "ExperimentSpec",
    "load_spec",
    "run_circuit_characteristics",
    "run_quality_table",
    "run_speedup_figure",
    "run_platform_table",
    "run_net_partition_ablation",
    "run_alpha_ablation",
    "run_sync_frequency_ablation",
    "ChannelCongestion",
    "analyze_congestion",
    "hotspots",
    "density_surface",
    "render_heatmap",
    "congestion_report",
    "AmdahlFit",
    "fit_amdahl",
    "efficiency_curve",
]
