"""Sweep execution engine: fan-out, run cache, run records.

The repo's experiment suite is a sweep over circuits × algorithms ×
processor counts, and every sweep point is an independent deterministic
computation.  This package executes such sweeps:

* :mod:`repro.exec.record` — :class:`RunRecord`, the compact picklable
  and JSON-safe record one sweep point produces (quality metrics, the
  modeled timing report, and the shared serial baseline) instead of the
  full ``RoutingResult``/artifact object graph;
* :mod:`repro.exec.cache` — :class:`RunCache`, a content-addressed
  on-disk cache of run records, keyed by a hash of everything that
  determines the run (circuit spec, configs, machine, algorithm,
  processor count, seed, and a code-version salt);
* :mod:`repro.exec.engine` — :class:`SweepPoint` and
  :func:`run_sweep_salvage`, the one sweep driver: it looks each
  distinct key up in the cache once, computes each distinct serial
  baseline once, fans the remaining points out over a
  ``ProcessPoolExecutor`` (degrading gracefully to in-process execution
  on one-core hosts, ``jobs=1``, or pool failure), retries points that
  fail, and returns the survivors with a per-point failure ledger.

Every run is deterministic, so a pooled run, its cached replay, and a
direct in-process :func:`repro.parallel.driver.route_parallel` call
produce bit-identical quality metrics and modeled times —
``tests/exec/test_engine.py`` enforces this.
"""

from repro.exec.cache import CODE_SALT, RunCache, cache_key
from repro.exec.engine import (
    DEGRADED_EXIT,
    PointFailure,
    SweepOutcome,
    SweepPoint,
    resolve_jobs,
    retry_backoff_s,
    run_sweep_salvage,
)
from repro.exec.record import RunRecord

__all__ = [
    "CODE_SALT",
    "DEGRADED_EXIT",
    "PointFailure",
    "RunCache",
    "RunRecord",
    "SweepOutcome",
    "SweepPoint",
    "cache_key",
    "resolve_jobs",
    "retry_backoff_s",
    "run_sweep_salvage",
]
