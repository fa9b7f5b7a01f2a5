"""Metrics registry: named counters, gauges, and histograms.

A :class:`MetricsRegistry` is a thread-safe map of named instruments.
Registries are per process and share no memory: what a pool worker
counts stays in that worker's registry.

The module-level :data:`REGISTRY` is the default sink for subsystem
counters (the run cache's hit/miss/store tallies, engine point counts);
code that wants isolation creates its own registry.

Snapshots can be rendered in the Prometheus text exposition format
(:meth:`MetricsRegistry.render_prometheus` /
:func:`render_prometheus_snapshot`): counters become ``*_total``
counters, gauges stay gauges, and histograms are exposed as summaries
with p50/p95/p99 quantile samples estimated from the power-of-2
buckets, so a scrape target gets latency percentiles without the
registry ever storing raw samples.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, List, Optional

#: Quantiles exported on every histogram snapshot and summary.
PERCENTILES = (0.5, 0.95, 0.99)


def quantile_from_buckets(
    count: int,
    buckets: List[int],
    q: float,
    lo_bound: Optional[float] = None,
    hi_bound: Optional[float] = None,
) -> float:
    """Estimate the ``q``-quantile of a power-of-2 bucketed distribution.

    Bucket ``i`` holds observations with ``2**(i-1) < value <= 2**i``
    (bucket 0: ``value <= 1``; the last bucket is the overflow).  The
    estimate interpolates linearly within the containing bucket and is
    clamped to the observed ``[lo_bound, hi_bound]`` range so a
    single-observation histogram reports its exact value.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return 0.0
    last = len(buckets) - 1
    target = q * count
    est = hi_bound if hi_bound is not None else float(1 << last)
    cum = 0.0
    for i, n in enumerate(buckets):
        if not n:
            continue
        lo = 0.0 if i == 0 else float(1 << (i - 1))
        if i < last:
            hi = float(1 << i)
        else:  # overflow bucket: cap at the observed max when known
            hi = hi_bound if hi_bound is not None else lo * 2.0
        if cum + n >= target:
            est = lo + (hi - lo) * (target - cum) / n
            break
        cum += n
    if lo_bound is not None:
        est = max(est, lo_bound)
    if hi_bound is not None:
        est = min(est, hi_bound)
    return est


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (e.g. pool size, queue depth)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        """Shift the current level by ``delta``."""
        with self._lock:
            self.value += delta


class Histogram:
    """Streaming distribution summary: count/sum/min/max + power-of-2 buckets.

    Buckets hold counts of observations with ``value <= 2**i`` (the last
    bucket is the overflow), which is plenty for latency- and size-shaped
    data without storing samples.
    """

    __slots__ = ("_lock", "count", "total", "min", "max", "buckets")

    NBUCKETS = 32

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * self.NBUCKETS

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            idx = 0
            while idx < self.NBUCKETS - 1 and value > (1 << idx):
                idx += 1
            self.buckets[idx] += 1

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0.0 when empty); see
        :func:`quantile_from_buckets` for the estimator."""
        with self._lock:
            return quantile_from_buckets(
                self.count, self.buckets, q, self.min, self.max
            )

    def percentiles(self) -> Dict[str, float]:
        """The standard export quantiles as ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in PERCENTILES}


class MetricsRegistry:
    """Thread-safe named instruments with plain-dict snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(self._lock)
            return inst

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(self._lock)
            return inst

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the named histogram."""
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(self._lock)
            return inst

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict value of every instrument (JSON- and pickle-safe)."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                        "mean": h.mean,
                        "buckets": list(h.buckets),
                        **{
                            f"p{int(q * 100)}": quantile_from_buckets(
                                h.count, h.buckets, q, h.min, h.max
                            )
                            for q in PERCENTILES
                        },
                    }
                    for k, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every instrument (tests use this between cases)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def render_prometheus(self, prefix: str = "repro") -> str:
        """This registry's state in Prometheus text exposition format."""
        return render_prometheus_snapshot(self.snapshot(), prefix=prefix)


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(prefix: str, name: str) -> str:
    """Sanitize a dotted instrument name into a legal metric name."""
    metric = _PROM_BAD.sub("_", f"{prefix}_{name}" if prefix else name)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric


def _prom_value(value: float) -> str:
    """Format a sample value so it round-trips through ``float()``."""
    return repr(float(value))


def render_prometheus_snapshot(snap: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Counters gain the conventional ``_total`` suffix, gauges map
    one-to-one, and histograms are exposed as *summaries*: one sample
    per export quantile (estimated from the power-of-2 buckets) plus
    ``_sum`` and ``_count``.  Output is sorted by instrument name so
    identical snapshots render byte-identically.
    """
    lines: List[str] = []
    for name in sorted(snap.get("counters", {})):
        metric = _prom_name(prefix, name) + "_total"
        lines.append(f"# HELP {metric} counter {name!r}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(snap['counters'][name])}")
    for name in sorted(snap.get("gauges", {})):
        metric = _prom_name(prefix, name)
        lines.append(f"# HELP {metric} gauge {name!r}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(snap['gauges'][name])}")
    for name in sorted(snap.get("histograms", {})):
        data = snap["histograms"][name]
        metric = _prom_name(prefix, name)
        lines.append(f"# HELP {metric} histogram {name!r}")
        lines.append(f"# TYPE {metric} summary")
        for q in PERCENTILES:
            key = f"p{int(q * 100)}"
            est = data.get(key)
            if est is None:
                est = quantile_from_buckets(
                    data.get("count", 0), data.get("buckets", []),
                    q, data.get("min"), data.get("max"),
                )
            lines.append(f'{metric}{{quantile="{q}"}} {_prom_value(est)}')
        lines.append(f"{metric}_sum {_prom_value(data.get('total', 0.0))}")
        lines.append(f"{metric}_count {int(data.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def render_histograms(snap: Dict[str, Any]) -> str:
    """Text table of a snapshot's histograms (count/mean/percentiles).

    Returns ``""`` when the snapshot holds no histogram observations;
    ``repro profile`` appends this under its step table.
    """
    rows = []
    for name in sorted(snap.get("histograms", {})):
        data = snap["histograms"][name]
        count = data.get("count", 0)
        if not count:
            continue
        cells = [name, str(count)]
        mean = data.get("mean", data.get("total", 0.0) / count)
        for key, val in (("mean", mean), ("p50", None), ("p95", None),
                         ("p99", None), ("max", data.get("max"))):
            if val is None:
                val = data.get(key)
                if val is None:
                    q = int(key[1:]) / 100.0
                    val = quantile_from_buckets(
                        count, data.get("buckets", []), q,
                        data.get("min"), data.get("max"),
                    )
            cells.append(f"{val:.3f}")
        rows.append(cells)
    if not rows:
        return ""
    header = ["histogram", "count", "mean", "p50", "p95", "p99", "max"]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    def fmt(cells: List[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()
    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in rows)
    return "\n".join(out)


#: Default process-wide registry.
REGISTRY = MetricsRegistry()
