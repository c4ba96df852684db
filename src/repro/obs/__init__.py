"""The self-observability plane (PR 9).

One metrics registry (counters / gauges / fixed-bucket histograms with
``shard`` / ``lane`` / ``link`` / ``plane`` labels), a deterministic
internal-tracing seam over :class:`~repro.sim.clock.SimClock` and
``perf_counter``, and the export surfaces behind
``MintFramework.obs_report()``.

The plane's hard contract mirrors every other plane's: observability on
vs off is bit-identical on byte tables, meter series and query
signatures — instrumentation may read clocks, never pump them — and
the full registry's ingest overhead stays under the checked bound
(``benchmarks/perf/run.py obs --check``).
"""

from repro.obs.export import render_prometheus, report_to_json
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    SIM_DOMAIN,
    WALL_DOMAIN,
    Counter,
    Gauge,
    Histogram,
    LatencyStats,
    MetricsRegistry,
    format_labels,
)
from repro.obs.report import build_report, deterministic_report
from repro.obs.trace import NULL_OBSERVER, STAGE_METRIC, NullObserver, Observer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "SIM_DOMAIN",
    "WALL_DOMAIN",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyStats",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "STAGE_METRIC",
    "build_report",
    "deterministic_report",
    "format_labels",
    "render_prometheus",
    "report_to_json",
]
