"""Load tests and latency probes (paper Figs. 14 and 15).

The paper runs 14 load tests against three replicas of a production
system (no tracing / OT-Head / Mint) and reports ingress/egress
bandwidth, CPU, memory, request latency and query latency.  Here the
replicas are simulated: ingress is the workload's own request volume
(identical across replicas by construction), egress is each framework's
metered network, CPU is measured wall-clock of the tracing pipeline,
and memory is the framework's resident tracing state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.baselines.base import TracingFramework
from repro.framework import MintFramework
from repro.model.encoding import encoded_size
from repro.obs.metrics import LatencyStats
from repro.sim.experiment import drive, generate_stream
from repro.workloads.specs import Workload


@dataclass(frozen=True)
class LoadTestSpec:
    """One Fig. 14 load test: request rate and API variety."""

    name: str
    qps: int
    api_count: int


# The 14 load tests from Fig. 14's legend (T1..T14).
FIG14_LOAD_TESTS: tuple[LoadTestSpec, ...] = (
    LoadTestSpec("T1", 200, 5),
    LoadTestSpec("T2", 400, 5),
    LoadTestSpec("T3", 600, 5),
    LoadTestSpec("T4", 800, 5),
    LoadTestSpec("T5", 1000, 5),
    LoadTestSpec("T6", 1000, 5),
    LoadTestSpec("T7", 400, 1),
    LoadTestSpec("T8", 400, 2),
    LoadTestSpec("T9", 1000, 8),
    LoadTestSpec("T10", 600, 3),
    LoadTestSpec("T11", 200, 2),
    LoadTestSpec("T12", 800, 4),
    LoadTestSpec("T13", 200, 4),
    LoadTestSpec("T14", 400, 4),
)


@dataclass
class LoadTestResult:
    """Measurements for one replica in one load test."""

    test: str
    replica: str
    ingress_bytes: int
    egress_bytes: int
    cpu_seconds: float
    memory_bytes: int
    request_latency_overhead_ms: float


def _load_test_traces(spec: LoadTestSpec, duration_minutes: float, scale: float) -> int:
    """Trace count for one load test — the single copy of the sizing
    formula (``scale`` shrinks runs to laptop size while preserving the
    qps ratios between tests); :func:`~repro.sim.elastic.run_elastic_load_test`
    derives the stream's simulated duration from the same number, so
    the two can never drift."""
    return max(20, int(spec.qps * 60 * duration_minutes * scale / 10))


def restrict_apis(workload: Workload, api_count: int) -> Workload:
    """A copy of the workload keeping only the first ``api_count`` APIs."""
    apis = workload.apis[: max(1, min(api_count, len(workload.apis)))]
    return Workload(
        name=f"{workload.name}-{len(apis)}apis",
        apis=apis,
        service_nodes=dict(workload.service_nodes),
    )


def tracing_memory_bytes(framework: TracingFramework) -> int:
    """Resident tracing state: pattern libraries, buffers, filters."""
    if not isinstance(framework, MintFramework):
        return 0
    total = 0
    for collector in framework._collectors.values():
        agent = collector.agent
        total += agent.span_parser.library.size_bytes()
        total += agent.topo_library.size_bytes()
        total += agent.params_buffer.used_bytes
        for filt in agent.mounted_library.active_filters().values():
            total += filt.size_bytes
    return total


def run_load_test(
    spec: LoadTestSpec,
    workload: Workload,
    factory: Callable[[], TracingFramework] | None,
    replica: str,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
) -> LoadTestResult:
    """Drive one replica through one load test.

    ``factory`` of None means the no-tracing replica.  ``scale`` shrinks
    the request count so the full 14-test sweep stays laptop-sized
    while preserving the qps ratios between tests.
    """
    limited = restrict_apis(workload, spec.api_count)
    num_traces = _load_test_traces(spec, duration_minutes, scale)
    stream, _ = generate_stream(
        limited,
        num_traces,
        abnormal_rate=0.02,
        requests_per_minute=spec.qps * 60,
        seed=seed,
    )
    ingress = sum(encoded_size(trace) for _, trace in stream)
    if factory is None:
        return LoadTestResult(
            test=spec.name,
            replica=replica,
            ingress_bytes=ingress,
            egress_bytes=0,
            cpu_seconds=0.0,
            memory_bytes=0,
            request_latency_overhead_ms=0.0,
        )
    framework = factory()
    cpu = drive(framework, stream)
    total_spans = sum(len(trace.spans) for _, trace in stream)
    per_span_ms = (cpu / max(1, total_spans)) * 1000.0
    return LoadTestResult(
        test=spec.name,
        replica=replica,
        ingress_bytes=ingress,
        egress_bytes=framework.network_bytes,
        cpu_seconds=cpu,
        memory_bytes=tracing_memory_bytes(framework),
        request_latency_overhead_ms=per_span_ms,
    )


def measure_query_latency(
    framework: TracingFramework, trace_ids: list[str], repeats: int = 1
) -> dict[str, float]:
    """Mean and P95 query latency in milliseconds (0.0 with no ids)."""
    samples = LatencyStats("query_ms")
    for _ in range(repeats):
        for trace_id in trace_ids:
            started = time.perf_counter()
            framework.query(trace_id)
            samples.record((time.perf_counter() - started) * 1000.0)
    return {"mean_ms": samples.mean, "p95_ms": samples.percentile(95.0)}
