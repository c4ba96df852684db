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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.baselines.base import TracingFramework
from repro.framework import MintFramework
from repro.model.encoding import encoded_size
from repro.sim.experiment import drive, generate_stream
from repro.transport import Deployment
from repro.workloads.specs import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.chaos import ChaosProfile
    from repro.net.transport import NetworkDescriptor


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
    qps ratios between tests); the chaos harness derives the stream's
    simulated duration from the same number, so the two can never
    drift."""
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
        total += agent.trace_parser.library.size_bytes()
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
    result, _ = _run_load_test_instrumented(
        spec, workload, factory, replica, duration_minutes, scale, seed
    )
    return result


def _run_load_test_instrumented(
    spec: LoadTestSpec,
    workload: Workload,
    factory: Callable[[], TracingFramework] | None,
    replica: str,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
) -> tuple[LoadTestResult, TracingFramework | None]:
    """Like :func:`run_load_test` but hands back the driven framework,
    so callers can read framework-specific meters (per-shard ledgers)."""
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
        return (
            LoadTestResult(
                test=spec.name,
                replica=replica,
                ingress_bytes=ingress,
                egress_bytes=0,
                cpu_seconds=0.0,
                memory_bytes=0,
                request_latency_overhead_ms=0.0,
            ),
            None,
        )
    framework = factory()
    cpu = drive(framework, stream)
    total_spans = sum(len(trace.spans) for _, trace in stream)
    per_span_ms = (cpu / max(1, total_spans)) * 1000.0
    return (
        LoadTestResult(
            test=spec.name,
            replica=replica,
            ingress_bytes=ingress,
            egress_bytes=framework.network_bytes,
            cpu_seconds=cpu,
            memory_bytes=tracing_memory_bytes(framework),
            request_latency_overhead_ms=per_span_ms,
        ),
        framework,
    )


@dataclass
class ShardedLoadTestResult:
    """One Fig. 14-style load test against the sharded collection plane.

    ``overall`` is comparable 1:1 with a single-backend
    :class:`LoadTestResult`; ``shard_egress_bytes`` /
    ``shard_storage_bytes`` split the same run by owning shard
    (physical bytes — summed shard storage exceeds the overall figure
    by exactly ``replicated_pattern_bytes``).
    """

    overall: LoadTestResult
    num_shards: int
    shard_egress_bytes: list[int] = field(default_factory=list)
    shard_storage_bytes: list[int] = field(default_factory=list)
    replicated_pattern_bytes: int = 0


def run_sharded_load_test(
    spec: LoadTestSpec,
    workload: Workload,
    num_shards: int,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
    auto_warmup_traces: int = 30,
    deployment: Deployment | None = None,
) -> ShardedLoadTestResult:
    """Drive one load test against Mint fanned over ``num_shards``.

    The replica name carries the shard count (``Mint x4``) so sweeps
    at 1/2/4/8 shards report side by side.  ``deployment`` overrides
    the default ``Deployment.sharded(num_shards)`` descriptor (it must
    still describe a sharded topology with ``num_shards`` shards).
    """
    if deployment is None:
        deployment = Deployment.sharded(num_shards)
    result, framework = _run_load_test_instrumented(
        spec,
        workload,
        lambda: MintFramework(
            deployment=deployment, auto_warmup_traces=auto_warmup_traces
        ),
        f"Mint x{num_shards}",
        duration_minutes,
        scale,
        seed,
    )
    assert isinstance(framework, MintFramework) and framework.deployment.is_sharded
    rows = framework.shard_meter_rows()
    return ShardedLoadTestResult(
        overall=result,
        num_shards=num_shards,
        shard_egress_bytes=[row.network_bytes for row in rows],
        shard_storage_bytes=[row.storage_bytes for row in rows],
        replicated_pattern_bytes=framework.backend.merged.replicated_pattern_bytes(),
    )


@dataclass
class NetLoadTestResult:
    """One load test over the simulated network plane.

    ``overall`` is comparable 1:1 with the in-process replicas'
    :class:`LoadTestResult` (egress is charged at the wire identically,
    so lossy runs report the same egress as lossless ones);
    ``retransmit_bytes`` and ``delivery`` carry the wire's own story —
    redundant bytes, drop/duplicate/retransmission counts, queue
    depths, per-link latency percentiles.
    """

    overall: LoadTestResult
    profile: str
    retransmit_bytes: int = 0
    delivery: dict = field(default_factory=dict)


# The chaos load scenarios: each pairs a Fig. 14 load shape with one
# failure mode, so the sweep exercises loss under high qps, duplication
# under API variety, jitter at sustained load, and a mid-run partition.
CHAOS_SCENARIOS: tuple[tuple[str, LoadTestSpec, str], ...] = (
    ("drop@T5", FIG14_LOAD_TESTS[4], "drop"),
    ("duplicate@T9", FIG14_LOAD_TESTS[8], "duplicate"),
    ("delay@T3", FIG14_LOAD_TESTS[2], "delay"),
    ("partition@T12", FIG14_LOAD_TESTS[11], "partition"),
)


def run_net_load_test(
    spec: LoadTestSpec,
    workload: Workload,
    profile: "ChaosProfile | None" = None,
    network: "NetworkDescriptor | None" = None,
    num_shards: int = 0,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
    auto_warmup_traces: int = 30,
) -> NetLoadTestResult:
    """Drive one load test over the simulated network plane.

    ``profile`` of None runs the lossless default wire; otherwise the
    profile is injected into ``network`` (a batching wire by default)
    with its partition windows fitted to the stream's duration.  The
    replica name carries both the load shape and the wire, so chaos
    sweeps report side by side with the in-process replicas.
    """
    from repro.net.chaos import LOSSLESS, fit_partitions
    from repro.net.transport import CHAOS_WIRE

    if network is None:
        network = CHAOS_WIRE
    chaos = profile if profile is not None else LOSSLESS
    num_traces = _load_test_traces(spec, duration_minutes, scale)
    chaos = fit_partitions(chaos, num_traces / spec.qps)
    descriptor = network.with_chaos(chaos, seed=seed)
    deployment = Deployment(num_shards=num_shards, network=descriptor)
    result, framework = _run_load_test_instrumented(
        spec,
        workload,
        lambda: MintFramework(
            deployment=deployment, auto_warmup_traces=auto_warmup_traces
        ),
        f"Mint {descriptor.describe()}",
        duration_minutes,
        scale,
        seed,
    )
    assert isinstance(framework, MintFramework)
    return NetLoadTestResult(
        overall=result,
        profile=chaos.name,
        retransmit_bytes=framework.retransmit_bytes,
        delivery=framework.net_stats() or {},
    )


def run_chaos_load_tests(
    workload: Workload,
    scenarios: tuple[tuple[str, LoadTestSpec, str], ...] = CHAOS_SCENARIOS,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
    auto_warmup_traces: int = 30,
) -> dict[str, NetLoadTestResult]:
    """Run the standard chaos scenario sweep; keyed by scenario name."""
    from repro.net.chaos import CHAOS_PROFILES

    results: dict[str, NetLoadTestResult] = {}
    for name, spec, profile_key in scenarios:
        results[name] = run_net_load_test(
            spec,
            workload,
            profile=CHAOS_PROFILES[profile_key],
            duration_minutes=duration_minutes,
            scale=scale,
            seed=seed,
            auto_warmup_traces=auto_warmup_traces,
        )
    return results


def measure_query_latency(
    framework: TracingFramework, trace_ids: list[str], repeats: int = 1
) -> dict[str, float]:
    """Mean and P95 query latency in milliseconds."""
    samples: list[float] = []
    for _ in range(repeats):
        for trace_id in trace_ids:
            started = time.perf_counter()
            framework.query(trace_id)
            samples.append((time.perf_counter() - started) * 1000.0)
    if not samples:
        return {"mean_ms": 0.0, "p95_ms": 0.0}
    ordered = sorted(samples)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {"mean_ms": sum(samples) / len(samples), "p95_ms": p95}
