"""The shared experiment harness behind Figs. 11/12 and Table 3.

One experiment = one workload streamed (with fault injection) through
several tracing frameworks, all charged through their own meters, then
interrogated: bytes moved, bytes stored, query outcomes, and the trace
populations each framework can feed to downstream analysis.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.metrics import hit_breakdown
from repro.baselines.base import TracingFramework
from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.rca.views import TraceView, views_from_cursor, views_from_traces
from repro.workloads.faults import FaultInjector, FaultSpec, FaultType
from repro.workloads.generator import WorkloadDriver
from repro.workloads.queries import TraceRecord
from repro.workloads.specs import Workload

FrameworkFactory = Callable[[], TracingFramework]


@dataclass
class FrameworkRun:
    """One framework's measurements over the generated stream."""

    name: str
    network_bytes: int
    storage_bytes: int
    process_seconds: float
    hits: dict[str, int] = field(default_factory=dict)
    framework: TracingFramework | None = None


@dataclass
class ExperimentResult:
    """Everything a bench needs to print its table or figure series."""

    workload: str
    trace_count: int
    raw_bytes: int
    runs: dict[str, FrameworkRun] = field(default_factory=dict)
    traces: list[Trace] = field(default_factory=list)
    records: list[TraceRecord] = field(default_factory=list)
    fault_targets: dict[str, str] = field(default_factory=dict)


def generate_stream(
    workload: Workload,
    num_traces: int,
    abnormal_rate: float = 0.05,
    requests_per_minute: float = 6000.0,
    seed: int = 1,
    fault_types: list[FaultType] | None = None,
) -> tuple[list[tuple[float, Trace]], dict[str, str]]:
    """A deterministic (timestamp, trace) stream with injected faults.

    Returns the stream and a map of trace id -> faulted service for the
    abnormal traces (the RCA ground truth).
    """
    driver = WorkloadDriver(
        workload, seed=seed, requests_per_minute=requests_per_minute
    )
    injector = FaultInjector(seed=seed ^ 0x77)
    rng = random.Random(seed ^ 0x3333)
    types = fault_types or list(FaultType)
    stream: list[tuple[float, Trace]] = []
    fault_targets: dict[str, str] = {}
    for now, trace in driver.traces(num_traces):
        if rng.random() < abnormal_rate:
            target = rng.choice(sorted(trace.services))
            trace = injector.inject(trace, FaultSpec(rng.choice(types), target))
            fault_targets[trace.trace_id] = target
        stream.append((now, trace))
    return stream, fault_targets


def drive(framework: TracingFramework, stream: list[tuple[float, Trace]]) -> float:
    """Feed every (timestamp, trace) to ``framework``, finalize at the
    last timestamp, and return the wall-clock seconds the run took —
    the one process-all-then-finalize loop every harness shares."""
    started = time.perf_counter()
    last_now = 0.0
    for now, trace in stream:
        framework.process_trace(trace, now)
        last_now = now
    framework.finalize(last_now)
    return time.perf_counter() - started


def run_experiment(
    workload: Workload,
    factories: dict[str, FrameworkFactory],
    num_traces: int = 2000,
    abnormal_rate: float = 0.05,
    requests_per_minute: float = 6000.0,
    seed: int = 1,
    query_all: bool = True,
) -> ExperimentResult:
    """Stream one workload through every framework and measure."""
    from repro.model.encoding import encoded_size

    stream, fault_targets = generate_stream(
        workload, num_traces, abnormal_rate, requests_per_minute, seed
    )
    raw_bytes = sum(encoded_size(trace) for _, trace in stream)
    result = ExperimentResult(
        workload=workload.name,
        trace_count=len(stream),
        raw_bytes=raw_bytes,
        traces=[trace for _, trace in stream],
        records=[
            TraceRecord(
                trace_id=trace.trace_id,
                timestamp=now,
                is_abnormal=trace.trace_id in fault_targets,
            )
            for now, trace in stream
        ],
        fault_targets=fault_targets,
    )
    for name, factory in factories.items():
        framework = factory()
        elapsed = drive(framework, stream)
        # One batched sweep through the unified query plane, folded by
        # the shared metric helper (plain string keys for the tables).
        hits = hit_breakdown(
            answer.status
            for answer in framework.query_many(t.trace_id for _, t in stream)
        ) if query_all else hit_breakdown(())
        result.runs[name] = FrameworkRun(
            name=name,
            network_bytes=framework.network_bytes,
            storage_bytes=framework.storage_bytes,
            process_seconds=elapsed,
            hits=hits,
            framework=framework,
        )
    return result


def rca_views_for_framework(
    run: FrameworkRun, traces: list[Trace]
) -> list[TraceView]:
    """The trace population a framework can feed to RCA methods.

    '1 or 0' frameworks contribute exactly the traces they stored.
    Mint contributes exact traces for sampled requests plus approximate
    views for everything else — the paper's Table 3 setting.
    """
    framework = run.framework
    if framework is None:
        return []
    by_id = {trace.trace_id: trace for trace in traces}
    stored = framework.stored_trace_ids()
    views = views_from_traces(by_id[tid] for tid in stored if tid in by_id)
    if isinstance(framework, MintFramework):
        # One batched cursor over the unsampled remainder: partial hits
        # contribute approximate views, misses nothing (Mint's exact
        # hits are already covered by the stored population above).
        missing = [tid for tid in by_id if tid not in stored]
        views.extend(views_from_cursor(framework.query_many(missing)))
    return views
