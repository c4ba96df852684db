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
from typing import TYPE_CHECKING, Callable

from repro.analysis.metrics import hit_breakdown
from repro.baselines.base import TracingFramework
from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.rca.views import TraceView, views_from_cursor, views_from_traces
from repro.sim.meters import ShardLedgerRow
from repro.transport import Deployment
from repro.workloads.faults import FaultInjector, FaultSpec, FaultType
from repro.workloads.generator import WorkloadDriver
from repro.workloads.queries import TraceRecord
from repro.workloads.specs import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.chaos import ChaosProfile
    from repro.net.transport import NetworkDescriptor

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


@dataclass
class ShardedScalingResult:
    """The multi-agent topology mode's output: Mint at several shard
    counts over one stream, with the single-backend run as reference.

    ``runs`` is keyed by shard count; ``shard_meters`` carries each
    run's per-shard network/storage panels; ``invariant`` records
    whether every sharded run matched the reference's query outcomes
    and byte tables exactly (the correctness contract of the sharded
    collection plane).
    """

    workload: str
    trace_count: int
    reference: FrameworkRun
    runs: dict[int, FrameworkRun] = field(default_factory=dict)
    shard_meters: dict[int, list[ShardLedgerRow]] = field(default_factory=dict)
    replicated_pattern_bytes: dict[int, int] = field(default_factory=dict)
    invariant: bool = True
    violations: list[str] = field(default_factory=list)


def run_sharded_experiment(
    workload: Workload,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    num_traces: int = 600,
    abnormal_rate: float = 0.05,
    requests_per_minute: float = 6000.0,
    seed: int = 1,
    auto_warmup_traces: int = 100,
    deployments: dict[int, Deployment] | None = None,
) -> ShardedScalingResult:
    """The multi-agent topology mode (spans routed by owning service).

    One deterministic stream is generated once; sub-traces reach each
    host's agent exactly as in the single-backend experiment (the
    workload's service->node placement routes every span to its owning
    service's host), while collector reports land on the shard owning
    the host.  Mint is run once with the reference single backend and
    once per :class:`~repro.transport.deployment.Deployment` descriptor
    (by default ``Deployment.sharded(count)`` per requested count;
    ``deployments`` overrides descriptors for any subset of the counts
    — the hook for future transport/topology variants), then query
    outcomes and byte tables are cross-checked — a run that diverges
    from the reference in any hit status, network total or storage
    table is recorded as an invariance violation.
    """
    deployments = {
        count: Deployment.sharded(count) for count in shard_counts
    } | (deployments or {})
    factories: dict[str, FrameworkFactory] = {
        "Mint": lambda: MintFramework(auto_warmup_traces=auto_warmup_traces)
    }
    for count in shard_counts:
        factories[f"Mint x{count}"] = (
            lambda deployment=deployments[count]: MintFramework(
                deployment=deployment, auto_warmup_traces=auto_warmup_traces
            )
        )
    experiment = run_experiment(
        workload,
        factories,
        num_traces=num_traces,
        abnormal_rate=abnormal_rate,
        requests_per_minute=requests_per_minute,
        seed=seed,
    )
    reference = experiment.runs["Mint"]
    result = ShardedScalingResult(
        workload=experiment.workload,
        trace_count=experiment.trace_count,
        reference=reference,
    )
    for count in shard_counts:
        run = experiment.runs[f"Mint x{count}"]
        result.runs[count] = run
        framework = run.framework
        if isinstance(framework, MintFramework) and framework.deployment.is_sharded:
            summaries = {s.shard: s for s in framework.shard_summaries()}
            rows = framework.shard_meter_rows()
            for row in rows:
                row.hosts = list(summaries[row.shard].hosts)
            result.shard_meters[count] = rows
            result.replicated_pattern_bytes[count] = (
                framework.backend.merged.replicated_pattern_bytes()
            )
        for metric, got, want in (
            ("hits", run.hits, reference.hits),
            ("network_bytes", run.network_bytes, reference.network_bytes),
            ("storage_bytes", run.storage_bytes, reference.storage_bytes),
        ):
            if got != want:
                result.invariant = False
                result.violations.append(
                    f"shards={count}: {metric} {got!r} != reference {want!r}"
                )
    return result


@dataclass
class NetChaosRun:
    """Mint over one simulated-network configuration, checked against
    the lossless in-process reference.

    ``converged`` records the network plane's contract: query statuses
    and byte tables identical to the reference, the wire's overhead
    visible only on ``retransmit_bytes`` and in ``delivery`` (drop /
    duplicate / retransmission counts, queue depths, per-link latency).
    """

    profile: str
    run: FrameworkRun
    retransmit_bytes: int = 0
    delivery: dict = field(default_factory=dict)
    converged: bool = True
    violations: list[str] = field(default_factory=list)


@dataclass
class NetExperimentResult:
    """The network plane mode: one stream, one topology, many wires.

    ``reference`` is the in-process (LocalTransport) run; ``lossless``
    is the default NetTransport, whose check is the stricter
    bit-identity (meter series included); ``chaos`` maps profile name
    to its convergence-checked run.
    """

    workload: str
    trace_count: int
    reference: FrameworkRun
    lossless: NetChaosRun
    chaos: dict[str, NetChaosRun] = field(default_factory=dict)
    converged: bool = True
    violations: list[str] = field(default_factory=list)


def run_net_experiment(
    workload: Workload,
    profiles: dict[str, "ChaosProfile"] | None = None,
    num_traces: int = 600,
    abnormal_rate: float = 0.05,
    requests_per_minute: float = 6000.0,
    seed: int = 1,
    auto_warmup_traces: int = 100,
    num_shards: int = 0,
    network: "NetworkDescriptor | None" = None,
) -> NetExperimentResult:
    """The network plane mode: the same stream over progressively worse
    wires.

    Mint runs once over the in-process transport (the reference), once
    over the default lossless ``NetTransport`` (checked bit-identical:
    byte tables, per-minute network/storage meter series, per-trace
    query statuses), and once per chaos profile over a batching wire
    with that profile injected (checked for convergence: identical
    query statuses and byte tables, overhead confined to the retransmit
    meter).  Partition windows are fitted to the stream's duration so
    outages always overlap the traffic.
    """
    from repro.net.chaos import CHAOS_PROFILES, fit_partitions
    from repro.net.transport import CHAOS_WIRE, NetworkDescriptor

    if profiles is None:
        profiles = dict(CHAOS_PROFILES)
    if network is None:
        network = CHAOS_WIRE
    topology = (
        Deployment.single() if num_shards == 0 else Deployment.sharded(num_shards)
    )
    stream, _ = generate_stream(
        workload, num_traces, abnormal_rate, requests_per_minute, seed
    )
    duration_s = stream[-1][0] if stream else 0.0

    def run_on(deployment: Deployment) -> tuple[FrameworkRun, list[tuple[str, str]]]:
        """One full run plus its per-trace status signature (queried
        once; the hit counts are folded from the same sweep)."""
        framework = MintFramework(
            deployment=deployment, auto_warmup_traces=auto_warmup_traces
        )
        elapsed = drive(framework, stream)
        signature = [
            (result.trace_id, result.status)
            for result in framework.query_many(t.trace_id for _, t in stream)
        ]
        hits = hit_breakdown(status for _, status in signature)
        run = FrameworkRun(
            name=framework.name,
            network_bytes=framework.network_bytes,
            storage_bytes=framework.storage_bytes,
            process_seconds=elapsed,
            hits=hits,
            framework=framework,
        )
        return run, signature

    reference, reference_statuses = run_on(topology)

    def check(run: FrameworkRun, statuses: list[tuple[str, str]], label: str) -> list[str]:
        violations = []
        if run.network_bytes != reference.network_bytes:
            violations.append(
                f"{label}: network_bytes {run.network_bytes} != "
                f"reference {reference.network_bytes}"
            )
        if run.storage_bytes != reference.storage_bytes:
            violations.append(
                f"{label}: storage_bytes {run.storage_bytes} != "
                f"reference {reference.storage_bytes}"
            )
        if statuses != reference_statuses:
            violations.append(f"{label}: query statuses diverge from reference")
        return violations

    lossless_run, lossless_statuses = run_on(
        Deployment(num_shards=num_shards, network=NetworkDescriptor.lossless())
    )
    lossless_violations = check(lossless_run, lossless_statuses, "lossless-net")
    for meter in ("network", "storage"):
        got = getattr(lossless_run.framework.ledger, meter).per_minute_series()
        want = getattr(reference.framework.ledger, meter).per_minute_series()
        if got != want:
            lossless_violations.append(
                f"lossless-net: {meter} per-minute series diverges from reference"
            )
    result = NetExperimentResult(
        workload=workload.name,
        trace_count=len(stream),
        reference=reference,
        lossless=NetChaosRun(
            profile="lossless",
            run=lossless_run,
            retransmit_bytes=lossless_run.framework.retransmit_bytes,
            delivery=lossless_run.framework.net_stats() or {},
            converged=not lossless_violations,
            violations=lossless_violations,
        ),
    )

    for name, profile in sorted(profiles.items()):
        fitted = fit_partitions(profile, duration_s)
        chaos_run, chaos_statuses = run_on(
            Deployment(
                num_shards=num_shards, network=network.with_chaos(fitted, seed=seed)
            )
        )
        violations = check(chaos_run, chaos_statuses, f"chaos-{name}")
        result.chaos[name] = NetChaosRun(
            profile=name,
            run=chaos_run,
            retransmit_bytes=chaos_run.framework.retransmit_bytes,
            delivery=chaos_run.framework.net_stats() or {},
            converged=not violations,
            violations=violations,
        )

    all_runs = [result.lossless, *result.chaos.values()]
    result.violations = [v for run in all_runs for v in run.violations]
    result.converged = not result.violations
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
