"""Elastic-deployment harnesses: resharding, failover, autoscaling.

Three experiment modes over the same deterministic streams the other
harnesses use:

* :func:`run_reshard_experiment` — drive a stream through an elastic
  deployment, rescale it live (one host migrated per ingested trace
  once the trigger point passes), and compare the end state bit for
  bit against a fresh deployment born at the destination shard count;
* :func:`run_failover_experiment` — drive the stream under a
  :class:`~repro.elastic.chaos.ShardChaosProfile`, probe queries in
  the middle of the outage (they must degrade, never raise), and check
  the run reconverges to the no-chaos answers after replay;
* :func:`run_elastic_load_test` — a Fig. 14 load shape with shard
  chaos and the queue-depth autoscaler attached, reporting the scale
  events the pressure actually triggered.

Every function returns violations instead of asserting, so the bench
gate (``benchmarks/perf/run.py elastic --check``) and the unit tests
share one implementation of the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.elastic.autoscale import AutoscalePolicy, Autoscaler
from repro.elastic.chaos import SHARD_CHAOS_PROFILES, ShardChaosProfile, fit_outages
from repro.elastic.reshard import ReshardCoordinator, placement_violations
from repro.framework import MintFramework
from repro.query.result import QueryStatus
from repro.sim.experiment import drive, generate_stream
from repro.sim.loadtest import LoadTestSpec, _load_test_traces, restrict_apis
from repro.transport import Deployment
from repro.verify import compare_fingerprints, fingerprint, query_signature
from repro.workloads.specs import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import NetworkDescriptor

# exact > partial > miss: a degraded answer may only move rightward.
_STATUS_RANK = {
    QueryStatus.EXACT: 2,
    QueryStatus.PARTIAL: 1,
    QueryStatus.MISS: 0,
}


# ----------------------------------------------------------------------
# Resharding
# ----------------------------------------------------------------------
@dataclass
class ReshardExperimentResult:
    """One live reshard checked against a fresh destination deployment."""

    workload: str
    from_shards: int
    to_shards: int
    trace_count: int
    identical: bool
    violations: list[str] = field(default_factory=list)
    migration: dict = field(default_factory=dict)
    migration_bytes: int = 0
    byte_tables: dict[str, int] = field(default_factory=dict)


def run_reshard_experiment(
    workload: Workload,
    from_shards: int = 2,
    to_shards: int = 4,
    num_traces: int = 300,
    abnormal_rate: float = 0.02,
    requests_per_minute: float = 6000.0,
    seed: int = 17,
    auto_warmup_traces: int = 50,
    trigger_frac: float = 0.5,
    network: "NetworkDescriptor | None" = None,
) -> ReshardExperimentResult:
    """Rescale a live deployment mid-stream and check bit-identity.

    The elastic run starts at ``from_shards``; once ``trigger_frac`` of
    the stream has been ingested a :class:`ReshardCoordinator` starts
    and migrates one host per subsequent trace (any remainder completes
    before ``finalize``), so migration interleaves with ingest — routing
    never stops.  The reference is a fresh ``Deployment.sharded(to_n)``
    (or elastic-at-``to_n`` over a network wire, which is bit-identical
    by the sharded gates) driven through the identical stream.

    Checks: byte tables, full query signatures, stored-trace sets and
    host placement all equal the reference's, and migration traffic is
    confined to the ``migration`` meter (the reference's reads zero).
    """
    stream, _ = generate_stream(
        workload, num_traces, abnormal_rate, requests_per_minute, seed
    )
    reference = MintFramework(
        deployment=Deployment.sharded(to_shards, network=network),
        auto_warmup_traces=auto_warmup_traces,
    )
    drive(reference, stream)

    elastic = MintFramework(
        deployment=Deployment.resharded(from_shards, to_shards, network=network),
        auto_warmup_traces=auto_warmup_traces,
    )
    trigger = int(len(stream) * trigger_frac)
    coordinator: ReshardCoordinator | None = None
    last_now = 0.0
    for index, (now, trace) in enumerate(stream):
        elastic.process_trace(trace, now)
        last_now = now
        if index == trigger:
            coordinator = ReshardCoordinator(
                elastic.backend, elastic.transport, to_shards
            )
            coordinator.start()
        if coordinator is not None and coordinator.active:
            coordinator.step()
    if coordinator is None:  # pragma: no cover - trigger_frac >= 1 guard
        coordinator = ReshardCoordinator(elastic.backend, elastic.transport, to_shards)
    coordinator.run()
    elastic.finalize(last_now)

    # Ledger attribution and minute buckets legitimately differ (hosts
    # changed shards mid-stream); everything else must match the fresh
    # deployment.
    elastic_print = fingerprint(elastic, stream)
    violations = compare_fingerprints(
        fingerprint(reference, stream),
        elastic_print,
        label="migrated",
        keys=("byte_tables", "query_signature", "stored_trace_ids"),
    )
    violations.extend(placement_violations(elastic.backend))
    if elastic.backend.num_shards != to_shards:
        violations.append(
            f"routing modulus is {elastic.backend.num_shards}, not {to_shards}"
        )
    if reference.migration_bytes != 0:
        violations.append(
            "fresh deployment charged the migration meter "
            f"({reference.migration_bytes} bytes)"
        )
    if coordinator.stats.hosts_moved == 0:
        violations.append("no host moved — the reshard was vacuous")
    elif elastic.migration_bytes == 0:
        violations.append("hosts moved but the migration meter reads zero")
    return ReshardExperimentResult(
        workload=workload.name,
        from_shards=from_shards,
        to_shards=to_shards,
        trace_count=len(stream),
        identical=not violations,
        violations=violations,
        migration=coordinator.stats.as_dict(),
        migration_bytes=elastic.migration_bytes,
        byte_tables=elastic_print["byte_tables"],
    )


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
@dataclass
class FailoverExperimentResult:
    """One shard-chaos run checked against the no-chaos deployment."""

    workload: str
    profile: str
    num_shards: int
    trace_count: int
    converged: bool
    violations: list[str] = field(default_factory=list)
    probed_mid_outage: bool = False
    degraded_mid_outage: bool = False
    permanently_degraded: bool = False
    supervisor: dict = field(default_factory=dict)


def run_failover_experiment(
    workload: Workload,
    profile: ShardChaosProfile | str = "crash_restart",
    num_shards: int = 2,
    num_traces: int = 300,
    abnormal_rate: float = 0.02,
    requests_per_minute: float = 6000.0,
    seed: int = 17,
    auto_warmup_traces: int = 50,
    network: "NetworkDescriptor | None" = None,
    outage_start_frac: float = 0.2,
    outage_end_frac: float = 0.5,
) -> FailoverExperimentResult:
    """Drive a stream through shard chaos and check graceful failover.

    The profile's outage windows are fitted to the stream's duration;
    in the middle of the first crash window the harness runs a query
    sweep over everything ingested so far — those queries must degrade
    (no status better than the no-chaos run's, some strictly worse when
    the down shard held data) and must never raise.  After the stream,
    ``finalize`` replays the parked queues; for recoverable profiles
    the final signature and byte tables must equal the no-chaos run's,
    while a permanent crash must stay degraded (and the parked queue
    must still hold the undeliverable reports rather than lose them).
    """
    if isinstance(profile, str):
        profile = SHARD_CHAOS_PROFILES[profile]
    stream, _ = generate_stream(
        workload, num_traces, abnormal_rate, requests_per_minute, seed
    )
    duration_s = stream[-1][0] if stream else 0.0
    fitted = fit_outages(
        profile, duration_s, start_frac=outage_start_frac, end_frac=outage_end_frac
    )
    crash_windows = [o for o in fitted.outages if o.mode == "crash"]
    probe_at = min(
        ((o.start_s + min(o.end_s, duration_s)) / 2.0 for o in crash_windows),
        default=None,
    )
    recoverable = all(not o.is_permanent for o in fitted.outages)

    baseline = MintFramework(
        deployment=Deployment.sharded(num_shards, network=network),
        auto_warmup_traces=auto_warmup_traces,
    )
    drive(baseline, stream)
    baseline_status = {
        result.trace_id: result.status
        for result in baseline.query_many(t.trace_id for _, t in stream)
    }

    chaotic = MintFramework(
        deployment=Deployment.elastic_sharded(
            num_shards, network=network, shard_chaos=fitted
        ),
        auto_warmup_traces=auto_warmup_traces,
    )
    violations: list[str] = []
    probed = degraded = False
    last_now = 0.0
    for now, trace in stream:
        chaotic.process_trace(trace, now)
        last_now = now
        if probe_at is not None and not probed and now >= probe_at:
            probed = True
            if not chaotic.backend.down_shards():
                violations.append(
                    f"no shard down at the probe point t={now:.2f}s — "
                    "the chaos never fired"
                )
            try:
                for result in chaotic.query_many(
                    t.trace_id for _, t in stream if t.trace_id in baseline_status
                ):
                    want = _STATUS_RANK[baseline_status[result.trace_id]]
                    got = _STATUS_RANK[result.status]
                    if got > want:
                        violations.append(
                            f"mid-outage query of {result.trace_id} answered "
                            f"{result.status}, better than the healthy "
                            f"{baseline_status[result.trace_id]}"
                        )
                    elif got < want:
                        degraded = True
            except Exception as exc:  # noqa: BLE001 - the gate is "never raises"
                violations.append(f"mid-outage query raised {exc!r}")
    chaotic.finalize(last_now)

    supervisor = chaotic.backend.supervisor
    stats = supervisor.stats if supervisor is not None else None
    if stats is None:
        violations.append("no supervisor attached — shard chaos was ignored")
    elif stats.parked == 0:
        violations.append("supervisor parked nothing — the chaos never fired")

    if recoverable:
        violations.extend(
            compare_fingerprints(
                fingerprint(baseline, stream),
                fingerprint(chaotic, stream),
                label="post-replay",
                keys=("byte_tables", "query_signature"),
            )
        )
        if stats is not None and stats.replayed != stats.parked - stats.dropped:
            violations.append(
                f"replayed {stats.replayed} of {stats.parked} parked "
                f"({stats.dropped} dropped) — reports lost"
            )
    permanently_degraded = False
    if not recoverable:
        if supervisor is not None and supervisor.parked_reports == 0:
            violations.append(
                "permanent crash but the redelivery queue is empty — "
                "undeliverable reports were lost or misdelivered"
            )
        trace_ids = [trace.trace_id for _, trace in stream]
        permanently_degraded = query_signature(chaotic, trace_ids) != query_signature(
            baseline, trace_ids
        )
        if not permanently_degraded and (stats is None or stats.parked == 0):
            violations.append("permanent crash left no trace at all")
    return FailoverExperimentResult(
        workload=workload.name,
        profile=fitted.name,
        num_shards=num_shards,
        trace_count=len(stream),
        converged=not violations,
        violations=violations,
        probed_mid_outage=probed,
        degraded_mid_outage=degraded,
        permanently_degraded=permanently_degraded,
        supervisor=stats.as_dict() if stats is not None else {},
    )


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass
class ElasticLoadTestResult:
    """One Fig. 14 load shape under chaos with the autoscaler attached."""

    test: str
    workload: str
    profile: str
    start_shards: int
    final_shards: int
    trace_count: int
    converged: bool
    violations: list[str] = field(default_factory=list)
    scale_events: list[dict] = field(default_factory=list)
    peak_depth: int = 0
    supervisor: dict = field(default_factory=dict)
    migration_bytes: int = 0


def run_elastic_load_test(
    spec: LoadTestSpec,
    workload: Workload,
    policy: AutoscalePolicy | None = None,
    profile: ShardChaosProfile | str = "crash_restart",
    start_shards: int = 2,
    duration_minutes: float = 1.0,
    scale: float = 0.1,
    seed: int = 21,
    auto_warmup_traces: int = 30,
    network: "NetworkDescriptor | None" = None,
    outage_start_frac: float = 0.2,
    outage_end_frac: float = 0.5,
) -> ElasticLoadTestResult:
    """Drive one Fig. 14 load shape with chaos and autoscaling.

    The shard-chaos profile is fitted to the load test's duration, so
    mid-run a shard goes dark and its deliveries park; the parked queue
    depth is exactly the pressure the :class:`Autoscaler` watches, so
    the outage drives a scale-up — resharding (one host per trace)
    while the load test keeps running.  The run must still converge:
    after replay and finalize, the query signature equals a no-chaos,
    no-autoscaler deployment's at ``start_shards`` (topology invariance
    extends to topologies *chosen by the system itself*).
    """
    if isinstance(profile, str):
        profile = SHARD_CHAOS_PROFILES[profile]
    if policy is None:
        # min_shards pins the floor at the starting count: the scenario
        # measures scale-*up* under backlog pressure, and an idle first
        # tick must not scale the chaos victim out of existence before
        # the outage even starts.
        policy = AutoscalePolicy(
            scale_up_depth=4, cooldown_s=2.0, min_shards=start_shards
        )
    limited = restrict_apis(workload, spec.api_count)
    num_traces = _load_test_traces(spec, duration_minutes, scale)
    stream, _ = generate_stream(
        limited,
        num_traces,
        abnormal_rate=0.02,
        requests_per_minute=spec.qps * 60,
        seed=seed,
    )
    fitted = fit_outages(
        profile,
        num_traces / spec.qps,
        start_frac=outage_start_frac,
        end_frac=outage_end_frac,
    )

    baseline = MintFramework(
        deployment=Deployment.sharded(start_shards, network=network),
        auto_warmup_traces=auto_warmup_traces,
    )
    drive(baseline, stream)

    elastic = MintFramework(
        deployment=Deployment.elastic_sharded(
            start_shards, network=network, shard_chaos=fitted
        ),
        auto_warmup_traces=auto_warmup_traces,
    )
    scaler = Autoscaler(framework=elastic, policy=policy)
    last_now = 0.0
    for now, trace in stream:
        elastic.process_trace(trace, now)
        scaler.observe(now)
        last_now = now
    scaler.finish()
    elastic.finalize(last_now)

    violations: list[str] = []
    supervisor = elastic.backend.supervisor
    stats = supervisor.stats if supervisor is not None else None
    if stats is None or stats.parked == 0:
        violations.append("shard chaos never fired — the load test proved nothing")
    if not scaler.events:
        violations.append(
            f"queue depth peaked at {scaler.peak_depth} but no scale event "
            f"fired (scale_up_depth={policy.scale_up_depth})"
        )
    trace_ids = [trace.trace_id for _, trace in stream]
    if query_signature(elastic, trace_ids) != query_signature(baseline, trace_ids):
        violations.append("autoscaled run's answers diverge from the baseline")
    violations.extend(placement_violations(elastic.backend))
    return ElasticLoadTestResult(
        test=spec.name,
        workload=workload.name,
        profile=fitted.name,
        start_shards=start_shards,
        final_shards=elastic.backend.num_shards,
        trace_count=len(stream),
        converged=not violations,
        violations=violations,
        scale_events=[event.as_dict() for event in scaler.events],
        peak_depth=scaler.peak_depth,
        supervisor=stats.as_dict() if stats is not None else {},
        migration_bytes=elastic.migration_bytes,
    )
