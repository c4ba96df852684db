"""The storm harness: analyst query storms against live ingest.

ROADMAP item 2's load half, answered as a measurement: heavy fig14-T5
ingest (1000 requests/s, 5 APIs) runs through a networked deployment
while a *storm* of analyst point queries fires concurrently from a
deterministic seeded schedule
(:meth:`~repro.workloads.queries.QueryWorkload.storm_schedule`) at a
sustained target QPS.  Each query's reported latency includes the wire:
the request/response round trip is costed on the deployment's own
:class:`~repro.net.transport.NetworkDescriptor` (two propagation
latencies) on top of the measured execution wall time — today only
*reports* traverse the simulated wire, so the query path's wire share
is modeled as an overlay rather than scheduled traffic, which keeps the
storm read-only by construction.

That read-only property is the harness's convergence gate: a storm run
must leave the :data:`CONVERGENCE_KEYS` sections of the shared
fingerprint (:mod:`repro.verify`) — byte tables, per-minute
meter series, the full query signature — bit-identical to a quiet
(storm-free, subscription-free) run of the same stream: analyst load,
at any QPS, perturbs nothing the paper's figures measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.net.transport import CHAOS_WIRE
from repro.obs.metrics import LatencyStats
from repro.query.spec import QuerySpec
from repro.sim.experiment import generate_stream
from repro.sim.loadtest import restrict_apis
from repro.transport import Deployment
from repro.verify import fingerprint
from repro.workloads import WORKLOAD_BUILDERS
from repro.workloads.queries import QueryWorkload

#: The fingerprint sections a storm run must share with its quiet
#: control.  The ``push`` and ``retransmit`` meters are outside the
#: fingerprint altogether — separated traffic may differ; the figures
#: may not.
CONVERGENCE_KEYS = ("byte_tables", "meter_series", "query_signature")


@dataclass
class StormResult:
    """One storm run: sustained-QPS evidence plus the convergence oracle."""

    workload: str
    topology: str
    traces: int
    duration_s: float
    storm_qps_target: float
    issued: int
    sim_qps: float
    wall_capacity_qps: float
    exec_total_s: float
    p50_ms: float
    p99_ms: float
    wire_p50_ms: float
    wire_p99_ms: float
    statuses: dict[str, int]
    push_bytes: int
    subscription: dict[str, Any] | None
    fingerprint: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Report-ready fields (the bulky fingerprint stays out)."""
        return {
            "workload": self.workload,
            "topology": self.topology,
            "traces": self.traces,
            "duration_s": round(self.duration_s, 6),
            "storm_qps_target": self.storm_qps_target,
            "issued": self.issued,
            "sim_qps": round(self.sim_qps, 1),
            "wall_capacity_qps": round(self.wall_capacity_qps, 1),
            "exec_total_s": round(self.exec_total_s, 6),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "wire_p50_ms": round(self.wire_p50_ms, 4),
            "wire_p99_ms": round(self.wire_p99_ms, 4),
            "statuses": dict(self.statuses),
            "push_bytes": self.push_bytes,
            "subscription": self.subscription,
        }


def storm_deployment(topology: str) -> Deployment:
    """The deployment one storm cell runs on — always a real wire
    (:data:`~repro.net.transport.CHAOS_WIRE`), so batching and latency
    sit on both the ingest path and the modeled query round trip."""
    if topology == "single":
        return Deployment.single(network=CHAOS_WIRE)
    if topology.startswith("sharded-"):
        return Deployment.sharded(int(topology.split("-", 1)[1]), network=CHAOS_WIRE)
    raise ValueError(f"unknown storm topology {topology!r}")


def run_storm(
    workload_name: str = "onlineboutique",
    topology: str = "single",
    num_traces: int = 600,
    ingest_qps: float = 1000.0,
    api_count: int = 5,
    storm_qps: float = 1000.0,
    seed: int = 23,
    subscribe_errors: bool = True,
    deployment: Deployment | None = None,
) -> StormResult:
    """Drive one incident-loop storm cell end to end.

    ``storm_qps=0`` is the quiet control: identical ingest, no analyst
    queries, no subscription — its fingerprint is what a storm run's
    must match.  ``subscribe_errors`` keeps one standing error query
    live through the storm, so the push plane is exercised under
    analyst load too (its traffic lands on the ``push`` meter, which
    the fingerprint deliberately excludes).
    """
    from repro.framework import MintFramework

    workload = restrict_apis(WORKLOAD_BUILDERS[workload_name](), api_count)
    stream, _ = generate_stream(
        workload,
        num_traces,
        abnormal_rate=0.02,
        requests_per_minute=ingest_qps * 60.0,
        seed=seed,
    )
    duration_s = stream[-1][0] if stream else 0.0
    if deployment is None:
        deployment = storm_deployment(topology)
    framework = MintFramework(deployment=deployment)
    subscription = None
    if subscribe_errors and storm_qps > 0:
        subscription = framework.subscribe(QuerySpec.where(error_only=True))

    schedule = (
        QueryWorkload(seed=seed).storm_schedule(
            storm_qps, int(duration_s * storm_qps), seed
        )
        if storm_qps > 0 and duration_s > 0
        else []
    )
    targets = Random(f"storm-targets:{seed}")
    net = framework.deployment.network
    # The modeled round trip: request out, response back — two
    # propagation delays.
    wire_s = 2.0 * (net.latency_s if net is not None else 0.0)

    ingested: list[str] = []
    totals = LatencyStats("storm_query")
    wires = LatencyStats("storm_wire")
    exec_total = 0.0
    statuses: dict[str, int] = {}

    def issue_query() -> None:
        nonlocal exec_total
        trace_id = targets.choice(ingested)
        started = time.perf_counter()
        result = framework.query(trace_id)
        exec_s = time.perf_counter() - started
        exec_total += exec_s
        wires.record(wire_s)
        totals.record(wire_s + exec_s)
        statuses[str(result.status)] = statuses.get(str(result.status), 0) + 1

    arrival = 0
    last_now = 0.0
    for now, trace in stream:
        while arrival < len(schedule) and schedule[arrival] <= now:
            arrival += 1
            if ingested:
                issue_query()
        framework.process_trace(trace, now)
        ingested.append(trace.trace_id)
        last_now = now
    # Arrivals scheduled after the last ingest event still fire — the
    # storm sustains through the stream's whole duration.
    while arrival < len(schedule):
        arrival += 1
        if ingested:
            issue_query()
    framework.finalize(last_now)

    run_print = fingerprint(framework, stream)
    issued = totals.count
    result = StormResult(
        workload=workload_name,
        topology=topology,
        traces=len(stream),
        duration_s=duration_s,
        storm_qps_target=storm_qps,
        issued=issued,
        sim_qps=issued / duration_s if duration_s > 0 else 0.0,
        wall_capacity_qps=issued / exec_total if exec_total > 0 else 0.0,
        exec_total_s=exec_total,
        p50_ms=totals.p50 * 1000.0,
        p99_ms=totals.p99 * 1000.0,
        wire_p50_ms=wires.p50 * 1000.0,
        wire_p99_ms=wires.p99 * 1000.0,
        statuses=statuses,
        push_bytes=framework.push_bytes,
        subscription=(
            None if subscription is None
            else {
                "spec": subscription.spec.describe(),
                "hits": len(subscription.hit_ids),
            }
        ),
        fingerprint=run_print,
    )
    framework.close()
    return result


__all__ = ["CONVERGENCE_KEYS", "StormResult", "run_storm", "storm_deployment"]
