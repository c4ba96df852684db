"""The incident harness: fault injected -> RCA flags it, under load.

ROADMAP open item 2's headline question, answered as a measurement: a
fault starts mid-stream on one target service, ingest continues through
the deployment under test (any topology, any chaos profile), and an
analyst-style probe loop periodically queries the incident window and
feeds the reconstructed traces to the RCA suite.  Detection latency is
the simulated time from the first faulty trace entering the system to
the first probe whose RCA top-1 names the target service.

Everything is deterministic: the stream, the fault schedule and the
probe cadence are pure functions of the seed and configuration, and
the wire's chaos is the seeded chaos engine — so a detection-latency
cell is replayable, and the obs bench can gate on the panel existing
*and* detecting, not on a lucky run.

The probes use the public query plane mid-run (``query_many`` over the
recent-trace window, no parameter pull, so probing never pumps the
wire's clock); on a lossy wire the store lags the stream, which is
exactly the effect the panel exists to show — chaos shows up as added
detection latency, not as a different answer.

Since the live analyst plane (PR 10) the probe loop has two modes:
``push`` rides a standing error-only subscription — each accepted push
notification is the analyst's pager, and every ``push_probe_every``-th
one after the fault triggers an RCA probe at the push's wire-time
arrival stamp, and is the default on every deployment; ``poll`` is
the original fixed-cadence loop, kept for side-by-side comparison in
the obs bench.  Observation on or off never changes the answer.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

from repro.net.chaos import CHAOS_PROFILES, LOSSLESS, fit_partitions
from repro.net.transport import CHAOS_WIRE
from repro.rca.tracerca import TraceRCA
from repro.rca.views import views_from_cursor
from repro.transport import Deployment
from repro.workloads import WORKLOAD_BUILDERS
from repro.workloads.faults import FaultInjector, FaultSpec, FaultType
from repro.workloads.generator import WorkloadDriver
from repro.workloads.specs import Workload

#: The panel's default grid: two topologies x three chaos profiles.
DEFAULT_TOPOLOGIES = ("single", "sharded-2")
DEFAULT_PROFILES = ("lossless", "drop", "delay")

#: How many recently ingested trace ids a probe queries over (the
#: analyst's incident window: enough pre-fault traffic for RCA's
#: normal-contrast mining, bounded so probes stay cheap).
DEFAULT_PROBE_WINDOW = 200


@dataclass(frozen=True)
class IncidentProbe:
    """One analyst probe: when it ran and what RCA said."""

    time_s: float
    traces_seen: int
    flagged: str | None
    hit: bool

    def as_dict(self) -> dict[str, Any]:
        return {
            "time_s": round(self.time_s, 6),
            "traces_seen": self.traces_seen,
            "flagged": self.flagged,
            "hit": self.hit,
        }


@dataclass
class IncidentResult:
    """One cell of the detection-latency panel."""

    workload: str
    topology: str
    profile: str
    target_service: str
    fault_type: str
    fault_time_s: float
    detected_time_s: float | None
    detection_latency_s: float | None
    detected: bool
    faulty_traces: int
    traces: int
    probe_mode: str = "push"
    probes: list[IncidentProbe] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "topology": self.topology,
            "profile": self.profile,
            "probe_mode": self.probe_mode,
            "target_service": self.target_service,
            "fault_type": self.fault_type,
            "fault_time_s": round(self.fault_time_s, 6),
            "detected_time_s": (
                None if self.detected_time_s is None
                else round(self.detected_time_s, 6)
            ),
            "detection_latency_s": (
                None if self.detection_latency_s is None
                else round(self.detection_latency_s, 6)
            ),
            "detected": self.detected,
            "faulty_traces": self.faulty_traces,
            "traces": self.traces,
            "probes": [probe.as_dict() for probe in self.probes],
        }


def incident_deployment(topology: str, profile: str, duration_s: float) -> Deployment:
    """Build the deployment one panel cell runs on.

    Every cell rides :data:`~repro.net.transport.CHAOS_WIRE` (batching
    plus a little latency) so the wire's mechanics are on the measured
    path even in the lossless cell — profile differences, not batching
    differences, are what the panel compares.  Partition windows are
    fitted into the stream's lifetime.
    """
    chaos = LOSSLESS if profile == "lossless" else CHAOS_PROFILES[profile]
    chaos = fit_partitions(chaos, duration_s)
    wire = CHAOS_WIRE.with_chaos(chaos)
    if topology == "single":
        return Deployment.single(network=wire)
    if topology.startswith("sharded-"):
        return Deployment.sharded(int(topology.split("-", 1)[1]), network=wire)
    raise ValueError(f"unknown incident topology {topology!r}")


def _build_incident_stream(
    workload: Workload,
    num_traces: int,
    fault_start_frac: float,
    fault_type: FaultType,
    fault_rate: float,
    seed: int,
    requests_per_minute: float,
):
    """Deterministic stream with a mid-stream single-service incident.

    Returns ``(stream, target_service, fault_time_s, faulty_ids)``.
    The target is the most frequently touched *non-universal* service
    after the fault start (ties broken by name): high support so RCA's
    support x confidence mining has evidence, but not the root service
    every trace touches — that target would be trivially nameable.
    """
    driver = WorkloadDriver(
        workload, seed=seed, requests_per_minute=requests_per_minute
    )
    stream = list(driver.traces(num_traces))
    fault_index = max(1, min(num_traces - 1, int(num_traces * fault_start_frac)))
    post_fault = len(stream) - fault_index
    support: Counter[str] = Counter()
    for _, trace in stream[fault_index:]:
        support.update(trace.services)
    candidates = [svc for svc in support if support[svc] < post_fault] or list(support)
    target = max(sorted(candidates), key=lambda svc: support[svc])
    injector = FaultInjector(seed=seed ^ 0x77)
    rng = random.Random(seed ^ 0x5150)
    fault_time = stream[fault_index][0]
    faulty_ids: set[str] = set()
    for i in range(fault_index, num_traces):
        now, trace = stream[i]
        if target in trace.services and rng.random() < fault_rate:
            stream[i] = (now, injector.inject(trace, FaultSpec(fault_type, target)))
            faulty_ids.add(trace.trace_id)
    return stream, target, fault_time, faulty_ids


def run_incident(
    workload_name: str = "onlineboutique",
    topology: str = "single",
    profile: str = "lossless",
    num_traces: int = 320,
    fault_start_frac: float = 0.35,
    fault_type: FaultType = FaultType.CODE_EXCEPTION,
    fault_rate: float = 0.65,
    probe_every: int = 30,
    probe_window: int = DEFAULT_PROBE_WINDOW,
    probe_mode: str = "push",
    push_probe_every: int = 5,
    seed: int = 11,
    requests_per_minute: float = 6000.0,
    deployment: Deployment | None = None,
) -> IncidentResult:
    """Run one incident cell end to end and measure detection latency.

    In ``push`` mode the analyst holds a standing error-only
    subscription: every ``push_probe_every``-th accepted push after the
    fault triggers an RCA probe at the push's arrival time — the pager
    rings, the analyst looks.  In ``poll`` mode the original loop
    re-runs every ``probe_every`` ingested traces.  Either way, if no
    mid-run probe detects (a lossy wire can keep the store behind the
    stream for the whole run), a final probe after ``finalize`` runs
    against the converged store — detection then costs the full
    drain-to-convergence latency, which is the honest number.
    """
    from repro.framework import MintFramework
    from repro.query.spec import QuerySpec

    workload = WORKLOAD_BUILDERS[workload_name]()
    stream, target, fault_time, faulty_ids = _build_incident_stream(
        workload, num_traces, fault_start_frac, fault_type, fault_rate,
        seed, requests_per_minute,
    )
    duration_s = stream[-1][0] if stream else 0.0
    if deployment is None:
        deployment = incident_deployment(topology, profile, duration_s)
    if probe_mode not in ("push", "poll"):
        raise ValueError(f"unknown probe_mode {probe_mode!r}")
    framework = MintFramework(deployment=deployment)
    rca = TraceRCA()
    recent: deque[str] = deque(maxlen=probe_window)
    probes: list[IncidentProbe] = []
    detected_time: float | None = None
    last_now = 0.0
    seen_traces = 0
    pushes_after_fault = 0

    def probe(now: float, seen: int) -> None:
        nonlocal detected_time
        views = views_from_cursor(framework.query_many(list(recent)))
        flagged = rca.top1(views)
        hit = flagged == target
        probes.append(
            IncidentProbe(time_s=now, traces_seen=seen, flagged=flagged, hit=hit)
        )
        if hit and detected_time is None:
            detected_time = now

    if probe_mode == "push":
        # The pager: a standing error-only query.  The callback fires on
        # each accepted push at its wire-time arrival — on a lossy wire
        # the pushes themselves lag, and that lag honestly lands in the
        # measured detection latency.
        def on_push(note, now: float) -> None:
            nonlocal pushes_after_fault
            if detected_time is not None or now < fault_time:
                return
            pushes_after_fault += 1
            if pushes_after_fault % push_probe_every == 0:
                probe(now, seen_traces)

        framework.subscribe(QuerySpec.where(error_only=True), on_push=on_push)

    for i, (now, trace) in enumerate(stream):
        seen_traces = i + 1
        framework.process_trace(trace, now)
        recent.append(trace.trace_id)
        last_now = now
        if (
            probe_mode == "poll"
            and detected_time is None
            and now >= fault_time
            and (i + 1) % probe_every == 0
        ):
            probe(now, i + 1)
    framework.finalize(last_now)
    if detected_time is None:
        # Post-convergence probe at the wire's (possibly drain-advanced)
        # clock — a lossy wire's forced delivery takes simulated time,
        # and that time is part of the detection latency.
        probe(max(last_now, framework.transport.wire_now()), len(stream))
    framework.close()
    return IncidentResult(
        workload=workload_name,
        topology=topology,
        profile=profile,
        target_service=target,
        fault_type=fault_type.value if hasattr(fault_type, "value") else str(fault_type),
        fault_time_s=fault_time,
        detected_time_s=detected_time,
        detection_latency_s=(
            None if detected_time is None else max(0.0, detected_time - fault_time)
        ),
        detected=detected_time is not None,
        faulty_traces=len(faulty_ids),
        traces=len(stream),
        probe_mode=probe_mode,
        probes=probes,
    )


def detection_latency_panel(
    workload_name: str = "onlineboutique",
    topologies: tuple[str, ...] = DEFAULT_TOPOLOGIES,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    num_traces: int = 320,
    seed: int = 11,
    **kwargs: Any,
) -> list[IncidentResult]:
    """The fig15-style panel: every (topology, chaos profile) cell."""
    return [
        run_incident(
            workload_name=workload_name,
            topology=topology,
            profile=profile,
            num_traces=num_traces,
            seed=seed,
            **kwargs,
        )
        for topology in topologies
        for profile in profiles
    ]
