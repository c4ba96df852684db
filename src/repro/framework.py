"""The Mint framework — the system under test, behind the common
:class:`~repro.baselines.base.TracingFramework` interface.

(It is *compared against* the baselines but is not one of them, so it
sits at the package root.)

Deploys one agent + collector per application node (nodes are
discovered from incoming spans), a backend plane built from a
:class:`~repro.transport.deployment.Deployment` descriptor, and the
descriptor's transport — the in-process
:class:`~repro.transport.transport.LocalTransport`, or the simulated
network plane when ``deployment.network`` is set — charging the
network and storage meters at the wire.  Storage is whatever the
backend's storage engine actually persists — patterns, Bloom filters
and sampled parameters.

There is no sharded subclass: ``MintFramework(deployment=
Deployment.sharded(4))`` runs the identical agent/collector fleet over
four backend shards, with per-shard ledgers charged by the same
transport.  Topology never perturbs parsing or sampling — query
results and byte tables are invariant across deployments by contract.

Queries go through the unified query plane: ``execute`` accepts any
:class:`~repro.query.spec.QuerySpec` (point, batch, predicate) and the
backend plane compiles it into shard-fanout plans with the Bloom
pre-screen pushed down; ``query``/``query_many`` are the point/batch
shorthands.  Every answer is the one
:class:`~repro.query.result.QueryResult` model — exact reconstruction,
approximate trace, or miss.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Callable, Iterable

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.agent.samplers import Sampler
from repro.backend.sharded import ShardSummary
from repro.baselines.base import TracingFramework
from repro.model.span import Span
from repro.model.trace import Trace
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.query.cursor import QueryCursor
from repro.query.result import QueryResult
from repro.query.spec import QuerySpec
from repro.sim.meters import OverheadLedger, ShardLedgerRow
from repro.transport import Deployment
from repro.transport.wire import MIGRATION, PUSH, RETRANSMIT

SamplerFactory = Callable[[], Sampler]


class MintFramework(TracingFramework):
    """The full Mint deployment as one comparable framework.

    ``deployment`` selects the topology (default: the single reference
    backend).  A sharded deployment additionally keeps one
    :class:`OverheadLedger` per shard, charged by the transport in
    lockstep with the deployment-wide ledger, giving the per-shard
    MB/min panels of the scaling experiments.
    """

    name = "Mint"

    def __init__(
        self,
        config: MintConfig | None = None,
        extra_sampler_factories: list[SamplerFactory] | None = None,
        auto_warmup_traces: int = 100,
        deployment: Deployment | None = None,
    ) -> None:
        super().__init__()
        self.deployment = deployment if deployment is not None else Deployment.single()
        self.config = config or MintConfig()
        self._extra_factories = list(extra_sampler_factories or [])
        self._collectors: dict[str, MintCollector] = {}
        self._now = 0.0
        self._warmed_up = False
        self._auto_warmup_traces = auto_warmup_traces
        self._warmup_queue: list[Trace] = []
        self.shard_ledgers = [
            OverheadLedger() for _ in range(self.deployment.ledger_count)
        ]
        # The self-observability plane: one live registry per framework
        # (benches run reference and candidate side by side — a global
        # registry would cross-contaminate), or the shared null observer
        # when the deployment turns it off.  Observability on vs off is
        # bit-identical on byte tables, meter series and query
        # signatures — the obs bench gates it.
        self.observer: Observer = (
            Observer() if self.deployment.observability else NULL_OBSERVER
        )
        self.backend = self.deployment.build_backend(self.config)
        # The transport is the deployment's only metering point: it
        # claims the backend's notify meter and charges report bytes,
        # control pings and storage growth on every attached ledger.
        # The descriptor picks the wire — in-process LocalTransport, or
        # the simulated network plane when ``deployment.network`` is set.
        self.transport = self.deployment.build_transport(
            backend=self.backend,
            ledger=self.ledger,
            clock=lambda: self._now,
            shard_ledgers=self.shard_ledgers,
        )
        # Wire the observer through every instrumented seam (transport,
        # backend query path, per-engine cold tiers); the parse-stage
        # instruments are cached here so the ingest hot path pays one
        # attribute check per trace when observability is off.
        self.backend.bind_observer(self.observer)
        self.transport.bind_observer(self.observer)
        for engine in self.backend.storage_engines():
            engine.cold.bind_observer(self.observer)
        self._obs_parse_hist = self.observer.stage_histogram("parse")
        self._obs_traces = self.observer.counter("mint_ingest_traces", plane="ingest")
        self._obs_subtraces = self.observer.counter(
            "mint_ingest_subtraces", plane="ingest"
        )
        self._obs_sampled = self.observer.counter(
            "mint_ingest_sampled_traces", plane="ingest"
        )
        # The concurrent ingest plane (deployment.workers > 0) moves the
        # parse/sample hot path onto worker lanes; the framework stays
        # the single writer — every report still crosses self.transport
        # here, in sequential order, at the plane's apply barriers.
        # The live query plane (standing-query subscriptions) is built
        # lazily on the first ``subscribe`` — a framework without
        # analysts pays nothing, and the on_sampled / push-sink seams
        # stay unclaimed for other layers to observe.
        self._live = None
        self._plane = None
        if self.deployment.is_parallel:
            from repro.concurrent.plane import ParallelIngestPlane

            self._plane = ParallelIngestPlane(
                backend=self.backend,
                transport=self.transport,
                config=self.config,
                workers=self.deployment.workers,
                mode=self.deployment.worker_mode,
                ingest_epoch=self.deployment.ingest_epoch,
                set_now=self._set_now,
                sampler_factories=self._extra_factories,
            )
            self._plane.bind_observer(self.observer)
        if self.deployment.is_sharded:
            self.name = f"Mint-Sharded({self.deployment.num_shards})"
        if self.backend.supervisor is not None:
            # The failover supervisor stamps outage detection and
            # backoff probes in wire time, so parked reports replay at
            # honest simulated instants on any transport.
            self.backend.supervisor.bind_clock(self.transport.wire_now)
            self.backend.supervisor.bind_observer(self.observer)
        if self.deployment.is_parallel:
            self.name += (
                f"+{self.deployment.workers}w-{self.deployment.worker_mode}"
            )

    def _set_now(self, now: float) -> None:
        """Clock hook the concurrent plane drives during epoch replay."""
        self._now = now

    # ------------------------------------------------------------------
    # Warm-up (paper Section 3.2.1 offline stage)
    # ------------------------------------------------------------------
    def warm_up(self, traces: Iterable[Trace]) -> None:
        """Run the offline warm-up on sampled raw traces.

        Spans are routed to their node's agent; each agent builds its
        attribute parsers from its local sample.  Warm-up happens before
        any metering — the paper treats it as an offline bootstrap.
        """
        with self.observer.span("warm_up"):
            if self._plane is not None:
                self._plane.warm_up(traces)
            else:
                per_node: dict[str, list[Span]] = {}
                for trace in traces:
                    for span in trace.spans:
                        per_node.setdefault(span.node, []).append(span)
                for node, spans in per_node.items():
                    self._collector_for(node).agent.warm_up(spans)
        self._warmed_up = True

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def process_trace(self, trace: Trace, now: float = 0.0) -> None:
        self._now = now
        if not self._warmed_up:
            self._warmup_queue.append(trace)
            if len(self._warmup_queue) >= self._auto_warmup_traces:
                self._drain_warmup_queue()
            return
        self._process_online(trace, now)

    def _drain_warmup_queue(self) -> None:
        queued = self._warmup_queue
        self._warmup_queue = []
        self.warm_up(queued)
        for trace in queued:
            self._process_online(trace, self._now)

    def _process_online(self, trace: Trace, now: float) -> None:
        if self._plane is not None:
            if self.observer.enabled:
                # Trace/subtrace ingest counts stay parent-side under
                # parallel ingest (lanes never touch the registry); the
                # parse stage itself runs on the lanes and is covered
                # by the plane's epoch-barrier histogram instead.
                self._obs_traces.inc()
                self._obs_subtraces.inc(len({span.node for span in trace.spans}))
            # Notifications and storage syncs run inside the plane's
            # apply barrier, in this exact per-trace schedule.
            self._plane.submit(trace, now)
            return
        observed = self.observer.enabled
        parse_start = perf_counter() if observed else 0.0
        sampled_on: list[str] = []
        subtraces = 0
        for sub_trace in trace.sub_traces():
            subtraces += 1
            collector = self._collector_for(sub_trace.node)
            result = collector.process(sub_trace, now)
            if result.sampled:
                sampled_on.append(sub_trace.node)
        if observed:
            # The parse stage covers parse/intern/sample only — the
            # notification fan-out and storage sync below are metered at
            # their own seams (transport notify counters, storage gauges).
            self._obs_parse_hist.observe(max(0.0, perf_counter() - parse_start))
            self._obs_traces.inc()
            self._obs_subtraces.inc(subtraces)
            if sampled_on:
                self._obs_sampled.inc()
        for node in sampled_on:
            self.backend.notify_sampled(trace.trace_id, origin_node=node)
        self.transport.sync_storage()

    def finalize(self, now: float = 0.0) -> None:
        """Flush warm-up queue, pattern reports, Bloom filters, params.

        A networked transport is then drained to quiescence — pending
        batches flushed, in-flight retries delivered and acked — before
        the final storage sync, so queries after ``finalize`` always
        see the converged store.  A standing query's raising ``on_push``
        callback is re-raised only after that sync, so the store and
        the ledgers are complete either way.
        """
        self._now = now
        if not self._warmed_up and self._warmup_queue:
            self._drain_warmup_queue()
        if self._plane is not None:
            self._plane.flush_collectors(now)
        else:
            for collector in self._collectors.values():
                collector.flush(now)
        self.transport.drain()
        # A shard supervisor replays its parked redelivery queues here —
        # after the wire quiesced (so replays are not interleaved with
        # in-flight traffic) and before the final storage sync (so the
        # recovered bytes are metered).  Without one this is a no-op.
        self.backend.settle()
        if self._live is not None:
            # The standing-query catch-up sweep runs against the settled
            # store, then its pushes are drained through the wire — so a
            # finalized subscription's hit set equals the post-hoc batch
            # query by construction.
            self._live.settle()
            self.transport.drain()
        self.transport.sync_storage()
        if self._live is not None and self._live.callback_error is not None:
            raise self._live.callback_error

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> QueryCursor:
        """Run one declarative spec through the backend's planner.

        This overrides the base engine with the real thing: shard-aware
        plans, the OR'd Bloom pre-screen pushed down per lookup, and the
        retroactive parameter pull when ``spec.pull_params`` is set.
        """
        self._quiesce()
        return self.backend.execute(spec)

    def query(self, trace_id: str) -> QueryResult:
        """Point lookup: exact reconstruction, approximate trace, or miss.

        Returns the full :class:`QueryResult` — status plus payloads —
        for any deployment topology.
        """
        self._quiesce()
        return self.backend.query(trace_id)

    def query_many(self, trace_ids: Iterable[str]) -> QueryCursor:
        """Batch lookup: one plan over every id, repeats served from its memo."""
        self._quiesce()
        return self.backend.query_many(trace_ids)

    def _quiesce(self) -> None:
        """Apply the concurrent plane's partial epoch before a read.

        Queries mid-run must observe a complete prefix of the ingest
        stream — exactly what the single-threaded loop guarantees — so
        a parallel deployment barriers its lanes first.  A no-op
        everywhere else."""
        if self._plane is not None:
            self._plane.quiesce()

    def stored_trace_ids(self) -> set[str]:
        self._quiesce()
        return set(self.backend.storage.params)

    # ------------------------------------------------------------------
    # Live query plane (standing-query subscriptions)
    # ------------------------------------------------------------------
    def subscribe(self, spec: QuerySpec, on_push=None):
        """Register ``spec`` as a standing query; returns the
        :class:`~repro.live.subscription.Subscription` handle.

        New sampled traces matching the spec stream to the handle as
        push notifications — over the simulated wire (dedicated
        ``push::`` links, the separate ``push`` meter) on a networked
        deployment, synchronously in-process otherwise.  The handle's
        accumulated hit set after :meth:`finalize` is bit-identical to
        running the same spec through :meth:`execute`.
        """
        return self._live_plane().subscribe(spec, on_push=on_push)

    def unsubscribe(self, sub) -> None:
        """Deactivate one standing query (handle or subscription id)."""
        self._live_plane().unsubscribe(sub)

    def _live_plane(self):
        """The lazily built live query plane (one per framework)."""
        if self._live is None:
            from repro.live.plane import LiveQueryPlane

            d = self.deployment
            # Time-window specs may only commit mid-stream when nothing
            # can still be in flight at evaluation time: reports queued
            # on a latent wire, parked by shard chaos, or buffered in
            # worker lanes could all move a trace's reconstructed
            # envelope after an eager push — and pushes are
            # irrevocable.  Everything else streams on any topology.
            eager_time_range = (
                d.workers == 0
                and d.shard_chaos is None
                and (d.network is None or d.network.is_instantaneous)
            )
            self._live = LiveQueryPlane(
                self.backend,
                self.transport,
                observer=self.observer,
                eager_time_range=eager_time_range,
            )
        return self._live

    def live_stats(self) -> dict | None:
        """The live plane's counters, or None before any ``subscribe``."""
        return self._live.stats() if self._live is not None else None

    @property
    def push_bytes(self) -> int:
        """Standing-query push traffic, confined to the ``push`` meter.

        Streaming matches to analysts is real network work, but it
        must never perturb the fig02/fig11 byte tables — the same
        separation discipline as :attr:`retransmit_bytes` and
        :attr:`migration_bytes`.  Always 0 without subscriptions.
        """
        return self.transport.meters[PUSH.meter].total_bytes

    def close(self) -> None:
        """Release run resources (worker lanes); idempotent.

        Single-threaded deployments hold nothing, so this is a no-op
        there; parallel ones stop their lanes.  Harnesses that build
        many frameworks in a loop must call this (or results stay
        correct but threads/processes linger until GC)."""
        if self._plane is not None:
            self._plane.shutdown()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _collector_for(self, node: str) -> MintCollector:
        collector = self._collectors.get(node)
        if collector is not None:
            return collector
        agent = MintAgent(
            node=node,
            config=self.config,
            extra_samplers=[factory() for factory in self._extra_factories],
        )
        collector = MintCollector(
            agent=agent,
            transport=self.transport,
            config=self.config,
        )
        self._collectors[node] = collector
        self.backend.register_collector(collector)
        return collector

    # ------------------------------------------------------------------
    # Network-plane panels (zero / None for the in-process wire)
    # ------------------------------------------------------------------
    @property
    def retransmit_bytes(self) -> int:
        """Redundant wire bytes (retransmissions + chaos duplicates).

        Charged on the network plane's separate retransmit meter, never
        on the network meter — the fig02/fig11 byte tables are loss-
        invariant by construction.  Always 0 on ``LocalTransport``.
        """
        return self.transport.meters[RETRANSMIT].total_bytes

    @property
    def migration_bytes(self) -> int:
        """Reshard traffic, confined to the wire's migration meter.

        Moving a host's stored state between shards is real network
        work, but it must never perturb the fig02/fig11 byte tables —
        the same separation discipline as :attr:`retransmit_bytes`.
        Always 0 until a reshard runs.
        """
        return self.transport.meters[MIGRATION.meter].total_bytes

    def net_stats(self) -> dict | None:
        """The network plane's delivery metrics, when one is deployed."""
        return self.transport.stats_summary()

    # ------------------------------------------------------------------
    # Observability plane
    # ------------------------------------------------------------------
    def obs_report(self, deterministic: bool = False) -> dict:
        """One structured snapshot of every plane's panels.

        Unifies the ad-hoc stats surfaces — ledger totals,
        ``net_stats()``, ``elastic_stats()``, ``cold_stats()``, the
        query plane's cumulative :class:`~repro.query.planner.PlanStats`
        and per-shard rows — with the live metrics registry under one
        schema.  ``deterministic=True`` strips wall-clock durations
        (machine noise) but keeps their counts, yielding a snapshot
        that is bit-identical across two identical seeded runs.
        """
        from repro.obs.report import build_report

        return build_report(self, deterministic=deterministic)

    def obs_prometheus(self) -> str:
        """The registry as Prometheus-style text exposition (empty when
        the deployment disabled observability)."""
        from repro.obs.export import render_prometheus

        if not self.observer.enabled:
            return ""
        return render_prometheus(self.observer.registry)

    def obs_json(self, deterministic: bool = False, indent: int | None = 2) -> str:
        """The :meth:`obs_report` snapshot as canonical JSON."""
        from repro.obs.export import report_to_json

        return report_to_json(
            self.obs_report(deterministic=deterministic), indent=indent
        )

    # ------------------------------------------------------------------
    # Cold tier (tiered storage)
    # ------------------------------------------------------------------
    def compact(self, policy=None, now: float | None = None):
        """Seal cold storage segments into compressed blocks.

        Runs one :func:`~repro.cold.compactor.compact_engine` pass per
        backend engine (per shard when sharded) under ``policy``
        (default :class:`~repro.cold.ColdPolicy`), then syncs storage
        so the physical meter sees the new split.  Safe at any point of
        a run: queries read through seal boundaries and the logical
        byte tables never move.  Returns the per-engine
        :class:`~repro.cold.CompactionStats`.  ``now`` is accepted for
        positional callers and unused: the policy ages by recency.
        """
        self._quiesce()
        stats = self.backend.compact_cold(policy)
        self.transport.sync_storage()
        return stats

    @property
    def physical_storage_bytes(self) -> int:
        """The physical side of the storage split: hot bytes at their
        charged size plus sealed blocks at their compressed size.
        Equals the logical ``storage_bytes`` until a compaction runs."""
        return self.backend.physical_storage_bytes()

    def cold_stats(self) -> dict:
        """Cold-tier counters (codec, blocks, sealed/physical bytes)."""
        self._quiesce()
        return self.backend.cold_stats()

    # ------------------------------------------------------------------
    # Elastic operations (sharded deployments only)
    # ------------------------------------------------------------------
    def reshard(self, to_shards: int | None = None):
        """Run one live reshard to ``to_shards`` (default: the
        deployment descriptor's ``reshard_to`` target) and return its
        :class:`~repro.elastic.reshard.MigrationStats`.

        The uninterleaved convenience: harnesses that migrate host by
        host between ingest batches drive a
        :class:`~repro.elastic.reshard.ReshardCoordinator` directly.
        """
        from repro.elastic.reshard import ReshardCoordinator

        target = to_shards if to_shards is not None else self.deployment.reshard_to
        if target is None:
            raise ValueError(
                "no reshard target: pass to_shards or build the framework "
                "from Deployment.sharded(n, reshard_to=m)"
            )
        if self.deployment.is_parallel:
            # Lanes do not compose with resharding: raise the descriptor's error.
            replace(self.deployment, reshard_to=target)
        coordinator = ReshardCoordinator(self.backend, self.transport, target)
        return coordinator.run()

    def elastic_stats(self) -> dict | None:
        """Failover-supervisor counters, when the deployment has one."""
        if self.backend.supervisor is None:
            return None
        return self.backend.supervisor.stats.as_dict()

    # ------------------------------------------------------------------
    # Per-shard panels (empty for the single deployment)
    # ------------------------------------------------------------------
    def shard_summaries(self) -> list[ShardSummary]:
        """Per-shard storage tables from the backend."""
        if not self.deployment.is_sharded:
            return []
        self._quiesce()
        return self.backend.shard_summaries()

    def shard_meter_rows(self) -> list[ShardLedgerRow]:
        """Per-shard network/storage totals (physical, not deduplicated).

        Summed shard storage can exceed the deployment ledger's figure:
        the gap is exactly the merge layer's replicated pattern bytes
        (``backend.merged.replicated_pattern_bytes()``).
        """
        return [
            ShardLedgerRow(
                shard=i,
                network_bytes=ledger.network.total_bytes,
                storage_bytes=ledger.storage.total_bytes,
            )
            for i, ledger in enumerate(self.shard_ledgers)
        ]
