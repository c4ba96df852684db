"""The shared backend contract of the deployment plane.

:class:`BackendPlane` hoists everything the single and sharded backends
used to duplicate — the collector registry, report-type dispatch, the
idempotent fleet-wide sampling notification, and the query path with
its retroactive parameter pull — into one base class.  A concrete
backend supplies only its topology: which storage engine owns a node's
reports (:meth:`BackendPlane._engine_for`), an optional post-store hook
(:meth:`BackendPlane._observe_stored`, where the sharded merge layer
folds reports into its global state), and ``storage`` / ``querier``
attributes shaped like the reference single-backend pair.

The single backend is the degenerate routing case: every node maps to
the one engine.  That is what keeps the pinned contract
``ShardedBackend(num_shards=1) == MintBackend`` structural rather than
coincidental — both run the exact same code here, differing only in
`_engine_for`.
"""

from __future__ import annotations

import abc
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport, Report
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.query.cursor import QueryCursor
from repro.query.planner import PlanStats, QueryPlanner
from repro.query.result import QueryResult
from repro.query.spec import QuerySpec
from repro.transport.wire import NOTIFY_MESSAGE_BYTES, NotifyMeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agent.collector import MintCollector
    from repro.backend.querier import Querier
    from repro.backend.storage import StorageEngine
    from repro.elastic.supervisor import ShardSupervisor


class BackendPlane(abc.ABC):
    """Common backend behaviour over any topology.

    Subclasses must set two attributes before use:

    * ``storage`` — a StorageEngine-shaped object (the engine itself,
      or a merged view over several) backing queries and byte tables;
    * ``querier`` — a :class:`~repro.backend.querier.Querier` over it.

    ``notify_meter`` is public and rebindable: attaching a
    :class:`~repro.transport.transport.Transport` points it at the
    transport's notify path so control messages are metered at the
    wire, in one place, for every topology.  ``flush_transport`` is the
    matching upload-direction hook: a transport with in-flight state (a
    batching/lossy network) claims it so the retroactive pull can force
    freshly requested uploads all the way into storage before
    re-querying — the in-process transport leaves it None because its
    deliveries are already synchronous.
    """

    querier: "Querier"

    def __init__(self, notify_meter: NotifyMeter | None = None) -> None:
        self.notify_meter = notify_meter
        self.flush_transport: Callable[[], None] | None = None
        # Post-sampling hook: called once per newly sampled trace id,
        # after the fleet-wide notification fan-out.  Claimed by the
        # live query plane (standing-query matching rides this seam) the
        # same way a transport claims ``flush_transport`` — an explicit
        # hook is never overwritten.
        self.on_sampled: Callable[[str], None] | None = None
        self._collectors: list["MintCollector"] = []
        self._notified_trace_ids: set[str] = set()
        # Per-channel high-water marks for message-id dedup: O(links)
        # memory however long the run (see ``receive``).
        self._delivered_watermarks: dict[object, tuple] = {}
        # Cumulative planner counters across every query this plane
        # ran — kept observability-independent (plain integer adds on
        # cursor close) so ``obs_report()`` has a query section even on
        # an obs-off deployment.
        self.plan_totals = PlanStats()
        # Shard-chaos failover: a sharded backend built with a
        # non-benign chaos profile attaches a supervisor that parks
        # commits for crashed shards; every other plane has none.
        self.supervisor: "ShardSupervisor | None" = None
        self.bind_observer(NULL_OBSERVER)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, observer: Observer) -> None:
        """Attach the observability plane's handle (query-path caches)."""
        self.observer = observer
        self._obs_plans = observer.counter("mint_query_plans", plane="query")
        self._obs_results = observer.counter("mint_query_results", plane="query")
        self._obs_reconstruct_hist = observer.stage_histogram("query_reconstruct")

    # ------------------------------------------------------------------
    # Topology (the only part subclasses provide)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _engine_for(self, node: str) -> "StorageEngine":
        """The storage engine owning ``node``'s reports."""

    def shard_for(self, node: str) -> int:
        """Index of the shard owning ``node`` (0 in a single backend)."""
        return 0

    def _observe_stored(self, report: Report, engine: "StorageEngine") -> None:
        """Post-store hook: fold a routed, stored report into any
        cross-engine state (the sharded merge layer overrides)."""

    # ------------------------------------------------------------------
    # Collector plane
    # ------------------------------------------------------------------
    def register_collector(self, collector: "MintCollector") -> None:
        """Attach a collector for cross-agent parameter pulls.

        Registration order is preserved globally so notification
        fan-out visits collectors identically in every topology.
        """
        self._collectors.append(collector)

    def receive(self, report: Report, message_id: tuple | None = None) -> None:
        """Ingest one report from a collector.

        Routes to the engine owning the report's origin node and
        dispatches on the report type; anything other than a pattern,
        Bloom or params report raises ``TypeError`` — a malformed
        producer must fail loudly, not silently drop data.

        ``message_id`` makes the ingest idempotent: an at-least-once
        transport (the simulated network plane retransmits, and its
        chaos layer duplicates) tags every report with a
        ``(channel, *ordinal)`` tuple — e.g. ``(link, seq, index)`` —
        and a re-arrival at or below the channel's high-water mark is
        acknowledged but not re-stored, so duplicates can never perturb
        storage or byte tables.  Ids must be strictly increasing per
        channel, which the ``Transport`` seam's per-collector FIFO
        ordering guarantee already implies; tracking one watermark per
        channel instead of every id ever seen keeps the dedup state
        O(channels) over arbitrarily long runs.  In-process
        exactly-once callers pass no id and skip the check entirely.
        """
        if not isinstance(report, (PatternLibraryReport, BloomReport, ParamsReport)):
            raise TypeError(f"unknown report type: {type(report)!r}")
        if message_id is not None:
            channel, ordinal = message_id[0], tuple(message_id[1:])
            last = self._delivered_watermarks.get(channel)
            if last is not None and ordinal <= last:
                return
            self._delivered_watermarks[channel] = ordinal
        self._commit(report)

    def _commit(self, report: Report) -> None:
        """Store one deduplicated report on the engine owning its node.

        Split from :meth:`receive` so layers *behind* the watermark can
        re-drive storage without re-entering the dedup: the sharded
        backend's shard supervisor parks reports for a crashed shard
        after they passed the watermark, and replays them through this
        method on restart — running them through ``receive`` again
        would find their ids at or below the channel's high-water mark
        and silently drop the replay.
        """
        engine = self._engine_for(report.node)
        if isinstance(report, PatternLibraryReport):
            engine.store_pattern_report(report)
        elif isinstance(report, BloomReport):
            engine.store_bloom_report(report)
        else:
            engine.store_params_report(report)
        self._observe_stored(report, engine)

    def settle(self) -> None:
        """End-of-run hook after the transport drained: replay the
        shard supervisor's parked redelivery queues (a restart at the
        end of the schedule), so post-finalize queries see the
        converged store.  Without a supervisor nothing is held back
        once deliveries land."""
        if self.supervisor is not None:
            self.supervisor.settle()

    def notify_sampled(self, trace_id: str, origin_node: str | None = None) -> None:
        """Propagate a sampling decision to every other collector.

        Idempotent per trace id across the whole deployment: the first
        notification, no matter which host sampled, reaches every other
        registered collector exactly once, each ping charged on the
        notify meter.  This is the paper's "backend notifies all hosts"
        guarantee, and it survives the backend becoming N boxes because
        the dedup set and the registry both live here, above the
        topology.
        """
        if trace_id in self._notified_trace_ids:
            return
        self._notified_trace_ids.add(trace_id)
        self.storage.sampled_trace_ids.add(trace_id)
        for collector in self._collectors:
            if origin_node is not None and collector.node == origin_node:
                continue
            if self.notify_meter is not None:
                self.notify_meter(collector.node, NOTIFY_MESSAGE_BYTES)
            collector.mark_sampled(trace_id)
        if self.on_sampled is not None:
            # After the fan-out: on a synchronous wire every collector's
            # buffered state for this trace has already been stored, so
            # standing queries evaluate against the settled view.
            self.on_sampled(trace_id)

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> QueryCursor:
        """Compile and run one :class:`QuerySpec` over this topology.

        Every plan — point, batch or predicate — runs the reference
        querier over this plane's store, whose one lookup pushes the
        Bloom pre-screen down to the shards; this layer contributes the
        one thing only the plane can do — the retroactive parameter
        pull (the 'Query Trace ID' arrow into sampling in paper Fig. 9): with
        ``spec.pull_params``, a partial result asks every collector to
        upload the trace's parameters if still buffered, upgrading the
        answer to exact when the buffers cooperate.  Execution is
        lazy: each ``next()`` on the cursor reconstructs one trace.
        """
        if self.observer.enabled:
            self._obs_plans.inc()
            with self.observer.span("query_plan"):
                plan = QueryPlanner(self.storage).plan(spec)
        else:
            plan = QueryPlanner(self.storage).plan(spec)
        if spec.pull_params:
            # Claim the plan's upgrade hook: the pull runs on each
            # partial reconstruction *before* predicates judge it, so a
            # pulled-to-exact trace is filtered on its real spans.
            plan.upgrade = lambda result: self._pull_params(result, plan.stats)
        return QueryCursor(spec, self._observed_results(plan), plan.stats)

    def _observed_results(self, plan) -> Iterator[QueryResult]:
        """The plan's lazy result stream, with per-result reconstruct
        timing and the cursor-close fold of its counters into
        :attr:`plan_totals` (and the obs registry).  Folding happens in
        the ``finally`` so a partially consumed cursor still settles
        its accounting when it is closed or collected."""
        observed = self.observer.enabled
        results = plan.results()
        try:
            while True:
                if observed:
                    start = perf_counter()
                    try:
                        result = next(results)
                    except StopIteration:
                        break
                    self._obs_reconstruct_hist.observe(perf_counter() - start)
                    self._obs_results.inc()
                else:
                    try:
                        result = next(results)
                    except StopIteration:
                        break
                yield result
        finally:
            totals = self.plan_totals
            for name, value in plan.stats.as_dict().items():
                setattr(totals, name, getattr(totals, name) + value)

    def query(self, trace_id: str, pull_params: bool = False) -> QueryResult:
        """Answer a user trace query (exact / partial / miss)."""
        return self.execute(QuerySpec.point(trace_id, pull_params=pull_params)).one()

    def query_many(self, trace_ids: Iterable[str], pull_params: bool = False) -> QueryCursor:
        """Batch lookup: one result per id, request order, misses kept."""
        return self.execute(QuerySpec.batch(trace_ids, pull_params=pull_params))

    def _pull_params(self, result: QueryResult, stats) -> QueryResult:
        """Retroactively pull a partial hit's parameters from the fleet."""
        trace_id = result.trace_id
        pulled = False
        for collector in self._collectors:
            if collector.request_params(trace_id):
                pulled = True
        if not pulled:
            return result
        # A networked transport may only have *queued* the pulled
        # uploads; flush them into storage before re-querying, or the
        # upgrade-to-exact contract silently breaks.
        if self.flush_transport is not None:
            self.flush_transport()
        self.storage.sampled_trace_ids.add(trace_id)
        stats.params_pulled += 1
        return self.querier.query(trace_id)

    # ------------------------------------------------------------------
    # Cold tier
    # ------------------------------------------------------------------
    def storage_engines(self) -> list["StorageEngine"]:
        """The concrete per-shard engines behind this plane (one for
        the single backend) — what compaction and cold panels fan over."""
        shards = getattr(self, "shards", None)
        if shards is not None:
            return list(shards)
        return [self.storage]

    def compact_cold(self, policy=None) -> list:
        """Seal cold segments on every engine; one stats row per engine.

        Queries keep reading through the seal boundaries; the logical
        byte tables never move (the cold tier's ruler-split contract).
        """
        from repro.cold.compactor import compact_engine

        return [compact_engine(engine, policy) for engine in self.storage_engines()]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Total persisted bytes (merged/deduplicated when sharded).

        The logical fig11 ruler — invariant under cold-tier sealing."""
        return self.storage.storage_bytes()

    def physical_storage_bytes(self) -> int:
        """The physical side of the storage split: logical minus the
        cold tier's compression savings across engines."""
        return self.storage.physical_storage_bytes()

    def cold_stats(self) -> dict:
        """Cold-tier counters (summed across shards when sharded)."""
        return self.storage.cold_stats()
