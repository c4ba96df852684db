"""The parallel ingest plane: shard-parallel workers, single writer.

:class:`ParallelIngestPlane` fans the ingest hot path (span parsing,
pattern interning, Bloom mounting, sampling) out over worker lanes
while keeping every side effect that the rest of the system can
observe — transport byte charges, backend stores, notification
fan-out, storage syncs — on the parent, in the exact order a
single-threaded run would have produced them.  That split is the whole
determinism argument:

* **Partitioned fleet.**  Hosts are assigned to lanes by the same
  stable hash that assigns them to shards (``shard_for_key``), so a
  host's sub-traces always land on the same lane in submission order —
  per ``(link, host)`` report order is preserved by construction, and
  ``workers == num_shards`` runs each shard's producer fleet on its own
  worker.
* **Stamped reports.**  Lanes never touch the transport; they stamp
  every would-be delivery with its sequential position
  (see :mod:`repro.concurrent.worker`).
* **Deterministic epochs.**  Every ``ingest_epoch`` traces (a count,
  never wall clock — worker-count independent) the plane barriers all
  lanes and **applies**: reports are delivered through the real
  transport sorted by stamp, sampling notifications run per trace in
  sub-trace order with their mark round-trips, and storage is synced
  per trace at that trace's timestamp.  The apply loop is the only
  writer the backend, meters and query plane ever see.
* **One round trip.**  Every parent-initiated collector call —
  sampling marks, the end-of-run flush, a retroactive pull — goes
  through :meth:`ParallelIngestPlane._call`: one ``call`` command per
  lane, emissions stamped by call order and replayed sorted.

Bit-identity with the sequential run therefore holds at any worker
count, in both lane modes.  The one bound — a params buffer must not
overflow *within* one epoch (sequential mark round-trips free buffer
space mid-epoch; the lanes only free it at the barrier) — is enforced,
not assumed: every barrier reply carries the lanes' buffer-eviction
deltas, and an in-epoch eviction raises a deterministic
:class:`~repro.concurrent.lanes.LaneError` naming the lane, epoch and
buffered bytes instead of letting the run silently diverge.  The
default 4 MB buffers hold hundreds of epochs of gate workloads, and
the invariance gate in ``run.py concurrent --check`` pins the
guarantee empirically.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.agent.reports import Report
from repro.backend.sharded import shard_for_key
from repro.concurrent.lanes import LaneError, make_lane
from repro.concurrent.worker import SamplerFactory, Stamp
from repro.obs.trace import NULL_OBSERVER, Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.config import MintConfig
    from repro.model.trace import Trace
    from repro.transport.plane import BackendPlane
    from repro.transport.transport import Transport

#: Sub-trace ops buffered per lane before a batch is posted — amortises
#: queue/pipe traffic without delaying work past an epoch (the barrier
#: flushes partial batches).
OPS_BATCH = 32


class LaneCollectorProxy:
    """Stands in for a lane-resident collector in the parent's registry.

    The backend plane's notification fan-out and retroactive parameter
    pull only need ``node``, ``mark_sampled`` and ``request_params`` —
    this proxy forwards them to the owning lane through the plane, so
    ``BackendPlane`` runs unmodified over a partitioned fleet.
    Registration order equals node discovery order, exactly as in the
    sequential run, so fan-out visits collectors identically.
    """

    def __init__(self, plane: "ParallelIngestPlane", node: str, lane_index: int) -> None:
        self._plane = plane
        self._node = node
        self.lane_index = lane_index

    @property
    def node(self) -> str:
        """Node this (remote) collector serves."""
        return self._node

    def mark_sampled(self, trace_id: str) -> None:
        """Queue the backend's sampling mark for the owning lane."""
        self._plane._mark_queue.append((self, (trace_id,)))

    def request_params(self, trace_id: str) -> bool:
        """Synchronous pull round-trip to the owning lane."""
        return self._plane._pull(self, trace_id)


class ParallelIngestPlane:
    """Shard-parallel ingest over worker lanes, applied by one writer."""

    def __init__(
        self,
        backend: "BackendPlane",
        transport: "Transport",
        config: "MintConfig",
        workers: int,
        mode: str,
        ingest_epoch: int,
        set_now: Callable[[float], None],
        sampler_factories: list[SamplerFactory],
    ) -> None:
        self.backend = backend
        self.transport = transport
        self.workers = workers
        self.ingest_epoch = ingest_epoch
        self._set_now = set_now
        self._lanes = [
            make_lane(mode, i, config, sampler_factories) for i in range(workers)
        ]
        self._proxies: dict[str, LaneCollectorProxy] = {}
        self._op_buffers: list[list] = [[] for _ in range(workers)]
        # (seq, now, proxies of hosts it showed first) per trace this epoch.
        self._epoch_meta: list[tuple[int, float, list[LaneCollectorProxy]]] = []
        self._seq = 0
        self._epochs_applied = 0
        # Marks queued by proxies during the apply loop's notifications.
        self._mark_queue: list[tuple[LaneCollectorProxy, tuple]] = []
        self._stopped = False
        self.bind_observer(NULL_OBSERVER)

    def bind_observer(self, observer: Observer) -> None:
        """Attach the observability plane's handle — parent side only.

        Lanes are never instrumented: the single-writer rule says a
        worker touches no shared state, and the registry is shared
        state.  All counting happens here, at the apply barrier, where
        the parent replays the lanes' stamped reports anyway.
        """
        self.observer = observer
        self._obs_epochs = observer.counter("mint_epochs_applied", plane="concurrent")
        self._obs_barrier_hist = observer.stage_histogram("epoch_barrier")
        self._obs_lane_reports = [
            observer.counter("mint_lane_reports", lane=str(i), plane="concurrent")
            for i in range(self.workers)
        ]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def warm_up(self, traces: Iterable["Trace"]) -> None:
        """Fan the offline warm-up out to the owning lanes.

        Node grouping and iteration order match the framework's
        sequential ``warm_up`` exactly, so proxies register (and lanes
        later create collectors) in the identical discovery order.
        """
        per_node: dict[str, list] = {}
        for trace in traces:
            for span in trace.spans:
                per_node.setdefault(span.node, []).append(span)
        per_lane: dict[int, list] = defaultdict(list)
        joined: list[LaneCollectorProxy] = []
        for node, spans in per_node.items():
            proxy = self._proxy_for(node, joined)
            per_lane[proxy.lane_index].append((node, spans))
        for proxy in joined:
            self.backend.register_collector(proxy)
        for lane_index, items in per_lane.items():
            self._lanes[lane_index].post(("warmup", items))
        # No reply needed: per-lane FIFO ordering already guarantees the
        # warm-up lands before any op posted after this returns.

    def submit(self, trace: "Trace", now: float) -> None:
        """Queue one trace's sub-traces on their owning lanes.

        Applies the pending epoch when it fills.  The epoch boundary is
        a pure function of the trace sequence number — never of worker
        count, queue depth or timing — which is what makes every
        observable byte and store identical at any parallelism.
        """
        seq = self._seq
        self._seq += 1
        joined: list[LaneCollectorProxy] = []
        self._epoch_meta.append((seq, now, joined))
        for sub_idx, sub_trace in enumerate(trace.sub_traces()):
            proxy = self._proxy_for(sub_trace.node, joined)
            buffer = self._op_buffers[proxy.lane_index]
            buffer.append((seq, sub_idx, now, sub_trace))
            if len(buffer) >= OPS_BATCH:
                self._lanes[proxy.lane_index].post(("ops", buffer))
                self._op_buffers[proxy.lane_index] = []
        if len(self._epoch_meta) >= self.ingest_epoch:
            self._apply_epoch()

    def quiesce(self) -> None:
        """Barrier and apply the partial epoch; lanes end up idle.

        The query plane calls this before planning so mid-run reads see
        a complete prefix of the stream, never a torn epoch.
        """
        self._apply_epoch()

    def flush_collectors(self, now: float) -> None:
        """End-of-run flush of every collector, in registration order.

        Drains the partial epoch first, then replays each collector's
        flush emissions (final pattern report, active Bloom filters,
        owed params) through the transport exactly as the sequential
        ``finalize`` loop would have.
        """
        self._apply_epoch()
        self._set_now(now)
        self._call("flush", [(proxy, (now,)) for proxy in self._proxies.values()])

    # ------------------------------------------------------------------
    # The single-writer apply step
    # ------------------------------------------------------------------
    def _apply_epoch(self) -> None:
        """Barrier all lanes and replay the epoch sequentially.

        Phase 1 (parallel, already done): lanes parsed and sampled.
        Phase 2 (here, single-writer): for each trace in sequence
        order — register the collectors of hosts it showed first, deliver
        its stamped reports through the real transport, run its sampling
        notifications (charging pings and doing the mark round-trips),
        then sync storage at its timestamp.  This is byte-for-byte the
        sequential ``_process_online`` schedule.
        """
        if not self._epoch_meta:
            return
        for lane_index, buffer in enumerate(self._op_buffers):
            if buffer:
                self._lanes[lane_index].post(("ops", buffer))
                self._op_buffers[lane_index] = []
        for lane in self._lanes:
            lane.post(("barrier",))
        observed = self.observer.enabled
        barrier_start = perf_counter() if observed else 0.0
        reports: list[tuple[Stamp, Report]] = []
        sampled: list[tuple[int, int, str, str]] = []
        overflows: list[tuple[int, dict]] = []
        for index, lane in enumerate(self._lanes):
            reply = lane.collect()
            reports.extend(reply[1])
            sampled.extend(reply[2])
            if observed and reply[1]:
                self._obs_lane_reports[index].inc(len(reply[1]))
            overflows.extend((index, info) for info in reply[3])
        if observed:
            # Wall time the parent spent waiting on the slowest lane —
            # the barrier cost the McKenney-style read-mostly split is
            # supposed to keep small.
            self._obs_barrier_hist.observe(max(0.0, perf_counter() - barrier_start))
            self._obs_epochs.inc()
        if overflows:
            # Fail before any replay: a lane evicted params-buffer
            # blocks *within* this epoch, which a sequential run may
            # have kept (its mid-epoch mark round-trips free buffer
            # space the lanes only free at this barrier).  Applying the
            # epoch could silently diverge from the workers=0 run, so
            # the bound is enforced loudly and deterministically — the
            # trigger is a pure function of the stream and config.
            detail = "; ".join(
                f"lane {index} node {info['node']}: evicted "
                f"{info['evicted_blocks']} block(s) / {info['evicted_bytes']} "
                f"bytes with {info['buffered_bytes']} of "
                f"{info['capacity_bytes']} bytes still buffered"
                for index, info in overflows
            )
            raise LaneError(
                f"params buffer overflowed within ingest epoch "
                f"{self._epochs_applied}: {detail}. Raise "
                f"MintConfig.params_buffer_bytes or lower "
                f"Deployment.ingest_epoch so one epoch's parameters fit."
            )
        reports.sort(key=lambda item: item[0])
        sampled.sort(key=lambda item: (item[0], item[1]))
        reports_by_seq: dict[int, list[tuple[Stamp, Report]]] = defaultdict(list)
        for stamp, report in reports:
            reports_by_seq[stamp[0]].append((stamp, report))
        sampled_by_seq: dict[int, list[tuple[int, int, str, str]]] = defaultdict(list)
        for entry in sampled:
            sampled_by_seq[entry[0]].append(entry)
        for seq, now, joined in self._epoch_meta:
            self._set_now(now)
            for proxy in joined:
                self.backend.register_collector(proxy)
            for _, report in reports_by_seq.get(seq, ()):
                self.transport.deliver(report)
            for _, _, node, trace_id in sampled_by_seq.get(seq, ()):
                self.backend.notify_sampled(trace_id, origin_node=node)
            self._flush_marks()
            self.transport.sync_storage()
        self._epoch_meta = []
        self._epochs_applied += 1

    def _flush_marks(self) -> None:
        """Round-trip queued sampling marks and replay their uploads.

        The backend queued marks in collector-registration order; the
        stamp sort in :meth:`_call` replays the resulting params uploads
        in that same order, matching the sequential interleaving (meter
        buckets are time-keyed sums, so ping-vs-upload micro-order
        within the instant is unobservable).
        """
        marks, self._mark_queue = self._mark_queue, []
        self._call("mark_sampled", marks)

    def _pull(self, proxy: LaneCollectorProxy, trace_id: str) -> bool:
        """Synchronous retroactive pull against one lane collector."""
        return self._call("request_params", [(proxy, (trace_id,))])[0]

    def _call(self, method: str, calls: list[tuple[LaneCollectorProxy, tuple]]) -> list:
        """One lane round trip: ``collector.method(*args)`` per call.

        Each owning lane gets one ``call`` command carrying its share;
        the emissions come back stamped with their call's position, so
        the stamp sort replays them through the transport in call order
        whatever the lane split.  Returns the results in call order.
        """
        per_lane: dict[int, list] = defaultdict(list)
        for order, (proxy, args) in enumerate(calls):
            per_lane[proxy.lane_index].append((order, proxy.node, args))
        for lane_index, items in per_lane.items():
            self._lanes[lane_index].post(("call", method, items))
        results: list[tuple[int, object]] = []
        merged: list[tuple[Stamp, Report]] = []
        for lane_index in per_lane:
            _, lane_results, reports = self._lanes[lane_index].collect()
            results.extend(lane_results)
            merged.extend(reports)
        merged.sort(key=lambda item: item[0])
        for _, report in merged:
            self.transport.deliver(report)
        results.sort(key=lambda item: item[0])
        return [result for _, result in results]

    # ------------------------------------------------------------------
    # Fleet wiring
    # ------------------------------------------------------------------
    def _proxy_for(self, node: str, joined: list[LaneCollectorProxy]) -> LaneCollectorProxy:
        """The node's proxy; a first-seen node's new proxy is appended to
        ``joined``, for the caller to register with the backend where
        the sequential run would (warm-up, or that trace's apply turn)."""
        proxy = self._proxies.get(node)
        if proxy is None:
            proxy = LaneCollectorProxy(self, node, shard_for_key(node, self.workers))
            self._proxies[node] = proxy
            joined.append(proxy)
        return proxy

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every lane; idempotent, never raises."""
        if self._stopped:
            return
        self._stopped = True
        for lane in self._lanes:
            lane.stop()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass
