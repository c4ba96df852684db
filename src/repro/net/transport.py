"""NetTransport: the deployment plane's simulated network wire.

Implements the :class:`~repro.transport.transport.Transport` protocol
on top of the event scheduler: messages are charged at the wire exactly
as :class:`~repro.transport.transport.LocalTransport` charges them,
then queued per link, flushed as batches (size-, byte- or
age-triggered, with backpressure when a bounded queue fills), carried
over a per-link latency model through seeded chaos, and landed on
their class's sink by the reliable layer — exactly once, in per-link
FIFO order.

Byte-accounting invariants, enforced by
``benchmarks/perf/run.py net --check``:

* first transmissions charge the deployment's ``network`` meter at
  *enqueue* time — so the network meter's totals are identical to
  ``LocalTransport``'s under every batching and chaos configuration,
  and its per-minute series too whenever the run's clock is driven by
  ingest alone (a mid-run retroactive pull on a lossy wire advances
  simulated time — see :meth:`NetTransport.drain`);
* retransmissions and chaos duplicates charge only the separate
  ``retransmit`` meter, keeping the fig02/fig11 byte tables untouched;
* under the default (instantaneous, lossless) descriptor, delivery is
  synchronous within ``deliver``, so storage meter series and query
  signatures are bit-identical to ``LocalTransport`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.net.chaos import LOSSLESS, ChaosEngine, ChaosProfile
from repro.net.events import Event, EventScheduler
from repro.net.reliable import Batch, ReliableLink
from repro.sim.clock import SimClock
from repro.sim.meters import LatencyStats, OverheadLedger
from repro.transport.transport import Clock, LocalTransport
from repro.transport.wire import INGEST, PUSH, RETRANSMIT, TrafficClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.plane import BackendPlane


@dataclass(frozen=True)
class NetworkDescriptor:
    """Immutable description of the simulated wire.

    The default is the *lossless instantaneous* wire: zero latency,
    every report its own batch, no chaos — the configuration under
    which ``NetTransport`` must be bit-identical to ``LocalTransport``.
    ``max_batch_bytes == 0`` and ``max_batch_age_s == 0`` disable the
    respective flush triggers.
    """

    latency_s: float = 0.0
    max_batch_reports: int = 1
    max_batch_bytes: int = 0
    max_batch_age_s: float = 0.0
    queue_capacity: int = 64
    max_in_flight_batches: int = 64
    rto_s: float = 0.5
    max_backoff_s: float = 8.0
    chaos: ChaosProfile = LOSSLESS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.max_batch_reports < 1:
            raise ValueError("max_batch_reports must be >= 1")
        if self.max_batch_bytes < 0 or self.max_batch_age_s < 0:
            raise ValueError("batch flush triggers must be >= 0 (0 = disabled)")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_in_flight_batches < 1:
            raise ValueError("max_in_flight_batches must be >= 1")
        if self.rto_s <= 0:
            raise ValueError("rto_s must be > 0")
        if self.rto_s <= self.latency_s:
            # Acks are instantaneous, so one-way latency is the whole
            # RTT: a timer shorter than it would mark every healthy
            # delivery as lost and retransmit 100% of traffic.
            raise ValueError("rto_s must exceed latency_s or every batch retransmits")
        if self.max_backoff_s < self.rto_s:
            raise ValueError("max_backoff_s must be >= rto_s")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def lossless(cls) -> "NetworkDescriptor":
        """The default wire: instantaneous, reliable, unbatched."""
        return cls()

    @classmethod
    def batched(cls) -> "NetworkDescriptor":
        """A realistic batching wire (still lossless).

        Batches form on bytes and age; ``queue_capacity`` sits *below*
        the report-count trigger as the hard bound, so a burst of many
        small reports (which takes long to reach the byte threshold)
        hits backpressure and force-flushes instead of growing the
        queue.
        """
        return cls(
            latency_s=0.02,
            max_batch_reports=256,
            max_batch_bytes=64 * 1024,
            max_batch_age_s=1.0,
            queue_capacity=128,
        )

    def with_chaos(self, chaos: ChaosProfile, seed: int = 0) -> "NetworkDescriptor":
        """A copy of this wire with a chaos profile injected."""
        return replace(self, chaos=chaos, seed=seed)

    @property
    def is_instantaneous(self) -> bool:
        """True when delivery completes inside the ``deliver`` call."""
        return (
            self.latency_s == 0.0
            and self.max_batch_reports == 1
            and self.chaos.is_lossless
        )

    def describe(self) -> str:
        """Human-readable wire label."""
        if self == NetworkDescriptor():
            return "lossless-net"
        parts = []
        if self.max_batch_reports > 1 or self.max_batch_bytes or self.max_batch_age_s:
            parts.append(f"batch<={self.max_batch_reports}")
        if self.latency_s:
            parts.append(f"{self.latency_s * 1000:g}ms")
        if not self.chaos.is_lossless:
            parts.append(f"chaos={self.chaos.name}")
        return "net[" + ",".join(parts or ["lossless"]) + "]"


# The standard harness wire for chaos sweeps — batching and a little
# latency so the wire's mechanics are on the measured path, and a retry
# timer short enough for CI-sized streams.  The net bench, the sim
# harnesses and the examples all inject their chaos profiles into this
# one descriptor, so every layer measures the same wire.
CHAOS_WIRE = NetworkDescriptor(
    max_batch_reports=8, max_batch_age_s=0.5, latency_s=0.01, rto_s=0.3
)


@dataclass
class LinkStats:
    """Delivery metrics of one send link (fig15-style)."""

    sent_batches: int = 0
    sent_reports: int = 0
    transmissions: int = 0
    retransmits: int = 0
    dropped: int = 0
    duplicated: int = 0
    duplicate_arrivals: int = 0
    backpressure_flushes: int = 0
    delivered_batches: int = 0
    delivered_reports: int = 0
    max_queue_depth: int = 0
    latency: LatencyStats = field(default_factory=lambda: LatencyStats("link"))

    def as_dict(self) -> dict[str, object]:
        """Snapshot for machine-readable reports."""
        return {
            "sent_batches": self.sent_batches,
            "sent_reports": self.sent_reports,
            "transmissions": self.transmissions,
            "retransmits": self.retransmits,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "duplicate_arrivals": self.duplicate_arrivals,
            "backpressure_flushes": self.backpressure_flushes,
            "delivered_batches": self.delivered_batches,
            "delivered_reports": self.delivered_reports,
            "max_queue_depth": self.max_queue_depth,
            "latency_p50_s": self.latency.p50,
            "latency_p99_s": self.latency.p99,
        }


class NetTransport(LocalTransport):
    """The simulated network plane behind the ``Transport`` seam.

    Subclasses :class:`LocalTransport` for the charging site, notify
    metering and storage sync, and replaces the synchronous ``deliver``
    with the queued/batched/lossy/retried wire.
    The transport owns its own :class:`SimClock`; every public call
    first pumps the event scheduler up to the caller's clock, so
    in-flight effects land exactly when (in simulated time) they are
    due, and :meth:`drain` runs the plane to quiescence — advancing
    simulated time past the caller's now if retries need it.
    """

    def __init__(
        self,
        backend: "BackendPlane",
        ledger: OverheadLedger,
        clock: Clock | None = None,
        shard_ledgers: list[OverheadLedger] | None = None,
        network: NetworkDescriptor | None = None,
    ) -> None:
        self.network = network if network is not None else NetworkDescriptor()
        self._ext_clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._sim = SimClock()
        self._scheduler = EventScheduler(self._sim)
        self._chaos = ChaosEngine(self.network.chaos, seed=self.network.seed)
        # The parent charges every meter through our simulated clock, so
        # delayed effects (a batch landing after its latency) are
        # stamped at their true simulated time, not the caller's.
        super().__init__(
            backend, ledger, clock=lambda: self._sim.now, shard_ledgers=shard_ledgers
        )
        self._queues: dict[str, list[tuple[object, int]]] = {}
        # The class each link was created for: what decides whether the
        # autoscaler sees its queue and where its batches land.
        self._link_class: dict[str, TrafficClass] = {}
        self._queue_bytes: dict[str, int] = {}
        self._age_timers: dict[str, Event] = {}
        self._flush_pending: set[str] = set()
        self._links: dict[str, ReliableLink] = {}
        self.link_stats: dict[str, LinkStats] = {}
        # The retroactive pull re-queries storage immediately after
        # asking collectors to upload; with in-flight batching those
        # uploads are only queued, so the plane needs a way to force
        # them through first.  Claimed like the notify meter: an
        # explicit hook is never overwritten.
        if backend.flush_transport is None:
            backend.flush_transport = self.drain

    # ------------------------------------------------------------------
    # The wire (Transport protocol)
    # ------------------------------------------------------------------
    def deliver(self, message, cls: TrafficClass = INGEST) -> None:
        """Charge the message at the wire, then queue it on its link.

        The class's meter is charged at enqueue time — when the sender
        commits the bytes to the wire — which is the same instant
        ``LocalTransport`` charges, so every meter's totals (and the
        fig02/fig11 network tables) are invariant under batching and
        chaos alike.  The batch then rides the ordinary reliable
        machinery whatever its class: chaos can drop or duplicate it,
        retries re-carry it, and the per-link sequence numbers give the
        sink a deterministic message id for its own idempotence check.
        (Never called from inside the scheduler — collectors, the
        reshard coordinator and the live plane all send from the
        ingest/finalize path — so ``_enqueue``'s immediate pump cannot
        re-enter.)
        """
        self._sink(cls)
        self._advance()
        link, size = self._charge(message, cls)
        self._enqueue(link, cls, message, size)

    def wire_now(self) -> float:
        """The simulated-network clock — read-only, never pumps.

        The failover supervisor reads this from *inside* a commit (mid
        ``_deliver_batch`` loop).  Running the scheduler here would
        deliver the next due batch re-entrantly, advancing the channel
        watermark past the rest of the current batch's reports and
        silently discarding them — a clock read must have no side
        effects.
        """
        return max(self._ext_clock(), self._sim.now)

    def queue_depths(self) -> dict[str, int]:
        """Reports waiting per link of the ``autoscaled`` classes.

        This is the autoscaler's pressure signal: the backlog a shard's
        hosts have committed to the wire but the plane has not flushed.
        """
        return {
            link: len(queue)
            for link, queue in self._queues.items()
            if queue and self._link_class[link].autoscaled
        }

    def _enqueue(self, link: str, cls: TrafficClass, message, size: int) -> None:
        """Queue one charged message on ``link`` and apply flush triggers."""
        queue = self._queues.get(link)
        if queue is None:
            queue = self._queues[link] = []
            self._link_class[link] = cls
        queue.append((message, size))
        self._queue_bytes[link] = self._queue_bytes.get(link, 0) + size
        stats = self._stats_for(link)
        stats.max_queue_depth = max(stats.max_queue_depth, len(queue))
        net = self.network
        batch_full = len(queue) >= net.max_batch_reports or (
            net.max_batch_bytes > 0 and self._queue_bytes[link] >= net.max_batch_bytes
        )
        if batch_full:
            self._flush(link)
        elif len(queue) >= net.queue_capacity:
            # Backpressure: the bounded queue is full, so the sender
            # blocks until it drains — in simulation, a forced flush.
            # Counted only when the send window can actually emit a
            # batch; with the window exhausted (an outage) the flush is
            # a deferral, and counting it would inflate the panel by
            # one per delivered report.
            if self._link_for(link).in_flight < net.max_in_flight_batches:
                stats.backpressure_flushes += 1
            self._flush(link)
        elif len(queue) == 1 and net.max_batch_age_s > 0:
            self._age_timers[link] = self._scheduler.after(
                net.max_batch_age_s, lambda: self._flush(link)
            )
        # Run anything that became due *now* — on the instantaneous
        # lossless wire the arrival is due immediately, which makes
        # delivery synchronous within this call, exactly like
        # LocalTransport.  (deliver is never called from inside the
        # scheduler, so this cannot re-enter.)
        self._scheduler.run_until(self._sim.now)

    def notify(self, node: str, nbytes: int) -> None:
        """Meter one control ping (modeled as out-of-band and reliable).

        Control messages ride the backend->collector direction, which
        stays synchronous: delaying ``mark_sampled`` would change *what*
        is sampled, and the network plane's contract is to perturb
        delivery timing only, never sampling decisions.
        """
        self._advance()
        super().notify(node, nbytes)

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _flush(self, link: str) -> None:
        """Move queued reports onto the wire, within the send window.

        Batches of at most ``max_batch_reports`` are emitted while the
        link has in-flight budget (``max_in_flight_batches``); anything
        beyond waits in the queue and resumes on the next ack.  The
        window is what bounds *wire-side* state — unacked batches and
        their retransmission timers — during an outage: without it a
        partition would accumulate one backoff timer per batch sent
        into the void.  (The send queue itself must absorb the outage
        backlog: at-least-once delivery forbids dropping, and blocking
        the producer would shift meter timestamps, breaking the
        byte-table invariance the gates pin.)
        """
        timer = self._age_timers.pop(link, None)
        if timer is not None:
            timer.cancel()
        queue = self._queues.get(link)
        if not queue:
            return
        channel = self._link_for(link)
        stats = self._stats_for(link)
        while queue and channel.in_flight < self.network.max_in_flight_batches:
            take = min(len(queue), self.network.max_batch_reports)
            items = queue[:take]
            del queue[:take]
            nbytes = sum(size for _, size in items)
            self._queue_bytes[link] -= nbytes
            stats.sent_batches += 1
            stats.sent_reports += take
            channel.send(tuple(report for report, _ in items), nbytes)
        if queue:
            # Send window exhausted: the backlog resumes on ack.
            self._flush_pending.add(link)

    def _resume_flush(self, link: str) -> None:
        """Ack callback: a window slot freed; continue a deferred flush."""
        if link in self._flush_pending:
            self._flush_pending.discard(link)
            self._flush(link)

    # ------------------------------------------------------------------
    # Physical layer: latency model + chaos
    # ------------------------------------------------------------------
    def _transmit(self, batch: Batch, retransmit: bool) -> None:
        """Put one batch copy on the wire (fresh send or retransmit)."""
        now = self._sim.now
        stats = self._stats_for(batch.link)
        stats.transmissions += 1
        if retransmit:
            stats.retransmits += 1
            self.meters[RETRANSMIT].record(batch.size_bytes, now)
        if self._chaos.drops(batch.link, now):
            stats.dropped += 1
            return
        arrival = now + self.network.latency_s + self._chaos.extra_delay()
        self._scheduler.at(arrival, lambda: self._links[batch.link].on_arrival(batch))
        if self._chaos.duplicates():
            # The wire copied the packet: extra bytes crossed the
            # network, charged on the retransmit meter like any other
            # redundant transmission.
            stats.duplicated += 1
            self.meters[RETRANSMIT].record(batch.size_bytes, now)
            self._scheduler.at(
                arrival + self._chaos.extra_delay(),
                lambda: self._links[batch.link].on_arrival(batch),
            )

    def _deliver_batch(self, batch: Batch) -> None:
        """Reliable-layer callback: an in-order, exactly-once batch.

        Each message carries a deterministic (link, seq, index) id to
        its class's sink (:meth:`BackendPlane.receive`, the live
        plane's push handler), whose idempotent dedup is the second
        line of defence behind the reliable layer — a duplicate that
        slips through any future transport can never perturb storage
        or a subscription's hit set.
        """
        stats = self._stats_for(batch.link)
        stats.delivered_batches += 1
        stats.delivered_reports += len(batch.reports)
        queue_wait = max(0.0, self._sim.now - batch.created_at)
        stats.latency.record(queue_wait)
        if self.observer.enabled:
            # Sim-domain stage: enqueue -> delivery through the wire
            # model.  The clock is read (the scheduler put us here),
            # never pumped — the wire_now discipline — so the series is
            # bit-reproducible across identical seeded runs.
            self.observer.observe_sim("net_queue_wait", queue_wait, link=batch.link)
        sink = self.sinks[self._link_class[batch.link].sink]
        for index, message in enumerate(batch.reports):
            sink(message, (batch.link, batch.seq, index))

    # ------------------------------------------------------------------
    # Pumping and quiescence
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Run the plane up to the caller's clock (never backwards)."""
        self._scheduler.run_until(max(self._ext_clock(), self._sim.now))

    def sync_storage(self) -> None:
        """Pump due deliveries, then charge storage growth as usual."""
        self._advance()
        super().sync_storage()

    def drain(self) -> None:
        """Flush every queue and run the plane to quiescence.

        Retransmission timers keep the scheduler busy while anything is
        unacked, so running the event heap dry is exactly the
        all-delivered, all-acked condition.  Simulated time advances as
        far as the retries need (e.g. past a partition window's end);
        with ``drop_rate < 1`` and finite partitions this terminates.

        That time advance is the model, not an artifact: a *mid-run*
        drain on a lossy wire (the retroactive pull's
        ``flush_transport`` hook) ratchets this transport's clock past
        the caller's, so charges after it are stamped at the later
        simulated time — forced delivery through a lossy wire takes
        time, and pretending otherwise would falsify the latency
        panels.  On the lossless wire nothing is pending and no time
        passes, which is why the per-minute bit-identity gate is
        unaffected; per-minute series under chaos are comparable to
        ``LocalTransport`` runs only when pulls happen after
        ``finalize`` (as every shipped harness does).  Totals are
        invariant regardless.
        """
        self._advance()
        for link in list(self._queues):
            self._flush(link)
        # Deferred (window-held) backlogs flush from inside the ack
        # callbacks as run_all delivers, so the heap only empties once
        # every queue has drained through the wire.
        self._scheduler.run_all()
        leftovers = {
            link: (len(self._queues.get(link, [])), channel.in_flight)
            for link, channel in self._links.items()
            if self._queues.get(link) or channel.in_flight
        }
        if leftovers:  # pragma: no cover - defensive
            raise RuntimeError(f"network failed to quiesce: {leftovers}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _link_for(self, link: str) -> ReliableLink:
        channel = self._links.get(link)
        if channel is None:
            channel = ReliableLink(
                link,
                self._scheduler,
                transmit=self._transmit,
                deliver=self._deliver_batch,
                rto_s=self.network.rto_s,
                max_backoff_s=self.network.max_backoff_s,
                on_ack=lambda link=link: self._resume_flush(link),
            )
            self._links[link] = channel
        return channel

    def _stats_for(self, link: str) -> LinkStats:
        stats = self.link_stats.get(link)
        if stats is None:
            stats = LinkStats(latency=LatencyStats(link))
            self.link_stats[link] = stats
        return stats

    @property
    def queued_reports(self) -> int:
        """Reports waiting in send queues right now."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def in_flight_batches(self) -> int:
        """Batches sent but not yet acknowledged, across links."""
        return sum(channel.in_flight for channel in self._links.values())

    def stats_summary(self) -> dict[str, object]:
        """Aggregate delivery metrics for fig15-style panels.

        Totals are folded field-by-field from the dataclass definition
        (counters sum, the queue high-water mark takes the max, latency
        samples merge), so a counter added to :class:`LinkStats` is
        aggregated automatically.
        """
        totals = LinkStats(latency=LatencyStats("all-links"))
        counter_names = [
            f.name
            for f in fields(LinkStats)
            if f.name not in ("max_queue_depth", "latency")
        ]
        # Receive-side duplicate counts live on the reliable layer;
        # copy them into the panel rows before folding totals.
        for link, channel in self._links.items():
            self._stats_for(link).duplicate_arrivals = channel.duplicate_arrivals
        for stats in self.link_stats.values():
            for name in counter_names:
                setattr(totals, name, getattr(totals, name) + getattr(stats, name))
            totals.max_queue_depth = max(
                totals.max_queue_depth, stats.max_queue_depth
            )
            totals.latency.merge(stats.latency)
        return {
            "network": self.network.describe(),
            "links": len(self.link_stats),
            "queued_reports": self.queued_reports,
            "in_flight_batches": self.in_flight_batches,
            "retransmit_bytes": self.meters[RETRANSMIT].total_bytes,
            "push_bytes": self.meters[PUSH.meter].total_bytes,
            "totals": totals.as_dict(),
            "per_link": {
                link: stats.as_dict() for link, stats in sorted(self.link_stats.items())
            },
        }
