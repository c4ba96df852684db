"""Transports: the metered wire between collectors and a backend plane.

A :class:`Transport` owns both directions of the deployment's network
and every byte charged on it:

* ``deliver`` — ships one message of any
  :class:`~repro.transport.wire.TrafficClass` (collector -> backend
  reports by default), charging its wire size on the class's meter
  before it lands on the class's sink;
* ``notify`` — backend -> collector: charges one control ping (the
  backend plane calls this through its ``notify_meter``).

Byte accounting used to be smeared across framework subclasses
(deployment ledger in one method, per-shard ledgers in an override);
here it happens in exactly one place, for every topology.  This is
also the seam where a future async or remote transport plugs in: as
long as it meters at the wire and preserves per-collector delivery
order, nothing above or below it changes.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.obs.trace import NULL_INSTRUMENT, NULL_OBSERVER, Observer
from repro.sim.meters import Meter, OverheadLedger
from repro.transport.wire import INGEST, NETWORK, RETRANSMIT, TRAFFIC_CLASSES, Sink, TrafficClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.plane import BackendPlane

# Simulated-time source for meter timestamps (the framework's clock).
Clock = Callable[[], float]


@runtime_checkable
class Transport(Protocol):
    """What the collector and backend planes require of a wire.

    Beyond the two directions of traffic, the framework drives a
    wire's *lifecycle*: ``drain`` before final accounting (and on the
    retroactive pull), ``meters`` / ``stats_summary`` for the
    redundant-byte and delivery panels.  A synchronous in-process wire
    implements these as no-ops (nothing in flight, no redundancy) —
    they are part of the contract precisely so a transport with real
    in-flight state cannot be silently skipped by the framework.
    """

    # The side meters, by name: ``retransmit`` plus one per traffic
    # class that stays off the ledgers.  Charged here and never on the
    # network meter, so the fig02/fig11 byte tables are loss-, reshard-
    # and subscription-invariant.  A wire that never repeats a byte
    # reads 0 on ``retransmit``.
    meters: dict[str, Meter]

    # Where arrivals land, by ``TrafficClass.sink``.  The transport
    # fills in the backend; other planes claim their entry with
    # ``setdefault`` (an explicit sink is never overwritten — the
    # ``notify_meter`` / ``flush_transport`` discipline).
    sinks: dict[str, Sink]

    def deliver(self, message, cls: TrafficClass = INGEST) -> None:
        """Ship one message: charge ``cls``'s meter with its wire size
        at enqueue time, carry it on ``cls``'s link, land it on
        ``cls``'s sink — exactly once, in per-link send order."""

    def notify(self, node: str, nbytes: int) -> None:
        """Meter one backend->collector control message."""

    def drain(self) -> None:
        """Force all queued/in-flight traffic through to the backend."""

    def wire_now(self) -> float:
        """The wire's current simulated time (the failover clock)."""

    def queue_depths(self) -> dict[str, int]:
        """Reports waiting per send link (empty on a synchronous wire)."""

    def stats_summary(self) -> dict[str, object] | None:
        """Delivery metrics, or None when the wire keeps none."""


class LocalTransport:
    """In-process transport charging a deployment's ledgers at the wire.

    Every delivered report and every notify ping is recorded on the
    deployment-wide ledger; when ``shard_ledgers`` are attached (a
    sharded deployment), the same bytes are also charged to the ledger
    of the owning shard — reports to the shard owning the origin host,
    notifications to the shard owning the notified host (that shard's
    frontend sends the ping).  The double bookkeeping that makes
    per-shard MB/min panels comparable to the deployment totals thus
    lives in one method (``_record``) instead of parallel subclass
    overrides; traffic of the other classes charges its own side meter
    through the same method and never touches a ledger.

    Constructing a transport claims the backend's ``notify_meter`` —
    control-message metering is wire accounting, so it belongs here —
    unless the backend was built with an explicit meter, which is never
    silently overwritten.
    """

    def __init__(
        self,
        backend: "BackendPlane",
        ledger: OverheadLedger,
        clock: Clock | None = None,
        shard_ledgers: list[OverheadLedger] | None = None,
    ) -> None:
        self.backend = backend
        self.ledger = ledger
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        # Shared (not copied) with the caller: a reshard grows the
        # ledger list when the backend adds shards, and the
        # framework's per-shard panels must see the growth.
        self.shard_ledgers = shard_ledgers if shard_ledgers is not None else []
        self._last_storage = 0
        self._last_shard_storage = [0] * len(self.shard_ledgers)
        self._last_physical_storage = 0
        # Side meters exist on every wire — moving a host's state or
        # pushing a match is real work even in-process — and an
        # in-process wire, which never sends a byte twice, simply
        # leaves ``retransmit`` at 0.
        side = [RETRANSMIT] + [c.meter for c in TRAFFIC_CLASSES if c.meter != NETWORK]
        self.meters = {name: Meter(name) for name in side}
        self.sinks: dict[str, Sink] = {INGEST.sink: backend.receive}
        if backend.notify_meter is None:
            backend.notify_meter = self.notify
        self.bind_observer(NULL_OBSERVER)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, observer: Observer) -> None:
        """Attach the observability plane's handle.

        Hot-path instruments are cached here, once, so charging a
        message costs a no-op (or counter bump) — never a registry
        lookup per report.  Reading the instruments never touches the
        ledgers, so observability on vs off is byte-table-invariant by
        construction.
        """
        self.observer = observer
        # Per class: (messages counter, bytes counter or the no-op).
        self._obs_traffic = {
            cls: (
                observer.counter(cls.counter, plane="transport"),
                observer.counter(cls.byte_counter, plane="transport")
                if cls.byte_counter is not None
                else NULL_INSTRUMENT,
            )
            for cls in TRAFFIC_CLASSES
        }
        self._obs_notifies = observer.counter(
            "mint_transport_notifies", plane="transport"
        )
        self._obs_deliver_hist = observer.stage_histogram("transport_deliver")
        self._obs_storage_gauge = observer.gauge("mint_storage_bytes", plane="storage")
        self._obs_physical_gauge = observer.gauge(
            "mint_physical_storage_bytes", plane="storage"
        )

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def deliver(self, message, cls: TrafficClass = INGEST) -> None:
        """Meter the message's size on ``cls``'s meter, then land it.

        In-process delivery is synchronous and exactly-once, so no
        message id is attached (the sinks' own dedup still applies
        downstream)."""
        sink = self._sink(cls)
        self._charge(message, cls)
        if self.observer.enabled:
            start = perf_counter()
            sink(message, None)
            self._obs_deliver_hist.observe(perf_counter() - start)
        else:
            sink(message, None)

    def wire_now(self) -> float:
        """The wire's clock (the caller's clock on an in-process wire)."""
        return self._clock()

    def _sink(self, cls: TrafficClass) -> Sink:
        """``cls``'s sink, resolved before ``_charge`` on every wire: a
        class nothing claims fails at the sender's call, with its meter
        still untouched."""
        sink = self.sinks.get(cls.sink)
        if sink is None:
            raise KeyError(f"no {cls.sink!r} sink claims {cls.meter!r} traffic")
        return sink

    def _charge(self, message, cls: TrafficClass) -> tuple[str, int]:
        """The single charging site of ``deliver``, on every wire: size
        the message once, charge ``cls``'s meter now — the instant the
        sender commits the bytes, whatever the wire then does with them
        — and count it.  Returns the message's link and size."""
        key = getattr(message, cls.link_key)
        size = message.size_bytes()
        self._record(cls.meter, key, size, self._clock())
        messages, nbytes = self._obs_traffic[cls]
        messages.inc()
        nbytes.inc(size)
        return cls.link_prefix + key, size

    def _record(self, meter: str, node: str, nbytes: int, now: float) -> None:
        """Charge one meter.  ``NETWORK`` is the deployment ledger plus
        the ledger of the shard owning ``node``; any other name is a
        side meter.  Every transport (local or simulated-network) must
        charge through here, or the byte tables drift between wires."""
        if meter != NETWORK:
            self.meters[meter].record(nbytes, now)
            return
        self.ledger.network.record(nbytes, now)
        if self.shard_ledgers:
            self._shard_ledger(self.backend.shard_for(node)).network.record(nbytes, now)

    def _shard_ledger(self, shard: int) -> OverheadLedger:
        """The shard's ledger, grown on demand for elastic scale-ups.

        New shards appear mid-run only when a reshard grows the
        backend; every other run sizes the list at construction and
        never grows it."""
        while shard >= len(self.shard_ledgers):
            self.shard_ledgers.append(OverheadLedger())
            self._last_shard_storage.append(0)
        return self.shard_ledgers[shard]

    def notify(self, node: str, nbytes: int) -> None:
        """Backend -> collector: meter one control ping toward ``node``."""
        self._record(NETWORK, node, nbytes, self._clock())
        self._obs_notifies.inc()

    def drain(self) -> None:
        """In-process delivery is synchronous; nothing is in flight."""

    def queue_depths(self) -> dict[str, int]:
        """Synchronous delivery leaves no send queues to measure."""
        return {}

    def stats_summary(self) -> dict[str, object] | None:
        """No queues, no links, no delivery metrics to report."""
        return None

    # ------------------------------------------------------------------
    # Storage metering
    # ------------------------------------------------------------------
    def sync_storage(self) -> None:
        """Charge storage-meter deltas since the last sync.

        Storage is metered as monotonic growth of what the backend
        persists — deployment-wide against the merged (deduplicated)
        figure, and per shard against each shard's physical bytes.
        """
        now = self._clock()
        current = self.backend.storage_bytes()
        if current > self._last_storage:
            self.ledger.storage.record(current - self._last_storage, now)
            self._last_storage = current
        # The physical split rides the same seam, as a high-water mark
        # of what the store compressedly holds (compaction *shrinks*
        # the figure; the live value is read from the backend) — so
        # the ledger's logical storage meter and byte tables never see
        # the cold tier at all.
        self._last_physical_storage = max(
            self._last_physical_storage, self.backend.physical_storage_bytes()
        )
        if self.shard_ledgers:
            for i, shard in enumerate(self.backend.shards):
                ledger = self._shard_ledger(i)
                physical = shard.storage_bytes()
                if physical > self._last_shard_storage[i]:
                    ledger.storage.record(
                        physical - self._last_shard_storage[i], now
                    )
                    self._last_shard_storage[i] = physical
        if self.observer.enabled:
            self._obs_storage_gauge.set(self._last_storage)
            self._obs_physical_gauge.set(self._last_physical_storage)
