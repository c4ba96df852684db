"""Wire-level constants, callback types and the traffic-class table.

Everything here is deliberately import-light: these names are shared by
the backends (which meter control messages), the transports (which
meter reports) and the simulation layers (which install the meters), so
this module must never import any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.reports import Report

# The size of a backend->collector control ping: trace id + header, the
# paper's "check and report" notification.  Public — every layer that
# accounts for the notify direction must use this one constant.
NOTIFY_MESSAGE_BYTES = 64

# The size of a backend->subscriber push notification: subscription id
# + trace id + match status + header.
PUSH_MESSAGE_BYTES = 96

# Called with (collector_node, payload_bytes) whenever the backend
# sends a control message toward a collector, so deployments can charge
# the backend->agent direction of the network.
NotifyMeter = Callable[[str, int], None]

# The collector->backend direction: anything that accepts a report.
# Bare callables (``backend.receive``, ``reports.append``) satisfy it,
# as does :class:`repro.transport.transport.Transport` via ``deliver``.
ReportSender = Callable[["Report"], None]

# Where a class's arrivals land: called with each message and its
# per-link (link, seq, index) id — None on an exactly-once in-process
# wire.  ``BackendPlane.receive`` and the live plane's push handler
# both have this shape.
Sink = Callable[[Any, "tuple | None"], None]

# The meter name that means "the deployment's ledgers" (the deployment
# ledger plus the owning shard's ledger): the fig02/fig11 ruler.  Every
# other meter name is a side meter the byte tables never see.
NETWORK = "network"

# Redundant wire bytes (retransmissions, chaos duplicates): a side meter
# no class sends on — the wire charges it when it repeats a batch.
RETRANSMIT = "retransmit"


@dataclass(frozen=True, eq=False)
class TrafficClass:
    """One kind of traffic a transport carries — the one place that says
    how it is metered, which links it rides, whether the autoscaler
    sees it and where it lands.  The rows of ``TRAFFIC_CLASSES`` are the
    only instances, compared (and hashed) by identity.

    Only what differs between the kinds is a field.  What they share is
    code in ``Transport.deliver``: every message is sized once by its
    ``size_bytes()`` and charged at *enqueue* time, so each meter's
    totals and per-minute series are invariant under batching and chaos.
    """

    # The meter charged: ``NETWORK`` (the ledgers) or a side meter.
    # Side meters keep the fig02/fig11 byte tables invariant under
    # whatever the class does — resharding, subscriptions.
    meter: str
    # The link namespace, and the message attribute naming the link
    # inside it.  A namespace of its own means the class batches, drops
    # and retries under the same wire model without ever queueing
    # behind live ingest.
    link_prefix: str
    link_key: str
    # Whether ``queue_depths()`` — the autoscaler's pressure signal —
    # shows the class's links.  Resharding pressure must not retrigger
    # the autoscaler that caused it, and a popular standing query is
    # analyst load, not ingest pressure.
    autoscaled: bool
    # The entry of the transport's sink table its arrivals reach.
    sink: str
    # Obs counters (plane="transport"): messages, and bytes if kept.
    counter: str
    byte_counter: str | None


INGEST = TrafficClass(
    meter=NETWORK,
    link_prefix="",
    link_key="node",
    autoscaled=True,
    sink="backend",
    counter="mint_transport_reports",
    byte_counter="mint_transport_report_bytes",
)
# Reshard traffic: a host's stored state streamed shard -> shard.
MIGRATION = TrafficClass(
    meter="migration",
    link_prefix="migrate::",
    link_key="node",
    autoscaled=False,
    sink="backend",
    counter="mint_transport_migration_reports",
    byte_counter=None,
)
# Standing-query pushes, backend -> subscriber, one link per subscription.
PUSH = TrafficClass(
    meter="push",
    link_prefix="push::",
    link_key="subscription_id",
    autoscaled=False,
    sink="subscriber",
    counter="mint_transport_push_messages",
    byte_counter=None,
)
TRAFFIC_CLASSES = (INGEST, MIGRATION, PUSH)
