"""The simulated network plane: what the wire does to the bytes.

:mod:`repro.transport` defined *where* bytes are charged — one
``Transport`` seam between the collector fleet and the backend plane.
This package supplies the first transport that is not instantaneous and
lossless: an event-driven simulation of the queueing, loss and
retransmission that dominate real deployments.

* :mod:`repro.net.events` — a timed event scheduler over
  :class:`~repro.sim.clock.SimClock`, the plane's single source of
  causality;
* :mod:`repro.net.chaos` — seeded drop/duplicate/delay/partition
  profiles, deterministic per (profile, seed);
* :mod:`repro.net.reliable` — ack-based at-least-once retransmission
  with per-link sequence numbers, restoring exactly-once in-order
  delivery on top of a lossy wire;
* :mod:`repro.net.transport` — :class:`NetTransport`, the
  :class:`~repro.transport.transport.Transport` implementation tying
  them together: a per-link latency model, bounded per-link send
  queues with size/age-triggered batch flushing and backpressure.

Two gates pin the plane's correctness
(``benchmarks/perf/run.py net --check``):

* **lossless equivalence** — under the default (zero-latency, lossless)
  :class:`NetworkDescriptor`, byte tables, per-minute meter series and
  query signatures are bit-identical to ``LocalTransport``;
* **chaos convergence** — under every chaos profile with retries
  enabled, query results converge to the lossless answer, with the
  overhead visible only on the separate ``retransmit`` meter.
"""

from repro.net.chaos import CHAOS_PROFILES, LOSSLESS, ChaosProfile, PartitionWindow, fit_partitions
from repro.net.events import Event, EventScheduler
from repro.net.reliable import Batch, ReliableLink
from repro.net.transport import CHAOS_WIRE, LinkStats, NetTransport, NetworkDescriptor

__all__ = [
    "CHAOS_PROFILES",
    "CHAOS_WIRE",
    "LOSSLESS",
    "ChaosProfile",
    "PartitionWindow",
    "fit_partitions",
    "Event",
    "EventScheduler",
    "Batch",
    "ReliableLink",
    "LinkStats",
    "NetTransport",
    "NetworkDescriptor",
]
