"""The deployment plane: transports, topology descriptors, backend contract.

This package is the one seam between the agent/collector fleet and the
backend(s).  It owns:

* the wire constants and callback types every layer shares, and the
  traffic-class table — how each kind of traffic is metered, linked
  and landed (:mod:`repro.transport.wire`);
* the :class:`BackendPlane` contract both backends implement
  (:mod:`repro.transport.plane`);
* the :class:`Transport` protocol and the in-process
  :class:`LocalTransport`, where *all* byte charging happens
  (:mod:`repro.transport.transport`);
* the :class:`Deployment` descriptor that picks a topology — single
  backend or N shards — and builds it (:mod:`repro.transport.deployment`).

Invariance guarantee: deployments differ only in routing and metering
granularity.  Query results and merged byte tables are identical across
topologies over the same stream; CI's sharded gate enforces it.
"""

from repro.transport.deployment import Deployment
from repro.transport.plane import BackendPlane
from repro.transport.transport import LocalTransport, Transport
from repro.transport.wire import NOTIFY_MESSAGE_BYTES, NotifyMeter, ReportSender

__all__ = [
    "NOTIFY_MESSAGE_BYTES",
    "NotifyMeter",
    "ReportSender",
    "BackendPlane",
    "Transport",
    "LocalTransport",
    "Deployment",
]
