"""The live analyst plane: standing queries and streaming push delivery.

``framework.subscribe(spec)`` registers a frozen
:class:`~repro.query.spec.QuerySpec` as a standing query; the
:class:`~repro.live.plane.LiveQueryPlane` matches newly sampled traces
against the registry on the ``on_sampled`` seam and streams
:class:`~repro.live.subscription.PushNotification`\\ s to subscribers —
over the simulated wire (dedicated ``push::`` links, the separate
``push`` meter) when a network transport is deployed.

The plane's contract: a subscription's accumulated hit set over a
stream is bit-identical to running the same spec as a post-hoc batch
query, on every topology, under chaos, across live reshard — gated by
``benchmarks/perf/run.py live --check``.
"""

from repro.live.plane import LiveQueryPlane
from repro.live.subscription import PushCallback, PushNotification, Subscription

__all__ = [
    "LiveQueryPlane",
    "PushCallback",
    "PushNotification",
    "Subscription",
]
