"""The live query plane: standing-query matching and push delivery.

:class:`LiveQueryPlane` sits between the backend plane and the
transport, claiming two existing seams:

* the backend's ``on_sampled`` hook — each newly sampled trace id is
  matched against the subscription registry as it lands, riding the
  same idempotent notification path the fleet-wide "check and report"
  ping uses;
* the transport's sink for ``PUSH`` traffic — arriving push
  notifications are routed to their subscription, deduplicated, and
  timed.

The registry is read-mostly in the RCU spirit the pattern plane
already uses: an immutable tuple snapshot swapped atomically under a
mutation-only lock.  The ingest hot path reads one attribute and never
locks; ``subscribe``/``unsubscribe`` build a new tuple and swap it.

Streaming-evaluation commit rule
--------------------------------

A standing query must accumulate, over the stream, *exactly* the hit
set the same spec yields as a post-hoc batch query.  Mid-stream the
plane therefore pushes only what can never be retracted:

* only ``EXACT`` results — exactness is permanent (storage only
  grows, and the cold tier's read-through preserves it), and the
  span predicates are existential, so an exact match stays a match as
  spans accrue;
* ``time_range`` specs commit eagerly only on fully synchronous
  topologies (``eager_time_range``) — the envelope's start can move
  while reports are in flight, and a retraction is impossible once
  pushed;
* everything else — partial hits that may upgrade, deferred windows,
  still-pending candidates — is caught up by :meth:`settle`, which
  runs the original spec against the settled store and pushes every
  hit not yet streamed.

Under-delivery is thus repaired by construction and over-delivery
prevented by construction, which is the headline identity gate of
``run.py live --check``.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.live.subscription import PushCallback, PushNotification, Subscription
from repro.obs.metrics import SIM_DOMAIN
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.query.spec import QuerySpec
from repro.transport.wire import PUSH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.plane import BackendPlane
    from repro.transport.transport import Transport


class LiveQueryPlane:
    """Standing-query registry, matcher and push dispatcher.

    Every sampling notification re-runs each subscription's whole
    pending set (pending sets hold only sampled-but-uncommitted ids,
    so they stay small).  On a latent wire a candidate's parameters
    are usually still in flight at its own notification; the pending
    re-evaluation is what lets it stream at a later notification
    instead of waiting for finalize.
    """

    def __init__(
        self,
        backend: "BackendPlane",
        transport: "Transport",
        observer: Observer = NULL_OBSERVER,
        *,
        eager_time_range: bool = False,
    ) -> None:
        self._backend = backend
        self._transport = transport
        self._eager_time_range = eager_time_range
        self._lock = threading.Lock()
        self._snapshot: tuple[Subscription, ...] = ()
        self._by_id: dict[str, Subscription] = {}
        self._seq = 0
        self._notifies = 0
        self._evaluations = 0
        self._pushes_streamed = 0
        self._pushes_settled = 0
        self._delivered = 0
        self._duplicates = 0
        self._dropped = 0
        # Claim the two seams, never overwriting an explicit hook —
        # the same discipline as notify_meter / flush_transport.
        if backend.on_sampled is None:
            backend.on_sampled = self._on_sampled
        transport.sinks.setdefault(PUSH.sink, self._on_push_arrival)
        self.bind_observer(observer)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, observer: Observer) -> None:
        """Cache the plane's instruments (hot-path handles, once).

        The plain-integer stats above are kept in parallel so
        ``live_stats()`` works on obs-off deployments; the registry
        handles are no-ops there, so obs-on vs obs-off changes no
        behaviour — the bit-identity gate's requirement.
        """
        self.observer = observer
        self._obs_delivered = observer.counter("mint_push_delivered", plane="live")
        self._obs_duplicates = observer.counter("mint_push_duplicates", plane="live")
        self._obs_dropped = observer.counter("mint_push_dropped", plane="live")
        # Backend-commit -> subscriber-arrival, in simulated time: the
        # wire's genuine delivery delay (zero on a synchronous wire).
        self._obs_push_latency = observer.stage_histogram(
            "push_delivery", domain=SIM_DOMAIN
        )

    # ------------------------------------------------------------------
    # Registry (mutation under lock, lock-free reads)
    # ------------------------------------------------------------------
    def subscribe(
        self, spec: QuerySpec, on_push: PushCallback | None = None
    ) -> Subscription:
        """Register one standing query; returns its live handle.

        Specs that cannot be standing queries are rejected loudly:
        ``pull_params`` would pump collectors from the ingest hot path,
        ``limit`` has no meaning on an unbounded stream, and a spec
        with neither predicates nor target ids matches nothing ever.
        """
        if spec.pull_params:
            raise ValueError("standing queries cannot pull_params")
        if spec.limit is not None:
            raise ValueError("standing queries cannot carry a limit")
        if not spec.has_predicates and not spec.trace_ids:
            raise ValueError("a standing query needs predicates or target ids")
        with self._lock:
            self._seq += 1
            sub = Subscription(
                id=f"sub-{self._seq:04d}", spec=spec, on_push=on_push
            )
            self._by_id[sub.id] = sub
            self._snapshot = self._snapshot + (sub,)
        return sub

    def unsubscribe(self, sub: Subscription | str) -> None:
        """Deactivate and drop one subscription from the snapshot.

        In-flight pushes for it are counted as dropped on arrival; the
        handle keeps its accumulated hits for the analyst to read.
        """
        handle = self._by_id[sub] if isinstance(sub, str) else sub
        with self._lock:
            handle.active = False
            self._snapshot = tuple(s for s in self._snapshot if s.active)

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        """The current registry snapshot (active subscriptions)."""
        return self._snapshot

    # ------------------------------------------------------------------
    # Matching (the ingest hot path)
    # ------------------------------------------------------------------
    def _on_sampled(self, trace_id: str) -> None:
        """One newly sampled trace: match it against the registry."""
        subs = self._snapshot  # one read — the registry's RCU contract
        if not subs:
            return
        self._notifies += 1
        for sub in subs:
            if not sub.active:
                continue
            if sub.wants(trace_id):
                sub._pending.add(trace_id)
            if sub._pending:
                self._evaluate(sub)

    def _evaluate(self, sub: Subscription) -> None:
        """Run the spec over the pending ids; push irrevocable matches.

        The spec's own candidate universe is replaced by the pending
        ids, and results are committed under the streaming rule (module
        docstring): EXACT only, time windows only when eager evaluation
        is safe.
        """
        fresh = tuple(sorted(c for c in sub._pending if c not in sub._pushed))
        if not fresh:
            return
        self._evaluations += 1
        eager = sub.spec.time_range is None or self._eager_time_range
        if not eager:
            return
        for result in self._backend.execute(replace(sub.spec, trace_ids=fresh)):
            if result.is_exact:
                self._send(sub, result.trace_id, str(result.status), "stream")

    def settle(self) -> None:
        """Finalize catch-up: push every hit the stream did not.

        Runs each subscription's *original* spec against the settled
        store — the identical call the post-hoc batch query makes — and
        pushes whatever ``_pushed`` is missing; a candidate whose stored
        patterns cannot satisfy the span predicates is never rebuilt.
        Idempotent across repeated finalizes: the send-side dedup only grows.
        """
        for sub in self._snapshot:
            if not sub.active:
                continue
            for result in self._backend.execute(sub.spec):
                if result.is_hit and result.trace_id not in sub._pushed:
                    self._send(sub, result.trace_id, str(result.status), "settle")
            sub._pending.clear()

    def _send(self, sub: Subscription, trace_id: str, status: str, phase: str) -> None:
        """Commit one match: dedup, stamp, and hand to the transport."""
        sub._pushed.add(trace_id)
        sub._pending.discard(trace_id)
        if phase == "stream":
            self._pushes_streamed += 1
        else:
            self._pushes_settled += 1
        self._transport.deliver(
            PushNotification(
                subscription_id=sub.id,
                trace_id=trace_id,
                status=status,
                matched_at=self._transport.wire_now(),
                phase=phase,
            ),
            PUSH,
        )

    # ------------------------------------------------------------------
    # Delivery (the transport's sink for PUSH traffic)
    # ------------------------------------------------------------------
    def _on_push_arrival(
        self, note: PushNotification, message_id: tuple | None = None
    ) -> None:
        """One push arrived at the subscriber's edge.

        ``message_id`` is the wire's deterministic (link, seq, index)
        tag on a simulated network, None in-process; the subscription's
        per-trace dedup makes delivery idempotent either way.
        """
        sub = self._by_id.get(note.subscription_id)
        now = self._transport.wire_now()
        if sub is None or not sub.active:
            self._dropped += 1
            self._obs_dropped.inc()
            return
        if not sub.deliver(note, now):
            self._duplicates += 1
            self._obs_duplicates.inc()
            return
        self._delivered += 1
        self._obs_delivered.inc()
        self._obs_push_latency.observe(max(0.0, now - note.matched_at))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def callback_error(self) -> Exception | None:
        """The first subscription's kept ``on_push`` error, or None."""
        return next((s.error for s in self._by_id.values() if s.error is not None), None)

    def stats(self) -> dict[str, object]:
        """Deterministic plane counters for reports and benches."""
        return {
            "subscriptions": len(self._by_id),
            "active": len(self._snapshot),
            "notifies": self._notifies,
            "evaluations": self._evaluations,
            "pushes_streamed": self._pushes_streamed,
            "pushes_settled": self._pushes_settled,
            "delivered": self._delivered,
            "duplicates": self._duplicates,
            "dropped": self._dropped,
            "callback_errors": sum(s.callback_errors for s in self._by_id.values()),
            "push_bytes": self._transport.meters[PUSH.meter].total_bytes,
            "per_subscription": [
                self._by_id[sid].summary() for sid in sorted(self._by_id)
            ],
        }


__all__ = ["LiveQueryPlane"]
