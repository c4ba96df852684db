"""Standing-query subscriptions and their push notifications.

A :class:`Subscription` is an analyst's registration of one frozen
:class:`~repro.query.spec.QuerySpec` as a *standing* query: instead of
running the spec once against the settled store, the live query plane
evaluates it continuously as sampled traces land, and streams one
:class:`PushNotification` per matching trace to the subscriber.

The contract mirrors the batch query surface exactly — same spec
grammar, same :func:`~repro.query.spec.matches_result` semantics —
so the headline gate of the live plane can be stated simply: the
subscription's accumulated hit set over a stream is bit-identical to
running the same spec as a post-hoc batch query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.query.spec import QuerySpec
from repro.transport.wire import PUSH_MESSAGE_BYTES

# Subscriber-side delivery callback: called once per accepted (deduped)
# push, with the notification and the subscriber's wire time.
PushCallback = Callable[["PushNotification", float], None]


@dataclass(frozen=True)
class PushNotification:
    """One backend->subscriber push: "your standing query matched".

    ``matched_at`` is the simulated wire time at which the match was
    committed on the backend side; the subscriber-side push-latency
    histogram measures arrival time minus this stamp, so on a real
    (latent, batching) wire the panel shows genuine delivery delay.
    ``phase`` records whether the match streamed mid-ingest
    (``"stream"``) or was swept in by the finalize catch-up
    (``"settle"``) — diagnostic only, never part of the identity gate.
    """

    subscription_id: str
    trace_id: str
    status: str
    matched_at: float
    phase: str = "stream"

    def size_bytes(self) -> int:
        """Wire size, charged on the transport's ``push`` meter."""
        return PUSH_MESSAGE_BYTES


@dataclass
class Subscription:
    """One analyst's standing query and its delivered hit set.

    The plane owns matching and sending; the subscription owns the
    *receive* side: arrival-order ``hits``, per-trace idempotence
    (``deliver`` rejects a trace id it has already accepted, whatever
    the wire did), and an optional ``on_push`` callback fired once per
    accepted push — the seam the incident harness hangs its
    detection-latency probe on.

    A raising callback never aborts delivery: the push still counts,
    the subscription stays active, ``callback_errors`` counts every
    failure and ``error`` keeps the first, which ``finalize`` re-raises
    once the store has settled and been metered.
    """

    id: str
    spec: QuerySpec
    active: bool = True
    on_push: PushCallback | None = None
    hits: list[PushNotification] = field(default_factory=list)
    error: Exception | None = None
    callback_errors: int = 0
    # Receive-side dedup: trace ids already accepted.  The wire's
    # reliable layer is exactly-once per link, but idempotence here is
    # the subscription's own guarantee — it must hold under repeated
    # finalize sweeps and any future at-least-once delivery path.
    _delivered: set = field(default_factory=set)
    # Send-side dedup, owned by the plane: trace ids already pushed
    # (including pushes still in flight on a latent wire).
    _pushed: set = field(default_factory=set)
    # Sampled candidates not yet committed or rejected.
    _pending: set = field(default_factory=set)

    def __post_init__(self) -> None:
        # Explicit targets narrow the notification stream; a predicate
        # spec with an empty universe watches every sampled trace.
        self._targets = set(self.spec.trace_ids) or None

    def wants(self, trace_id: str) -> bool:
        """Is this sampled trace inside the spec's candidate universe?"""
        return self._targets is None or trace_id in self._targets

    def deliver(self, note: PushNotification, now: float) -> bool:
        """Accept one arriving push; False if its trace was already
        delivered (the idempotence check) or the subscription is gone."""
        if not self.active or note.trace_id in self._delivered:
            return False
        self._delivered.add(note.trace_id)
        self.hits.append(note)
        if self.on_push is not None:
            try:
                self.on_push(note, now)
            except Exception as exc:
                self.callback_errors += 1
                if self.error is None:
                    self.error = exc
        return True

    @property
    def hit_ids(self) -> tuple[str, ...]:
        """The accumulated hit set, sorted — the identity-gate operand."""
        return tuple(sorted(self._delivered))

    @property
    def hit_statuses(self) -> dict[str, str]:
        """trace id -> delivered status (first delivery wins)."""
        statuses: dict[str, str] = {}
        for note in self.hits:
            statuses.setdefault(note.trace_id, note.status)
        return statuses

    def summary(self) -> dict[str, object]:
        """Deterministic per-subscription stats for reports."""
        return {
            "id": self.id,
            "spec": self.spec.describe(),
            "active": self.active,
            "pushed": len(self._pushed),
            "delivered": len(self._delivered),
            "pending": len(self._pending),
        }


__all__ = ["PushNotification", "Subscription", "PushCallback"]
