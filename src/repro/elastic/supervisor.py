"""The shard supervisor: failure detection, parking, and replay.

Sits on the sharded backend's commit path, between the transport's
exactly-once delivery and the storage engines.  When the shard owning a
report is crashed (per the deployment's :class:`ShardChaosProfile`),
the commit attempt *times out*: the supervisor marks the shard
suspected-down, parks the report in a bounded redelivery queue, and
re-probes the shard with exponential backoff.  When a probe finds the
shard back (the outage window ended), the parked queue replays in
arrival order — commits go straight into the engines, with no new wire
bytes, because the transport already charged these reports at delivery.

A slow shard parks too, but with a due time instead of an outage: its
commits land ``slowdown_s`` late and in order, which is exactly what a
backed-up box does.

Nothing here is random: outages come from the profile's schedule and
time comes from the transport's clock, so a chaos run is replayable —
and the harness gates can assert that the chaos demonstrably fired
(timeouts observed, reports parked, replay happened) rather than being
vacuously green.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.elastic.chaos import ShardChaosProfile
from repro.obs.trace import NULL_OBSERVER, Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.reports import Report

# Simulated-time source (bound to the transport's wire clock).
ClockFn = Callable[[], float]


@dataclass
class SupervisorStats:
    """What the chaos demonstrably did — the gates' evidence."""

    timeouts: int = 0
    parked: int = 0
    replayed: int = 0
    dropped: int = 0
    probes: int = 0
    recoveries: int = 0
    max_parked: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "timeouts": self.timeouts,
            "parked": self.parked,
            "replayed": self.replayed,
            "dropped": self.dropped,
            "probes": self.probes,
            "recoveries": self.recoveries,
            "max_parked": self.max_parked,
        }


@dataclass
class _Parked:
    """One undeliverable report waiting in a shard's redelivery queue."""

    report: "Report"
    due_s: float
    # Simulated instant the report was parked — the park->replay stage
    # latency is measured against this, entirely in sim time, so the
    # panel is deterministic for a given chaos schedule.
    parked_at_s: float = 0.0


@dataclass
class ShardSupervisor:
    """Detects dead shards, parks undeliverable reports, replays them.

    ``commit`` is the direct store path (the sharded backend's
    supervisor-free commit), used both for replay and so a replayed
    report is routed by the *current* shard map — a host migrated while
    its report was parked lands on its new owner.
    """

    profile: ShardChaosProfile
    commit: Callable[["Report"], None]
    owner_of: Callable[[str], int]
    redelivery_capacity: int = 4096
    rto_s: float = 0.5
    max_backoff_s: float = 8.0
    stats: SupervisorStats = field(default_factory=SupervisorStats)

    def __post_init__(self) -> None:
        if self.redelivery_capacity < 1:
            raise ValueError("redelivery_capacity must be >= 1")
        if self.rto_s <= 0:
            raise ValueError("rto_s must be > 0")
        if self.max_backoff_s < self.rto_s:
            raise ValueError("max_backoff_s must be >= rto_s")
        self._clock: ClockFn = lambda: 0.0
        self._time = 0.0
        self._queues: dict[int, deque[_Parked]] = {}
        self._parked_total = 0
        # Suspected-down shards and their backoff probe schedule.
        self._suspected: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._next_probe: dict[int, float] = {}
        self.observer: Observer = NULL_OBSERVER

    def bind_clock(self, clock: ClockFn) -> None:
        """Point the supervisor at the transport's simulated clock."""
        self._clock = clock

    def bind_observer(self, observer: Observer) -> None:
        """Attach the observability plane's handle."""
        self.observer = observer

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time (monotonic across clock rebinds)."""
        self._time = max(self._time, self._clock())
        return self._time

    # ------------------------------------------------------------------
    # The commit path
    # ------------------------------------------------------------------
    def intercept(self, report: "Report") -> bool:
        """Decide one report's fate; True when it was parked.

        Ticks the redelivery queues first, so a restart observed at
        this delivery replays the backlog *before* the new report —
        per-shard commit order is arrival order, always.
        """
        now = self.now()
        self.pump(now)
        shard = self.owner_of(report.node)
        queue = self._queues.get(shard)
        if queue:
            # FIFO behind an undrained backlog, whatever delayed it.
            self._park(shard, report, queue[-1].due_s)
            return True
        if self.profile.down(shard, now):
            # The delivery timed out against a dead box: suspect it and
            # schedule the first backoff probe.
            self.stats.timeouts += 1
            if shard not in self._suspected:
                self._suspected.add(shard)
                self._attempts[shard] = 1
                self._next_probe[shard] = now + self._backoff(1)
            self._park(shard, report, now)
            return True
        slowdown = self.profile.slowdown(shard, now)
        if slowdown > 0:
            self._park(shard, report, now + slowdown)
            return True
        return False

    def _backoff(self, attempts: int) -> float:
        return min(self.rto_s * (2 ** (attempts - 1)), self.max_backoff_s)

    def _park(self, shard: int, report: "Report", due_s: float) -> None:
        queue = self._queues.setdefault(shard, deque())
        if self._parked_total >= self.redelivery_capacity:
            # The bounded queue is full: shed the oldest parked report
            # for this shard (degraded, and counted — the gates assert
            # a healthy run sheds nothing).
            victim_queue = queue if queue else max(
                self._queues.values(), key=len
            )
            victim_queue.popleft()
            self._parked_total -= 1
            self.stats.dropped += 1
        if queue and due_s < queue[-1].due_s:
            due_s = queue[-1].due_s
        queue.append(_Parked(report, due_s, parked_at_s=self._time))
        self._parked_total += 1
        self.stats.parked += 1
        self.stats.max_parked = max(self.stats.max_parked, self._parked_total)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def pump(self, now: float | None = None) -> None:
        """Probe suspected shards and replay whatever became deliverable.

        A suspected shard is only re-tried at its backoff-scheduled
        probe time; a probe that finds the outage over clears the
        suspicion and replays the shard's queue in arrival order (up to
        entries whose due time — slow-shard delay — is still in the
        future).
        """
        if now is None:
            now = self.now()
        for shard in list(self._queues):
            queue = self._queues[shard]
            if not queue:
                continue
            if shard in self._suspected:
                next_probe = self._next_probe.get(shard, 0.0)
                if now < next_probe:
                    continue
                self.stats.probes += 1
                if self.profile.down(shard, now):
                    # Still dead: back off further.
                    attempts = self._attempts.get(shard, 1) + 1
                    self._attempts[shard] = attempts
                    self._next_probe[shard] = now + self._backoff(attempts)
                    continue
                self._suspected.discard(shard)
                self._attempts.pop(shard, None)
                self._next_probe.pop(shard, None)
                self.stats.recoveries += 1
            elif self.profile.down(shard, now):
                continue
            while queue and queue[0].due_s <= now:
                entry = queue.popleft()
                self._parked_total -= 1
                self.commit(entry.report)
                self.stats.replayed += 1
                if self.observer.enabled:
                    self.observer.observe_sim(
                        "supervisor_park_replay",
                        max(0.0, now - entry.parked_at_s),
                        shard=str(shard),
                    )

    def settle(self) -> None:
        """End-of-run convergence: replay everything replayable.

        Advances the supervisor's clock past every recoverable outage
        and every slow-shard due time, forces immediate probes, and
        pumps until only permanently-crashed shards' queues remain.
        Called by the framework's ``finalize`` after the transport
        drained, so post-finalize queries see the reconverged store.
        """
        if not self._parked_total:
            return
        horizon = self.now()
        horizon = max(horizon, self.profile.final_recovery_s())
        for queue in self._queues.values():
            for entry in queue:
                horizon = max(horizon, entry.due_s)
        self._time = max(self._time, horizon)
        self._next_probe = {shard: 0.0 for shard in self._suspected}
        self.pump(self._time)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def down_shards(self) -> set[int]:
        """Shards unreachable right now (what reads must skip).

        Ticks the queues first so a read after a restart sees the
        replayed state even when no new delivery has pumped yet.
        """
        now = self.now()
        self.pump(now)
        return self.profile.down_shards(now)

    def queue_depths(self) -> dict[int, int]:
        """Parked reports per shard (the autoscaler's pressure signal)."""
        return {
            shard: len(queue) for shard, queue in self._queues.items() if queue
        }

    @property
    def parked_reports(self) -> int:
        """Reports currently parked across all redelivery queues."""
        return self._parked_total
