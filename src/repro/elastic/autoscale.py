"""Queue-depth-driven autoscaling over the reshard protocol.

The pressure signal is per-shard *queue depth*: reports waiting in the
transport's send queues for links the shard owns, plus reports parked
in the supervisor's redelivery queue for that shard.  Depth is the
honest backlog metric in this system — a shard that cannot keep up (or
is down) accumulates exactly there — and it is observable without
touching the byte tables.

:class:`AutoscalePolicy` turns depths into a target shard count with
hysteresis (scale up at ``scale_up_depth``, down only below
``scale_down_depth``, cooldown between transitions);
:class:`Autoscaler` binds a policy to a framework, runs one
:class:`~repro.elastic.reshard.ReshardCoordinator` transition at a
time, and spreads the host moves one per observation tick so migration
interleaves with ingest exactly as the manual harness does.  The fig14
load shapes drive it in :func:`repro.sim.elastic.run_elastic_load_test`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backend.sharded import ShardedBackend
from repro.elastic.reshard import ReshardCoordinator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework import MintFramework


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to change the shard count, as immutable configuration."""

    scale_up_depth: int = 32
    scale_down_depth: int = 2
    min_shards: int = 1
    max_shards: int = 8
    factor: int = 2
    cooldown_s: float = 10.0

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.factor < 2:
            raise ValueError("factor must be >= 2")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError(
                "scale_down_depth must sit below scale_up_depth (hysteresis)"
            )
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")

    def target(self, current: int, depths: list[int]) -> int | None:
        """The shard count the depths call for, or None to hold."""
        if not depths:
            return None
        peak = max(depths)
        if peak >= self.scale_up_depth and current < self.max_shards:
            return min(self.max_shards, current * self.factor)
        if peak <= self.scale_down_depth and current > self.min_shards:
            return max(self.min_shards, current // self.factor)
        return None


@dataclass
class ScaleEvent:
    """One autoscaling decision, for the load-test report."""

    at_s: float
    from_shards: int
    to_shards: int
    peak_depth: int

    def as_dict(self) -> dict[str, object]:
        return {
            "at_s": round(self.at_s, 3),
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "peak_depth": self.peak_depth,
        }


@dataclass
class Autoscaler:
    """A policy bound to one framework's backend and transport."""

    framework: "MintFramework"
    policy: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    events: list[ScaleEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.framework.backend, ShardedBackend):
            raise TypeError("autoscaling needs a sharded deployment")
        self._coordinator: ReshardCoordinator | None = None
        self._last_scale_s = float("-inf")
        self.peak_depth = 0

    # ------------------------------------------------------------------
    # The pressure signal
    # ------------------------------------------------------------------
    def shard_depths(self) -> list[int]:
        """Per-shard backlog: queued wire reports + parked redeliveries."""
        backend = self.framework.backend
        depths = [0] * len(backend.shards)
        for link, depth in self.framework.transport.queue_depths().items():
            depths[backend.shard_for(link)] += depth
        supervisor = backend.supervisor
        if supervisor is not None:
            for shard, depth in supervisor.queue_depths().items():
                depths[shard] += depth
        return depths

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def observe(self, now: float) -> None:
        """One control tick: advance a migration, or decide a new one.

        An in-progress transition takes priority — one host moves per
        tick, so migration load spreads over the ingest timeline
        instead of stalling it."""
        if self._coordinator is not None:
            if not self._coordinator.step():
                self._coordinator = None
            return
        if now - self._last_scale_s < self.policy.cooldown_s:
            return
        depths = self.shard_depths()
        if depths:
            self.peak_depth = max(self.peak_depth, max(depths))
        backend = self.framework.backend
        target = self.policy.target(backend.num_shards, depths)
        if target is None or target == backend.num_shards:
            return
        self.events.append(
            ScaleEvent(
                at_s=now,
                from_shards=backend.num_shards,
                to_shards=target,
                peak_depth=max(depths),
            )
        )
        self._last_scale_s = now
        self._coordinator = ReshardCoordinator(
            backend, self.framework.transport, target
        )
        self._coordinator.start()

    def finish(self) -> None:
        """Complete any in-flight transition (end of the load shape)."""
        if self._coordinator is not None:
            self._coordinator.run()
            self._coordinator = None

    @property
    def resharding(self) -> bool:
        """True while a transition is mid-flight."""
        return self._coordinator is not None
