"""Elastic deployments: live resharding, shard failover, autoscaling.

Every sharded deployment's shard map may change while it runs:
:class:`~repro.backend.sharded.ShardedBackend` itself carries the
per-host routing overrides, the grow-only engine list (stable shard
indices) and, under shard chaos, the supervised commit path and the
:class:`~repro.backend.sharded.ShardRoster` that lets fan-out reads
skip crashed shards.  This package drives that map while keeping
every invariance gate:

* :mod:`repro.elastic.reshard` — the :class:`ReshardCoordinator`
  migration protocol: minimal host movement on top of ``shard_for_key``,
  cutover-then-snapshot per host so ingest never stops, state streamed
  as ordinary reports on the separate ``migration`` meter;
* :mod:`repro.elastic.chaos` — :class:`ShardChaosProfile` schedules
  (crash, crash-restart, slow-shard), deterministic in simulated time;
* :mod:`repro.elastic.supervisor` — the :class:`ShardSupervisor`:
  timeout detection, exponential-backoff probing, a bounded redelivery
  queue, and in-order replay on restart;
* :mod:`repro.elastic.autoscale` — queue-depth-driven
  :class:`AutoscalePolicy` / :class:`Autoscaler` triggering reshards
  under the fig14 load shapes.

Two gates pin this package's correctness
(``benchmarks/perf/run.py elastic --check``):

* **reshard bit-identity** — after a live ``from_n -> to_n`` migration
  the deployment's byte tables, query signatures and stored-trace sets
  equal a fresh ``Deployment.sharded(to_n)`` run over the same stream,
  with migration traffic confined to the ``migration`` meter;
* **failover convergence** — under every recoverable shard-chaos
  profile, queries during the outage degrade to ``partial`` without
  raising, and after replay the answers equal the no-chaos run's.
"""

from repro.elastic.autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.elastic.chaos import (
    SHARD_CHAOS_PROFILES,
    ShardChaosProfile,
    ShardOutage,
    fit_outages,
)
from repro.elastic.reshard import (
    HostMove,
    MigrationStats,
    ReshardCoordinator,
    placement_violations,
)
from repro.elastic.supervisor import ShardSupervisor, SupervisorStats

__all__ = [
    "SHARD_CHAOS_PROFILES",
    "AutoscalePolicy",
    "Autoscaler",
    "HostMove",
    "MigrationStats",
    "ReshardCoordinator",
    "ScaleEvent",
    "ShardChaosProfile",
    "ShardOutage",
    "ShardSupervisor",
    "SupervisorStats",
    "fit_outages",
    "placement_violations",
]
