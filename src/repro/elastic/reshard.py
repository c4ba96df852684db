"""Live resharding: minimal host movement, streamed over the wire.

``shard_for_key`` is a stable content hash, so rescaling from ``from_n``
to ``to_n`` shards moves exactly the hosts whose hash changes owner —
the :class:`ReshardCoordinator` computes that minimal set and migrates
it host by host while ingest continues:

1. **cutover** — the host's route is pinned to its destination shard,
   so every delivery from this instant lands on the new owner;
2. **snapshot** — the source engine's state for the host (stored Bloom
   filters and parameter buckets) is evicted in one step.  Cutover
   happens *first*, so the snapshot and the post-cutover deliveries
   partition the host's reports exactly: nothing is stranded, nothing
   is stored twice;
3. **stream** — the snapshot is re-sent as ordinary Bloom/params
   reports through :meth:`Transport.deliver` as ``MIGRATION`` traffic,
   which charges the separate ``migration`` meter (the ``retransmit``
   discipline: byte tables stay topology-invariant, the overhead is
   visible on its own meter).  Over the simulated network plane the
   state rides real migration links — batched, lossy, retried — and
   still converges.

Pattern libraries never move: their ids are content hashes, so the
merged fan-out resolves any shard's copy, and the destination re-learns
patterns from live traffic for free.  When every host is placed, the
routing modulus flips to ``to_n`` and the overrides dissolve into the
hash map.  The correctness bar (``run.py elastic --check``) is
bit-identity: a migrated deployment's byte tables, query signatures and
stored-trace sets equal a fresh ``Deployment.sharded(to_n)`` run over
the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.agent.reports import BloomReport, ParamsReport
from repro.backend.sharded import ShardedBackend, shard_for_key
from repro.cold.blocks import PARAMS_KIND
from repro.transport.wire import MIGRATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.transport import Transport


@dataclass(frozen=True)
class HostMove:
    """One host's relocation in a reshard plan."""

    host: str
    source: int
    target: int


@dataclass
class MigrationStats:
    """What the migration cost, host by host and in total."""

    hosts_moved: int = 0
    bloom_reports: int = 0
    params_reports: int = 0
    migrated_bytes: int = 0
    moves: list[HostMove] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "hosts_moved": self.hosts_moved,
            "bloom_reports": self.bloom_reports,
            "params_reports": self.params_reports,
            "migrated_bytes": self.migrated_bytes,
            "moves": [
                {"host": m.host, "source": m.source, "target": m.target}
                for m in self.moves
            ],
        }


class ReshardCoordinator:
    """Drives one ``from_n -> to_n`` transition, one host per step.

    ``step()`` migrates a single host and returns True while work
    remains, so a harness can interleave migration with ingest —
    routing never stops, queries never stop.  ``run()`` is the
    uninterleaved convenience.  The plan is recomputed when the queue
    empties, so hosts first seen *during* the migration are placed too
    before the routing modulus flips.
    """

    def __init__(
        self,
        backend: ShardedBackend,
        transport: "Transport",
        to_shards: int,
    ) -> None:
        if not isinstance(backend, ShardedBackend):
            raise TypeError("live resharding needs a sharded deployment")
        if to_shards <= 0:
            raise ValueError("resharding needs at least one destination shard")
        self.backend = backend
        self.transport = transport
        self.to_shards = to_shards
        self.stats = MigrationStats()
        self.finished = False
        self._pending: list[HostMove] = []
        self._started = False
        backend.ensure_engines(to_shards)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> list[HostMove]:
        """The minimal movement set: hosts whose hash changes owner.

        Computed against the backend's *current* routing, so hosts
        already pinned to their destination drop out — the plan is
        always the remaining work."""
        moves = []
        for collector in self.backend._collectors:
            host = collector.node
            source = self.backend.shard_for(host)
            target = shard_for_key(host, self.to_shards)
            if source != target:
                moves.append(HostMove(host=host, source=source, target=target))
        return moves

    def start(self) -> None:
        """Freeze the initial plan (idempotent)."""
        if not self._started:
            self._pending = self.plan()
            self._started = True

    @property
    def active(self) -> bool:
        """True from ``start()`` until the routing modulus flipped."""
        return self._started and not self.finished

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Migrate one host; True while more work remains."""
        if self.finished:
            return False
        self.start()
        if not self._pending:
            self._pending = self.plan()
        if self._pending:
            self._migrate(self._pending.pop(0))
        if not self._pending and not self.plan():
            self._finish()
            return False
        return True

    def run(self) -> MigrationStats:
        """Migrate every host back to back, then flip routing."""
        while self.step():
            pass
        return self.stats

    def _migrate(self, move: HostMove) -> None:
        backend = self.backend
        # (1) cutover: from here on the host's deliveries land on the
        # target shard, so the snapshot below is everything the source
        # will ever hold for this host.
        backend.pin_route(move.host, move.target)
        # (2) snapshot: evict the host's stored state from the source
        # engine (byte counters move with it).
        source = backend.shards[move.source]
        blooms, params = source.evict_host(move.host)
        # (3) stream the snapshot as ordinary reports on the migration
        # meter.  Filters are re-serialised from the stored state —
        # bit-for-bit what was stored, so re-storing on the target
        # conserves the merged byte tables exactly.
        for stored in blooms:
            report = BloomReport(
                node=move.host,
                topo_pattern_id=stored.topo_pattern_id,
                payload=stored.filter.to_bytes(),
                inserted=stored.filter.inserted,
            )
            self.stats.bloom_reports += 1
            self.stats.migrated_bytes += report.size_bytes()
            self.transport.deliver(report, MIGRATION)
        for trace_id in sorted(params):
            report = ParamsReport(
                node=move.host, trace_id=trace_id, records=params[trace_id]
            )
            self.stats.params_reports += 1
            self.stats.migrated_bytes += report.size_bytes()
            self.transport.deliver(report, MIGRATION)
        self.stats.hosts_moved += 1
        self.stats.moves.append(move)

    def _finish(self) -> None:
        """Flip the hash modulus; overrides dissolve into the new map."""
        self.backend.set_routing_shards(self.to_shards)
        self.finished = True


def placement_violations(backend: ShardedBackend) -> list[str]:
    """Audit that every host's stored state sits on its hash owner.

    The post-migration invariant behind the bit-identity gate: for
    every registered host, no engine other than
    ``shard_for_key(host, num_shards)`` holds any of its Bloom filters
    or parameter records (modulo still-pinned routes, which count as
    the owner).  Sealed state is read off its hot metadata: a sealed
    params bucket is decoded only when its block's host set names a
    host this shard does not own."""
    violations: list[str] = []
    owners = {
        collector.node: backend.shard_for(collector.node)
        for collector in backend._collectors
    }
    for index, engine in enumerate(backend.shards):
        for node in engine.blooms.nodes():
            if owners.get(node, index) != index:
                violations.append(
                    f"bloom for {node} on shard {index}, owner is {owners[node]}"
                )
        params, cold = engine.params, engine.cold
        blocks = [cold.block(block_id) for block_id in cold.block_ids(PARAMS_KIND)]
        suspect = {
            trace_id
            for block in blocks
            if any(owners.get(host, index) != index for host in block.hosts)
            for trace_id in block.members
        }
        for trace_id in params:
            if params.is_sealed(trace_id) and trace_id not in suspect:
                continue
            for record in params[trace_id]:
                node = record[2]
                if owners.get(node, index) != index:
                    violations.append(
                        f"params of {trace_id} from {node} on shard {index}, "
                        f"owner is {owners[node]}"
                    )
    return violations
