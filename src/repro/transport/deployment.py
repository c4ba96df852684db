"""Deployment descriptors: the topology half of the deployment plane.

A :class:`Deployment` is a small immutable value describing *how* a
Mint deployment is laid out — one backend, or N hash-partitioned
shards, reached over an in-process wire or a simulated network — and
knowing how to build the matching backend plane and transport.  Every
layer that used to fork on framework classes (experiment harness, load
tests, benchmarks, examples) parameterizes over these descriptors
instead; the framework itself takes one and wires agents, collectors,
backend and transport from it.

The binding correctness contract is topology invariance: for the same
ingest stream, any deployment's query results and byte tables are
identical to the single backend's.  Descriptors only choose *where*
reports are routed, *which* ledgers are charged and *what the wire
does in between* — never what is parsed, sampled, or answered (a lossy
wire may add retransmit-meter overhead, nothing else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.transport.wire import NotifyMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.config import MintConfig
    from repro.elastic.chaos import ShardChaosProfile
    from repro.net.transport import NetworkDescriptor
    from repro.sim.meters import OverheadLedger
    from repro.transport.plane import BackendPlane
    from repro.transport.transport import Clock, Transport


@dataclass(frozen=True)
class Deployment:
    """Topology of a Mint deployment.

    ``num_shards == 0`` means the single (unsharded) backend;
    ``num_shards >= 1`` means a :class:`ShardedBackend` with that many
    shards.  ``Deployment.sharded(1)`` is deliberately distinct from
    ``Deployment.single()``: the former runs the full routing/merge
    machinery at N=1 (the pinned degenerate-equivalence case), the
    latter the reference backend.

    ``network`` selects the wire: ``None`` is the in-process
    :class:`~repro.transport.transport.LocalTransport`; a
    :class:`~repro.net.transport.NetworkDescriptor` builds the
    simulated network plane (:class:`~repro.net.transport.NetTransport`)
    with that descriptor's latency/batching/chaos configuration.

    A sharded deployment's shard map can change while it runs: a
    :class:`~repro.elastic.reshard.ReshardCoordinator` (or the
    framework's ``reshard()``) rescales it live, by default toward the
    declared ``reshard_to`` shards, and a ``shard_chaos`` profile
    attaches the failover supervisor.  Neither changes what is stored or
    answered — a resharded run ends bit-identical to a fresh
    ``Deployment.sharded(reshard_to)`` run over the same stream.
    """

    num_shards: int = 0
    network: "NetworkDescriptor | None" = None
    reshard_to: "int | None" = None
    shard_chaos: "ShardChaosProfile | None" = None
    # Concurrent ingest plane: 0 = the classic single-threaded loop;
    # N >= 1 fans the parse/sample hot path over N worker lanes
    # (``worker_mode`` picks threads or processes) with a deterministic
    # apply barrier every ``ingest_epoch`` traces.  Results are
    # bit-identical to workers=0 by the concurrent plane's contract.
    workers: int = 0
    worker_mode: str = "thread"
    ingest_epoch: int = 32
    # Self-observability plane (PR 9): True wires a live metrics
    # registry and tracing seam through every component; False hands
    # them the shared null observer.  On or off, byte tables, meter
    # series and query signatures are bit-identical by contract
    # (instrumentation reads clocks, never pumps them) — the obs bench
    # gates it.
    observability: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 0:
            raise ValueError("num_shards must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {self.worker_mode!r}"
            )
        if self.ingest_epoch <= 0:
            raise ValueError("ingest_epoch must be a positive trace count")
        if self.workers > 0 and self.network is not None:
            raise ValueError(
                "parallel ingest needs the synchronous in-process wire; "
                "a simulated network plane cannot be driven by worker lanes yet"
            )
        if self.reshard_to is not None or self.shard_chaos is not None:
            if self.num_shards <= 0:
                raise ValueError(
                    "reshard targets and shard chaos need a sharded deployment "
                    "(Deployment.sharded(n, reshard_to=..., shard_chaos=...))"
                )
            if self.workers > 0:
                raise ValueError(
                    "parallel ingest does not compose with resharding or shard "
                    "chaos yet (resharding mutates the fleet the lanes partition over)"
                )
        if self.reshard_to is not None:
            if self.reshard_to <= 0:
                raise ValueError("resharding needs at least one destination shard")
            if self.reshard_to == self.num_shards:
                raise ValueError(
                    "resharding must change the shard count "
                    f"(from {self.num_shards} to {self.reshard_to} is a no-op)"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        network: "NetworkDescriptor | None" = None,
        workers: int = 0,
        worker_mode: str = "thread",
        ingest_epoch: int = 32,
        observability: bool = True,
    ) -> "Deployment":
        """The reference topology: one backend, one storage engine.

        ``workers`` runs the ingest hot path on that many worker lanes
        (``worker_mode``: ``"thread"`` or ``"process"``), bit-identical
        to the single-threaded loop by contract."""
        return cls(
            num_shards=0,
            network=network,
            workers=workers,
            worker_mode=worker_mode,
            ingest_epoch=ingest_epoch,
            observability=observability,
        )

    @classmethod
    def sharded(
        cls,
        num_shards: int,
        network: "NetworkDescriptor | None" = None,
        workers: int = 0,
        worker_mode: str = "thread",
        ingest_epoch: int = 32,
        observability: bool = True,
        reshard_to: int | None = None,
        shard_chaos: "ShardChaosProfile | None" = None,
    ) -> "Deployment":
        """N hash-partitioned shards behind the merged view.

        ``workers`` adds the concurrent ingest plane on top; with
        ``workers == num_shards`` each shard's producer fleet runs on
        its own worker lane (hosts hash to lanes with the same stable
        hash that routes them to shards).  ``reshard_to`` declares the
        shard count a live reshard moves to (the framework's
        ``reshard()`` default) and sizes the engines and per-shard
        ledgers for it up front; ``shard_chaos`` schedules shard
        outages for the failover supervisor."""
        if num_shards <= 0:
            raise ValueError("a sharded deployment needs at least one shard")
        return cls(
            num_shards=num_shards,
            network=network,
            workers=workers,
            worker_mode=worker_mode,
            ingest_epoch=ingest_epoch,
            observability=observability,
            reshard_to=reshard_to,
            shard_chaos=shard_chaos,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_sharded(self) -> bool:
        """True when reports are routed across shard engines."""
        return self.num_shards > 0

    @property
    def is_parallel(self) -> bool:
        """True when ingest fans out over the concurrent worker plane."""
        return self.workers > 0

    @property
    def ledger_count(self) -> int:
        """How many per-shard ledgers the transport should charge.

        A deployment with a reshard target sizes for it up front so
        per-shard panels cover the destination shards from time zero;
        any other reshard (or autoscaling) grows the ledger list on
        demand.
        """
        return max(self.num_shards, self.reshard_to or 0)

    def describe(self) -> str:
        """Human-readable topology label."""
        topology = "single-backend" if not self.is_sharded else f"{self.num_shards}-shard"
        if self.reshard_to is not None:
            topology = f"{self.num_shards}->{self.reshard_to}-shard"
        if self.shard_chaos is not None and not self.shard_chaos.is_benign:
            topology += f"+shardchaos={self.shard_chaos.name}"
        if self.is_parallel:
            topology += f"+{self.workers}w-{self.worker_mode}"
        if not self.observability:
            topology += "+obs-off"
        if self.network is None:
            return topology
        return f"{topology}+{self.network.describe()}"

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def build_backend(
        self, config: "MintConfig", notify_meter: NotifyMeter | None = None
    ) -> "BackendPlane":
        """Construct the backend plane this topology describes.

        Backends are imported lazily: they subclass
        :class:`~repro.transport.plane.BackendPlane`, so importing them
        at module top would make the transport package and the backend
        package each other's import-time prerequisite.
        """
        from repro.backend.backend import MintBackend
        from repro.backend.sharded import ShardedBackend

        if not self.is_sharded:
            return MintBackend(
                bloom_buffer_bytes=config.bloom_buffer_bytes,
                bloom_fpp=config.bloom_fpp,
                notify_meter=notify_meter,
            )
        return ShardedBackend(
            num_shards=self.num_shards,
            bloom_buffer_bytes=config.bloom_buffer_bytes,
            bloom_fpp=config.bloom_fpp,
            notify_meter=notify_meter,
            target_shards=self.reshard_to,
            shard_chaos=self.shard_chaos,
        )

    def build_transport(
        self,
        backend: "BackendPlane",
        ledger: "OverheadLedger",
        clock: "Clock | None" = None,
        shard_ledgers: "list[OverheadLedger] | None" = None,
    ) -> "Transport":
        """Construct the wire this deployment charges its bytes on.

        ``network is None`` wires the in-process ``LocalTransport``;
        otherwise the simulated network plane is built from the
        descriptor.  Lazy imports for the same cycle reason as
        :meth:`build_backend` — the net package sits on top of the
        transport seam, not under it.
        """
        from repro.transport.transport import LocalTransport

        if self.network is None:
            return LocalTransport(
                backend, ledger, clock=clock, shard_ledgers=shard_ledgers
            )
        from repro.net.transport import NetTransport

        return NetTransport(
            backend,
            ledger,
            clock=clock,
            shard_ledgers=shard_ledgers,
            network=self.network,
        )
