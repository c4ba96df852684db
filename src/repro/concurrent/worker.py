"""Lane-side worker state: one lane's agent/collector fleet.

A lane executes the plane's command protocol over whatever channel its
kind provides (an in-process queue or a pipe); this module is the part
that is channel-agnostic.  The one rule that makes the whole design
deterministic lives here: **a lane never touches the transport seam.**
Collectors on a lane are wired to a :class:`ReportRecorder` instead of
a transport, so the parse/sample hot path runs fully off-thread while
every report it would have sent is merely *stamped* with its position
in the sequential arrival order.  The parent replays the stamped
reports through the real transport at the apply barrier — single
writer, exact sequential order, every byte charged in one place.

Command protocol (tuples; first element is the op):

==============================  =======================================
``("warmup", items)``           offline warm-up; items are
                                ``(node, spans)`` pairs
``("ops", items)``              ingest batch; items are
                                ``(seq, sub_idx, now, sub_trace)``
``("barrier",)``                reply ``("phase1", reports, sampled,
                                overflows)`` and reset the accumulators;
                                ``overflows`` reports any params-buffer
                                eviction since the previous barrier
``("call", method, items)``     parent-initiated collector calls
                                (sampling marks, the end-of-run
                                flush, a retroactive pull); items are
                                ``(order, node, args)``; reply
                                ``("called", results, reports)`` with
                                ``results`` as ``(order, result)``
``("stop",)``                   reply ``("bye",)`` and exit
==============================  =======================================

Replies carrying reports list ``(stamp, report)`` pairs; a stamp is the
command's context prefix — ``(seq, sub_idx)`` for ingest ops, the
call's ``(order,)`` for calls — plus an emission ordinal, so a
lexicographic sort across lanes reconstructs the exact order a
single-threaded run would have delivered them in.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.agent.reports import Report
from repro.agent.samplers import Sampler

#: A report's position in the sequential arrival order.
Stamp = tuple

SamplerFactory = Callable[[], Sampler]

#: Ops that must produce exactly one reply on the lane's outbound
#: channel.  Everything else is fire-and-forget: per-lane FIFO ordering
#: of the inbound channel is the only synchronisation those need.
REPLYING_COMMANDS = frozenset({"barrier", "call", "stop"})


class ReportRecorder:
    """The lane-side stand-in for the transport seam.

    Quacks like a transport as far as :class:`MintCollector` cares (a
    ``deliver`` method), but records ``(stamp, report)`` into the
    current sink instead of charging meters or touching a backend.
    ``begin`` sets the stamp prefix for one command's emissions; the
    ordinal restarts at zero so reports emitted by one sub-trace (a
    pattern report, a Bloom flush mid-ingest, a params upload) keep
    their relative order under the prefix.
    """

    def __init__(self) -> None:
        self._sink: list[tuple[Stamp, Report]] = []
        self._prefix: Stamp = (0,)
        self._ordinal = 0

    def begin(self, sink: list[tuple[Stamp, Report]], prefix: Stamp) -> None:
        """Route subsequent deliveries into ``sink`` under ``prefix``."""
        self._sink = sink
        self._prefix = tuple(prefix)
        self._ordinal = 0

    def deliver(self, report: Report) -> None:
        """Record one report at the next stamp under the current prefix."""
        self._sink.append((self._prefix + (self._ordinal,), report))
        self._ordinal += 1


class AgentWorkerState:
    """One lane's fleet plus the command handlers that drive it.

    Collectors are created on first sight of a node, exactly as the
    framework does — but only for nodes the plane routed to this lane,
    so the fleet is partitioned, never replicated.  The state is
    self-contained and channel-free: thread lanes share the parent's
    address space (safely — nothing here is touched by two threads),
    process lanes pickle commands across a pipe.
    """

    def __init__(
        self,
        config: MintConfig,
        sampler_factories: list[SamplerFactory] | None = None,
    ) -> None:
        self.config = config
        self._factories = list(sampler_factories or [])
        self._collectors: dict[str, MintCollector] = {}
        self._recorder = ReportRecorder()
        # Accumulated between barriers.
        self._phase_reports: list[tuple[Stamp, Report]] = []
        self._phase_sampled: list[tuple[int, int, str, str]] = []
        # Per-node params-buffer eviction counters at the last barrier:
        # a delta within an epoch is the determinism hazard the plane
        # must fail loudly on (see _params_overflows).
        self._evicted_blocks_seen: dict[str, int] = {}
        self._evicted_bytes_seen: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Fleet
    # ------------------------------------------------------------------
    def _collector_for(self, node: str) -> MintCollector:
        collector = self._collectors.get(node)
        if collector is None:
            agent = MintAgent(
                node=node,
                config=self.config,
                extra_samplers=[factory() for factory in self._factories],
            )
            collector = MintCollector(
                agent=agent, transport=self._recorder, config=self.config
            )
            self._collectors[node] = collector
        return collector

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, cmd: tuple) -> tuple | None:
        """Run one protocol command; returns the reply or None."""
        handler = getattr(self, f"_cmd_{cmd[0]}", None)
        if handler is None:
            raise ValueError(f"unknown lane command: {cmd[0]!r}")
        return handler(*cmd[1:])

    def _cmd_warmup(self, items: list[tuple[str, list]]) -> None:
        for node, spans in items:
            self._collector_for(node).agent.warm_up(spans)
        return None

    def _cmd_ops(self, items: list[tuple[int, int, float, Any]]) -> None:
        for seq, sub_idx, now, sub_trace in items:
            collector = self._collector_for(sub_trace.node)
            self._recorder.begin(self._phase_reports, (seq, sub_idx))
            result = collector.process(sub_trace, now)
            if result.sampled:
                self._phase_sampled.append(
                    (seq, sub_idx, sub_trace.node, result.trace_id)
                )
        return None

    def _cmd_barrier(self) -> tuple:
        reports, self._phase_reports = self._phase_reports, []
        sampled, self._phase_sampled = self._phase_sampled, []
        return ("phase1", reports, sampled, self._params_overflows())

    def _params_overflows(self) -> list[dict]:
        """Params-buffer evictions since the previous barrier.

        A sequential run uploads a sampled trace's params on the
        backend's mid-epoch ``mark_sampled`` round-trip, freeing buffer
        space; a lane defers every mark to the apply barrier — so an
        in-epoch eviction here can drop records the sequential run
        would have kept, silently breaking bit-identity.  The plane
        turns any reported delta into a :class:`LaneError` naming the
        lane, epoch and buffered bytes.
        """
        out: list[dict] = []
        for node, collector in self._collectors.items():
            buffer = collector.agent.params_buffer
            blocks_before = self._evicted_blocks_seen.get(node, 0)
            if buffer.evicted_blocks > blocks_before:
                out.append(
                    {
                        "node": node,
                        "evicted_blocks": buffer.evicted_blocks - blocks_before,
                        "evicted_bytes": buffer.evicted_bytes
                        - self._evicted_bytes_seen.get(node, 0),
                        "buffered_bytes": buffer.used_bytes,
                        "capacity_bytes": buffer.capacity_bytes,
                    }
                )
            self._evicted_blocks_seen[node] = buffer.evicted_blocks
            self._evicted_bytes_seen[node] = buffer.evicted_bytes
        return out

    def _cmd_call(self, method: str, items: list[tuple[int, str, tuple]]) -> tuple:
        results: list[tuple[int, Any]] = []
        out: list[tuple[Stamp, Report]] = []
        for order, node, args in items:
            self._recorder.begin(out, (order,))
            results.append((order, getattr(self._collectors[node], method)(*args)))
        return ("called", results, out)
