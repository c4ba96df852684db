"""The Mint collector: reporting policy between agent and backend.

Paper Section 4.2: the collector reports the Pattern Library
periodically (default every minute), reports Bloom filters immediately
when they fill, and uploads variable parameters only for traces marked
sampled — including traces marked sampled by *other* nodes, which the
backend requests via :meth:`MintCollector.request_params`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.agent.agent import IngestResult, MintAgent
from repro.agent.config import MintConfig
from repro.agent.pattern_library import FlushedBloom
from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport
from repro.model.trace import SubTrace
from repro.transport.wire import ReportSender

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.transport import Transport


class MintCollector:
    """Drives one agent's uploads over a transport to the backend.

    ``transport`` is either a deployment-plane
    :class:`~repro.transport.transport.Transport` (reports go through
    ``deliver``, metered at the wire) or any bare report callable such
    as ``backend.receive`` — handy for direct-wired tests.
    """

    def __init__(
        self,
        agent: MintAgent,
        transport: Union["Transport", ReportSender],
        config: MintConfig | None = None,
    ) -> None:
        self.agent = agent
        self.transport = transport
        deliver = getattr(transport, "deliver", None)
        if callable(deliver):
            self._send: ReportSender = deliver
        elif callable(transport):
            self._send = transport
        else:
            raise TypeError(
                "transport must be a Transport (with a deliver method) or a "
                f"bare report callable, got {type(transport).__name__!r}"
            )
        self.config = config or agent.config
        self._reported_span_pattern_ids: set[str] = set()
        self._reported_topo_pattern_ids: set[str] = set()
        self._sampled_trace_ids: set[str] = set()
        self._last_pattern_report: float | None = None
        # Bloom filters flush straight through the agent callback.
        agent.mounted_library.flush_callback = self._send_bloom

    @property
    def node(self) -> str:
        """Node this collector serves."""
        return self.agent.node

    @property
    def sampled_trace_ids(self) -> set[str]:
        """Traces this collector knows to be sampled."""
        return set(self._sampled_trace_ids)

    def process(self, sub_trace: SubTrace, now: float) -> IngestResult:
        """Run one sub-trace through the agent, then apply upload policy."""
        result = self.agent.ingest(sub_trace)
        if result.sampled:
            self._sampled_trace_ids.add(result.trace_id)
        if result.trace_id in self._sampled_trace_ids:
            self._upload_params(result.trace_id)
        self.tick(now)
        return result

    def tick(self, now: float) -> None:
        """Periodic duties: pattern library reports on the configured
        interval, plus catch-up parameter uploads for sampled traces."""
        if (
            self._last_pattern_report is None
            or now - self._last_pattern_report >= self.config.pattern_report_interval_s
        ):
            self._send_pattern_report(now)

    def flush(self, now: float) -> None:
        """End-of-run flush: patterns, all active Bloom filters, and any
        parameters still owed for sampled traces."""
        self._send_pattern_report(now)
        for flushed in self.agent.mounted_library.drain_active_filters():
            self._send_bloom(flushed)
        for trace_id in sorted(self._sampled_trace_ids):
            self._upload_params(trace_id)

    def mark_sampled(self, trace_id: str) -> None:
        """Backend-initiated notification: some node sampled this trace;
        upload our buffered parameters for it (paper step 6)."""
        self._sampled_trace_ids.add(trace_id)
        self._upload_params(trace_id)

    def request_params(self, trace_id: str) -> bool:
        """Upload parameters for ``trace_id`` if buffered; True on hit.

        The buffer must be checked before marking: a successful upload
        frees the block, so checking afterwards would always miss.
        """
        buffered = self.agent.params_buffer.get(trace_id) is not None
        self.mark_sampled(trace_id)
        return buffered

    def _send_pattern_report(self, now: float) -> None:
        library = self.agent.span_parser.library
        span_patterns = [
            library.pattern_dict(p.pattern_id)
            for p in library.patterns()
            if p.pattern_id not in self._reported_span_pattern_ids
        ]
        topo_patterns = [
            p.to_dict()
            for p in self.agent.topo_library.patterns()
            if p.pattern_id not in self._reported_topo_pattern_ids
        ]
        self._last_pattern_report = now
        if not span_patterns and not topo_patterns:
            return
        report = PatternLibraryReport(
            node=self.node, span_patterns=span_patterns, topo_patterns=topo_patterns
        )
        self._reported_span_pattern_ids.update(p["pattern_id"] for p in span_patterns)
        self._reported_topo_pattern_ids.update(p["pattern_id"] for p in topo_patterns)
        self._send(report)

    def _send_bloom(self, flushed: FlushedBloom) -> None:
        self._send(
            BloomReport(
                node=flushed.node,
                topo_pattern_id=flushed.topo_pattern_id,
                payload=flushed.payload,
                inserted=flushed.inserted,
            )
        )

    def _upload_params(self, trace_id: str) -> None:
        block = self.agent.params_buffer.get(trace_id)
        if block is None:
            return
        library = self.agent.span_parser.library
        records = [
            span.compact_record(library.get(span.pattern_id)) for span in block.spans
        ]
        self._send(ParamsReport(node=self.node, trace_id=trace_id, records=records))
        # The block has been persisted; free the buffer space (spans
        # buffered later for this trace form a new block of their own).
        self.agent.params_buffer.pop(trace_id)
