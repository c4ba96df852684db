"""The Mint agent: per-node parsing, mounting, buffering and sampling.

Ties together the walkthrough of paper Fig. 5: raw spans are redirected
to the Span Parser (step 2), grouped into sub-traces for the Trace
Parser (step 3), their metadata mounted on topo patterns via Bloom
filters, parameters buffered (step 4), and the two samplers consulted
(step 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.agent.config import MintConfig
from repro.agent.params_buffer import ParamsBuffer
from repro.agent.pattern_library import FlushedBloom, MountedTopoLibrary
from repro.agent.samplers import EdgeCaseSampler, Sampler, SymptomSampler
from repro.model.span import Span
from repro.model.trace import SubTrace
from repro.parsing.span_parser import SpanParser, SpanPattern
from repro.parsing.trace_parser import ParsedSubTrace, TopoPatternLibrary, extract_topo_pattern


@dataclass(slots=True)
class IngestResult:
    """Outcome of processing one sub-trace on the agent."""

    trace_id: str
    node: str
    topo_pattern_id: str
    sampled: bool
    fired_samplers: list[str] = field(default_factory=list)
    parsed: ParsedSubTrace | None = None


def _parsed_span_order(parsed) -> tuple[float, str]:
    return (parsed.start_time, parsed.span_id)


class MintAgent:
    """One Mint agent instance, owning the per-node state."""

    def __init__(
        self,
        node: str,
        config: MintConfig | None = None,
        on_bloom_flush: Callable[[FlushedBloom], None] | None = None,
        extra_samplers: list[Sampler] | None = None,
    ) -> None:
        self.node = node
        self.config = config or MintConfig()
        self.params_buffer = ParamsBuffer(self.config.params_buffer_bytes)
        self.symptom_sampler = SymptomSampler(
            abnormal_words=self.config.abnormal_words,
            percentile=self.config.symptom_percentile,
            window=self.config.symptom_window,
        )
        self.extra_samplers = list(extra_samplers or [])
        self._build_parsers(on_bloom_flush)

    def _build_parsers(self, on_bloom_flush: Callable[[FlushedBloom], None] | None) -> None:
        """Fresh span parser and topo library.  The mounted library and
        the edge-case sampler share the one library: mounting a
        sub-trace counts its match, and the sampler reads those counts."""
        config = self.config
        self.span_parser = SpanParser(
            similarity_threshold=config.similarity_threshold,
            alpha=config.alpha,
        )
        self.topo_library = TopoPatternLibrary()
        self.mounted_library = MountedTopoLibrary(
            node=self.node,
            bloom_buffer_bytes=config.bloom_buffer_bytes,
            bloom_fpp=config.bloom_fpp,
            on_flush=on_bloom_flush,
            library=self.topo_library,
        )
        self.edge_case_sampler = EdgeCaseSampler(
            library=self.topo_library,
            base_rate=config.edge_case_base_rate,
            seed=config.sampler_seed,
        )
        self._warmed_up = False

    @property
    def is_warmed_up(self) -> bool:
        """True once the offline warm-up stage has run."""
        return self._warmed_up

    def warm_up(self, spans: Iterable[Span]) -> None:
        """Offline stage: build attribute parsers from sampled raw spans.

        At most ``config.warmup_sample_size`` spans are used (the paper
        samples m = 5,000).
        """
        sample = list(spans)[: self.config.warmup_sample_size]
        self.span_parser.warm_up(sample)
        self._warmed_up = True

    def ingest(self, sub_trace: SubTrace) -> IngestResult:
        """Process one sub-trace through the full agent pipeline."""
        return self._ingest_one(sub_trace, self.span_parser.parse)

    def ingest_many(self, sub_traces: Iterable[SubTrace]) -> list[IngestResult]:
        """Batch ingest: identical results to looped :meth:`ingest`.

        One pipeline setup (bound-method and buffer lookups) is paid per
        batch instead of per sub-trace; the per-span costs then ride the
        parser's interning and value caches, which a batch of warm
        traffic hits almost exclusively.
        """
        parse = self.span_parser.parse
        ingest_one = self._ingest_one
        return [ingest_one(sub_trace, parse) for sub_trace in sub_traces]

    def _ingest_one(
        self,
        sub_trace: SubTrace,
        parse: Callable[..., object],
    ) -> IngestResult:
        if sub_trace.node != self.node:
            raise ValueError(
                f"sub-trace for node {sub_trace.node!r} sent to agent {self.node!r}"
            )
        # Ranges are observed only after the sampling decision (below):
        # a symptomatic trace's outlier values are uploaded exactly and
        # must not distort the pattern's common-case display ranges.
        spans = sub_trace.spans
        if len(spans) == 1:
            only = parse(spans[0], observe_ranges=False)
            parsed_spans = {spans[0].span_id: only}
            ordered = [only]
        else:
            if not spans:
                raise ValueError("cannot parse an empty sub-trace")
            parsed_spans = {
                span.span_id: parse(span, observe_ranges=False) for span in spans
            }
            ordered = sorted(parsed_spans.values(), key=_parsed_span_order)
        topo_pattern = extract_topo_pattern(sub_trace, parsed_spans)
        pattern_id = self.mounted_library.register_and_mount(
            topo_pattern, sub_trace.trace_id
        )
        # Direct construction: one ParsedSubTrace per sub-trace on the
        # hot path; the dataclass __init__ shows up in profiles.  Field
        # semantics (repr/eq) are untouched.
        parsed = ParsedSubTrace.__new__(ParsedSubTrace)
        parsed.trace_id = sub_trace.trace_id
        parsed.node = sub_trace.node
        parsed.topo_pattern_id = pattern_id
        parsed.parsed_spans = ordered
        buffer_add = self.params_buffer.add
        for span in parsed.parsed_spans:
            buffer_add(span)
        fired: list[str] | None = None
        if self.symptom_sampler.observe(sub_trace, parsed):
            fired = ["symptom"]
        if self.edge_case_sampler.observe(sub_trace, parsed):
            if fired is None:
                fired = ["edge-case"]
            else:
                fired.append("edge-case")
        for sampler in self.extra_samplers:
            if sampler.observe(sub_trace, parsed):
                if fired is None:
                    fired = [type(sampler).__name__]
                else:
                    fired.append(type(sampler).__name__)
        if fired is None:
            library = self.span_parser.library
            observe = library.observe_numeric
            for span in parsed.parsed_spans:
                # The layout's variable spec names exactly the numeric
                # parameters.
                span_params = span.params
                span_pattern_id = span.pattern_id
                for key, is_list in span._size_plan[1]:
                    if not is_list:
                        observe(span_pattern_id, key, span_params[key])
        result = IngestResult.__new__(IngestResult)
        result.trace_id = sub_trace.trace_id
        result.node = self.node
        result.topo_pattern_id = pattern_id
        result.sampled = fired is not None
        result.fired_samplers = fired if fired is not None else []
        result.parsed = parsed
        return result

    def reconstruct_patterns(self) -> None:
        """The paper's 'reconstruct interface' (Section 4.1).

        When the system changes (new releases, changed SQL, renamed
        operations), previously learned patterns go stale; developers
        trigger a rebuild.  The parsers and libraries are replaced with
        fresh ones (subsequent traffic re-warms them); Bloom filters are
        drained first so already-mounted metadata is not lost.
        """
        self.mounted_library.drain_and_notify()
        self._build_parsers(self.mounted_library.flush_callback)

    def span_patterns(self) -> list[SpanPattern]:
        """All span patterns known to this agent."""
        return self.span_parser.library.patterns()
