"""Seed-equivalent hot paths, restorable via monkeypatch for baselines.

The ingest benchmark reports the fast-path speedup *measured on the same
machine, same workload, same run*.  To do that honestly, this module
keeps verbatim re-implementations of the seed repo's hot-path code —
SHA1-over-``repr`` pattern identity per span, a full JSON encode per
buffered record, the per-miss re-sort of template hit counts, and the
sha256 Bloom probe — and :class:`seed_mode` swaps them in for the
duration of the baseline measurement.

These functions are the *measurement baseline*, not product code: if the
optimised implementations change, this file stays frozen at seed
behaviour so ``BENCH_ingest.json`` keeps tracking the same trajectory.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
from collections import deque
from typing import Iterator

from repro.agent import agent as agent_mod
from repro.agent.agent import IngestResult
from repro.agent.samplers import SymptomSampler
from repro.bloom import bloom_filter as bloom_mod
from repro.model.encoding import encoded_size
from repro.parsing import span_parser as span_mod
from repro.parsing import trace_parser as trace_mod
from repro.parsing.attribute_parser import ParsedAttribute, StringAttributeParser
from repro.parsing.span_parser import ParsedSpan, SpanParser, SpanPattern
from repro.parsing.tokenizer import tokenize
from repro.parsing.trace_parser import ParsedSubTrace


def seed_params_size_bytes(self: ParsedSpan) -> int:
    """Seed: render the whole record as JSON just to count its bytes."""
    return encoded_size(self.params_record())


def seed_pattern_id(pattern) -> str:
    """Seed: repr + SHA1 on every identity resolution."""
    return hashlib.sha1(repr(pattern).encode("utf-8")).hexdigest()[:16]


def seed_span_library_register(library, pattern: SpanPattern) -> str:
    """Seed SpanPatternLibrary.register: content hash per call."""
    pattern_id = seed_pattern_id(pattern)
    if pattern_id not in library._patterns:
        library._patterns[pattern_id] = pattern
    library._match_counts[pattern_id] = library._match_counts.get(pattern_id, 0) + 1
    return pattern_id


def seed_topo_library_register(library, pattern) -> str:
    """Seed TopoPatternLibrary.register: content hash per sub-trace.

    The running ``_total_matches`` counter is still maintained (it is
    bookkeeping, not the measured seed cost) so the edge-case sampler
    makes identical decisions in both modes — the compared runs must do
    the same logical work.
    """
    pattern_id = seed_pattern_id(pattern)
    if pattern_id not in library._patterns:
        library._patterns[pattern_id] = pattern
    library._match_counts[pattern_id] = library._match_counts.get(pattern_id, 0) + 1
    library._total_matches += 1
    return pattern_id


def seed_span_parse(self: SpanParser, span, observe_ranges: bool = True) -> ParsedSpan:
    """Seed SpanParser.parse: scope-string rebuild per attribute, fresh
    SpanPattern construction + register (one SHA1) per span."""
    entries: list[tuple[str, str, str]] = []
    params: dict = {}
    numeric_values: dict[str, float] = {}
    for key, value in sorted(span.attributes.items()):
        if key.startswith("__"):
            raise ValueError(f"attribute key {key!r} uses the reserved prefix")
        if isinstance(value, str):
            parsed = self._string_parser(self._scope(span, key)).parse(value)
            entries.append((key, parsed.kind, parsed.pattern))
            params[key] = parsed.param
        elif isinstance(value, bool):
            parsed = self._string_parser(self._scope(span, key)).parse(str(value))
            entries.append((key, parsed.kind, parsed.pattern))
            params[key] = parsed.param
        else:
            entries.append((key, "numeric", span_mod.NUMERIC_MARKER))
            params[key] = float(value)
            numeric_values[key] = float(value)
    entries.append((span_mod.DURATION_KEY, "numeric", span_mod.NUMERIC_MARKER))
    params[span_mod.DURATION_KEY] = span.duration
    numeric_values[span_mod.DURATION_KEY] = span.duration
    pattern = SpanPattern(
        name=span.name,
        service=span.service,
        kind=span.kind.value,
        status=span.status.value,
        attributes=tuple(sorted(entries)),
    )
    pattern_id = seed_span_library_register(self.library, pattern)
    if observe_ranges:
        for key, value in numeric_values.items():
            self.library.observe_numeric(pattern_id, key, value)
    return ParsedSpan(
        trace_id=span.trace_id,
        span_id=span.span_id,
        parent_id=span.parent_id,
        node=span.node,
        start_time=span.start_time,
        pattern_id=pattern_id,
        params=params,
    )


def seed_attribute_parse(self: StringAttributeParser, value: str) -> ParsedAttribute:
    """Seed StringAttributeParser.parse: template-only value memo (regex
    extraction per hit) and a full hit-count sort per hot-match probe."""
    template = self._value_templates.get(value)
    params: list[str] | None = None
    if template is not None:
        params = template.extract(value)
    if params is None:
        template = seed_hot_match(self, value)
        if template is not None:
            params = template.extract(value)
            if params is not None and not self._acceptable_mass(value, params):
                template, params = None, None
    if params is None:
        tokens = tokenize(value)
        template = self._tree.find_match(value, tokens)
        if template is None:
            template = self._linear_match(value)
        if template is not None:
            params = template.extract(value)
        if (
            template is None
            or params is None
            or not self._acceptable_mass(value, params)
        ):
            template = self._learn(value, tokens)
            params = template.extract(value)
    if params is None:  # pragma: no cover - matching guarantees extraction
        raise RuntimeError(f"template failed on {value!r}")
    assert template is not None
    self._hit_counts[template] = self._hit_counts.get(template, 0) + 1
    parsed = ParsedAttribute(
        key=self.key, kind="string", pattern=template.text, param=params
    )
    if len(self._value_cache) < self._VALUE_CACHE_CAP:
        # Keep the optimised cache shape so mode switches cannot corrupt
        # parser state; the seed *work* (re-extraction above) still runs.
        self._value_cache[value] = parsed
        self._value_templates[value] = template
    return parsed


def seed_hot_match(self: StringAttributeParser, value: str):
    """Seed hot match: re-sort the full hit-count dict on every probe."""
    ranked = sorted(self._hit_counts.items(), key=lambda item: -item[1])[
        : self._HOT_TEMPLATES
    ]
    best = None
    for template, _ in ranked:
        if template.wildcard_count and template.matches(value):
            if best is None or template.literal_token_count > best.literal_token_count:
                best = template
    return best


def seed_total_matches(library) -> int:
    """Seed TopoPatternLibrary.total_matches: re-sum per call."""
    return sum(library._match_counts.values())


def seed_bucket_of(self, value: float):
    """Seed NumericBucketer.bucket_of: construct the Bucket every call."""
    from repro.parsing.numeric_buckets import Bucket

    if value == 0:
        return Bucket(index=0, negative=False, lower=0.0, upper=0.0)
    negative = value < 0
    magnitude = abs(value)
    index = self.index_of(magnitude)
    lower = 0.0 if index == 0 else self.gamma ** (index - 1)
    upper = self.gamma**index
    return Bucket(index=index, negative=negative, lower=lower, upper=upper)


_FAST_SYMPTOM_INIT = SymptomSampler.__init__


def seed_symptom_init(self, abnormal_words=(), *args, **kwargs) -> None:
    """Seed SymptomSampler.__init__: one compiled pattern per abnormal
    word and a bare deque per window key, on top of today's state."""
    _FAST_SYMPTOM_INIT(self, abnormal_words, *args, **kwargs)
    self._word_patterns = [
        re.compile(rf"(?<![0-9a-z]){re.escape(w.lower())}(?![0-9a-z])")
        for w in abnormal_words
    ]
    self._windows = {}


def seed_percentile(values: list[float], pct: float) -> float:
    """Seed nearest-rank percentile over a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def seed_symptom_observe(self, sub_trace, parsed) -> bool:
    """Seed SymptomSampler.observe: per-word regex loop, isinstance."""
    sampled = False
    for span in parsed.parsed_spans:
        for key, param in span.params.items():
            if isinstance(param, list):
                if seed_has_abnormal_word(self, param):
                    sampled = True
            elif key == span_mod.DURATION_KEY and seed_is_numeric_outlier(
                self, f"{span.pattern_id}:{key}", float(param)
            ):
                sampled = True
    return sampled


def seed_has_abnormal_word(self, parts: list[str]) -> bool:
    for part in parts:
        lowered = part.lower()
        for pattern in self._word_patterns:
            if pattern.search(lowered):
                return True
    return False


def seed_is_numeric_outlier(self, key: str, value: float) -> bool:
    """Seed outlier check: sort the whole window every observation."""
    window = self._windows.get(key)
    if window is None:
        window = deque(maxlen=self._window_size)
        self._windows[key] = window
    outlier = False
    if len(window) >= self.min_observations:
        threshold = seed_percentile(list(window), self.percentile)
        mean = sum(window) / len(window)
        outlier = value > threshold and value > 2.0 * mean
    window.append(value)
    return outlier


def seed_buffer_add(self, parsed: ParsedSpan) -> None:
    """Seed ParamsBuffer.add: append to the block + unconditional evict."""
    from repro.agent.params_buffer import ParamsBlock

    block = self._blocks.get(parsed.trace_id)
    if block is None:
        block = ParamsBlock(trace_id=parsed.trace_id)
        self._blocks[parsed.trace_id] = block
    added = parsed.params_size_bytes()
    block.spans.append(parsed)
    block.size_bytes += added
    self._used_bytes += added
    self._evict_until_fits()


def seed_ingest_one(self, sub_trace, parse):
    """Seed MintAgent ingest body: dict + lambda sort per sub-trace,
    unconditional fired list, generic per-param numeric observation."""
    if sub_trace.node != self.node:
        raise ValueError(
            f"sub-trace for node {sub_trace.node!r} sent to agent {self.node!r}"
        )
    parsed_spans = {
        span.span_id: parse(span, observe_ranges=False) for span in sub_trace
    }
    topo_pattern = agent_mod.extract_topo_pattern(sub_trace, parsed_spans)
    pattern_id = self.mounted_library.register_and_mount(
        topo_pattern, sub_trace.trace_id
    )
    parsed = ParsedSubTrace(
        trace_id=sub_trace.trace_id,
        node=sub_trace.node,
        topo_pattern_id=pattern_id,
        parsed_spans=sorted(
            parsed_spans.values(), key=lambda p: (p.start_time, p.span_id)
        ),
    )
    for span in parsed.parsed_spans:
        self.params_buffer.add(span)
    fired: list[str] = []
    if self.symptom_sampler.observe(sub_trace, parsed):
        fired.append("symptom")
    if self.edge_case_sampler.observe(sub_trace, parsed):
        fired.append("edge-case")
    for sampler in self.extra_samplers:
        if sampler.observe(sub_trace, parsed):
            fired.append(type(sampler).__name__)
    if not fired:
        library = self.span_parser.library
        for span in parsed.parsed_spans:
            for key, param in span.params.items():
                if not isinstance(param, list):
                    library.observe_numeric(span.pattern_id, key, float(param))
    return IngestResult(
        trace_id=sub_trace.trace_id,
        node=self.node,
        topo_pattern_id=pattern_id,
        sampled=bool(fired),
        fired_samplers=fired,
        parsed=parsed,
    )


def seed_template_hash(self) -> int:
    """Seed StringTemplate.__hash__: re-hash the token tuple per call."""
    return hash((self.tokens,))


def seed_digest_pair(item: str) -> tuple[int, int]:
    """Seed Bloom hashing: sha256 split into two 64-bit halves."""
    digest = hashlib.sha256(item.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "big"),
        int.from_bytes(digest[8:16], "big"),
    )


def seed_bloom_add(self, item: str) -> None:
    """Seed BloomFilter.add: generator of positions, shift per bit."""
    h1, h2 = seed_digest_pair(item)
    for i in range(self.hash_count):
        pos = (h1 + i * h2) % self.bit_count
        self._bits[pos // 8] |= 1 << (pos % 8)
    self._inserted += 1


def seed_bloom_contains(self, item: str) -> bool:
    h1, h2 = seed_digest_pair(item)
    return all(
        self._bits[(h1 + i * h2) % self.bit_count // 8]
        & (1 << ((h1 + i * h2) % self.bit_count % 8))
        for i in range(self.hash_count)
    )


def seed_extract_topo_pattern(sub_trace, parsed):
    """Seed topology extraction: uncached repr as the child sort key."""

    def build(span_id: str):
        children = [
            build(child.span_id) for child in sub_trace.local_children(span_id)
        ]
        children.sort(key=repr)
        return (parsed[span_id].pattern_id, tuple(children))

    entries = sub_trace.entry_spans()
    roots = tuple(sorted((build(s.span_id) for s in entries), key=repr))
    entry_ops = tuple(sorted({(s.service, s.name) for s in entries}))
    from repro.model.span import SpanKind

    exit_ops = tuple(
        sorted(
            {
                (str(s.attributes.get("peer.service", "")), s.name)
                for s in sub_trace
                if s.kind in (SpanKind.CLIENT, SpanKind.PRODUCER)
            }
        )
    )
    return trace_mod.TopoPattern(roots=roots, entry_ops=entry_ops, exit_ops=exit_ops)


_MISSING = object()


def _seed_template_text(self) -> str:
    from repro.parsing.tokenizer import detokenize

    return detokenize(list(self.tokens))


def _seed_wildcard_count(self) -> int:
    return sum(1 for t in self.tokens if t == "<*>")


def _seed_literal_token_count(self) -> int:
    return len(self.tokens) - self.wildcard_count


def _dict_setter(name):
    def setter(self, value):
        self.__dict__[name] = value

    return setter


@contextlib.contextmanager
def seed_mode() -> Iterator[None]:
    """Swap every seed hot path in for a baseline measurement.

    The baseline is commit-faithful: all paths the fast-path engine
    optimised are restored at once (identity hashing, JSON sizing,
    hot-template sort, Bloom hashing, sampler internals, bucket and
    sort-key construction), so the reported speedup compares against
    the real seed implementation, not a half-optimised hybrid.
    """
    from repro.agent.agent import MintAgent
    from repro.agent.params_buffer import ParamsBuffer
    from repro.parsing.numeric_buckets import NumericBucketer
    from repro.parsing.span_parser import SpanPatternLibrary
    from repro.parsing.string_patterns import StringTemplate
    from repro.parsing.trace_parser import TopoPatternLibrary

    patches = [
        (ParsedSpan, "params_size_bytes", seed_params_size_bytes),
        (SpanParser, "parse", seed_span_parse),
        (MintAgent, "_ingest_one", seed_ingest_one),
        (ParamsBuffer, "add", seed_buffer_add),
        (StringAttributeParser, "parse", seed_attribute_parse),
        (SpanPatternLibrary, "register", seed_span_library_register),
        (TopoPatternLibrary, "register", seed_topo_library_register),
        (TopoPatternLibrary, "total_matches", seed_total_matches),
        (NumericBucketer, "bucket_of", seed_bucket_of),
        (SymptomSampler, "__init__", seed_symptom_init),
        (SymptomSampler, "observe", seed_symptom_observe),
        (SymptomSampler, "_has_abnormal_word", seed_has_abnormal_word),
        (SymptomSampler, "_is_numeric_outlier", seed_is_numeric_outlier),
        (bloom_mod.BloomFilter, "add", seed_bloom_add),
        (bloom_mod.BloomFilter, "__contains__", seed_bloom_contains),
        (agent_mod, "extract_topo_pattern", seed_extract_topo_pattern),
        (StringTemplate, "__hash__", seed_template_hash),
        # Seed recomputed these per access; readable-but-recomputing
        # properties shadow the precomputed instance attributes (the
        # setter keeps ``__post_init__`` working on new templates).
        (
            StringTemplate,
            "wildcard_count",
            property(_seed_wildcard_count, _dict_setter("wildcard_count")),
        ),
        (
            StringTemplate,
            "literal_token_count",
            property(_seed_literal_token_count, _dict_setter("literal_token_count")),
        ),
        (
            StringTemplate,
            "text",
            property(_seed_template_text, _dict_setter("text")),
        ),
    ]
    saved = [
        (target, name, target.__dict__.get(name, _MISSING))
        for target, name, _ in patches
    ]
    for target, name, value in patches:
        setattr(target, name, value)
    try:
        yield
    finally:
        for target, name, original in saved:
            if original is _MISSING:
                delattr(target, name)
            else:
                setattr(target, name, original)
