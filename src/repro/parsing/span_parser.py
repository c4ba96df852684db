"""The Span Parser: inter-span commonality + variability analysis.

Implements both stages from paper Section 3.2:

* **offline** (:meth:`SpanParser.warm_up`) — sample m raw spans, cluster
  each attribute's values, extract patterns, build per-attribute parsers;
* **online** (:meth:`SpanParser.parse`) — Hierarchical Attribute Parsing:
  every attribute is matched independently against its parser, the
  matched attribute patterns are combined into a span pattern, and the
  span pattern is looked up (or registered) in the Pattern Library.

The output of parsing a span is a :class:`ParsedSpan`: a pattern id (the
commonality) plus the variable parameters (the variability).
"""

from __future__ import annotations

import hashlib
import json as _json
import math as _math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.model.encoding import JSON_ESCAPE_RE, encoded_size, json_value_size
from repro.model.span import Span, SpanKind, SpanStatus
from repro.parsing.attribute_parser import ParamValue, StringAttributeParser
from repro.parsing.numeric_buckets import NumericBucketer
from repro.parsing.string_patterns import template_from_text

# Reserved attribute key under which the span's duration is parsed; the
# paper's example in Fig. 7 buckets `duration` like any numeric attribute.
DURATION_KEY = "__duration__"


NUMERIC_MARKER = "<num>"

# Placeholders marking plan slots whose content is read from the live
# span on replay: numeric values, and volatile (high-cardinality) string
# attributes that are re-parsed each time.
_NUMERIC_SLOT = object()
_VOLATILE_SLOT = object()


def _plan_key(span: "Span", attributes: dict, vol_set: set) -> tuple:
    """Structural identity of a span for the replay-plan table.

    Uses the attribute dict's insertion order — no sort on the hit
    path; spans emitting the same attributes in a different order just
    learn a second (equivalent) plan.  Volatile (high-cardinality)
    attribute values stay out of the key: they would defeat caching and
    are re-parsed per span on replay.  The single key builder is shared
    by lookup and storage, which must agree byte for byte.
    """
    key_parts: list = [span.name, span.service, span.kind, span.status]
    for key, value in attributes.items():
        cls = value.__class__
        if cls is str or cls is bool or isinstance(value, (str, bool)):
            if key in vol_set:
                key_parts.append((key,))
            else:
                key_parts.append((key, value))
        else:
            key_parts.append(key)
    return tuple(key_parts)


@dataclass(frozen=True)
class SpanPattern:
    """The common part of a family of spans.

    Identity covers everything that is structural: the span name,
    service, kind, status, and for every attribute key its kind and
    pattern — the template text for strings, the generic ``<num>``
    marker for numerics.  Numeric *bucket ranges* are deliberately not
    part of the identity: durations and sizes drift across exponential
    buckets, and folding the bucket into the identity would cross-product
    span patterns (and with them topo patterns) far beyond the dozens
    the paper observes (Table 5).  Observed bucket ranges are tracked by
    the :class:`SpanPatternLibrary` instead and rendered in approximate
    traces (paper Fig. 10's "numbers are bucket-mapped").
    """

    name: str
    service: str
    kind: str
    status: str
    attributes: tuple[tuple[str, str, str], ...]  # (key, kind, pattern)

    @cached_property
    def pattern_id(self) -> str:
        """Stable 16-hex-char id derived from the pattern content.

        The paper assigns UUIDs; a content hash keeps ids identical
        across runs and across agents observing the same pattern, which
        the backend merge relies on.  The digest is computed once per
        pattern object; repeated span shapes never even reach it because
        :meth:`SpanPatternLibrary.intern` resolves them by structural
        key first.
        """
        digest = hashlib.sha1(repr(self).encode("utf-8")).hexdigest()
        return digest[:16]

    @cached_property
    def reconstruction_plan(self) -> tuple[tuple, SpanKind, SpanStatus]:
        """What exact reconstruction needs of this pattern, resolved once
        per pattern instead of once per span: each attribute key with
        its template (``None`` for numerics), and the kind/status enums."""
        templates = tuple(
            (key, template_from_text(text) if kind == "string" else None)
            for key, kind, text in self.attributes
        )
        return templates, SpanKind(self.kind), SpanStatus(self.status)

    def to_dict(self) -> dict[str, Any]:
        """Serialisable form, used for upload size accounting."""
        return {
            "pattern_id": self.pattern_id,
            "name": self.name,
            "service": self.service,
            "kind": self.kind,
            "status": self.status,
            "attributes": [list(entry) for entry in self.attributes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanPattern":
        """Rebuild a pattern from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            service=data["service"],
            kind=data["kind"],
            status=data["status"],
            attributes=tuple(tuple(entry) for entry in data["attributes"]),
        )

    def masked_attributes(
        self, numeric_ranges: dict[str, tuple[float, float]] | None = None
    ) -> dict[str, str]:
        """Attribute view for approximate traces.

        String variables appear as ``<*>`` wildcards; numeric values
        appear as their observed bucket interval when ``numeric_ranges``
        is provided (else the generic ``<num>`` marker).
        """
        ranges = numeric_ranges or {}
        out: dict[str, str] = {}
        for key, kind, pattern in self.attributes:
            if key == DURATION_KEY:
                continue
            if kind == "numeric":
                out[key] = _render_range(ranges.get(key))
            else:
                out[key] = pattern
        return out

    def duration_pattern(
        self, numeric_ranges: dict[str, tuple[float, float]] | None = None
    ) -> str | None:
        """Bucket interval observed for the span duration, if known."""
        ranges = numeric_ranges or {}
        for key, _, _ in self.attributes:
            if key == DURATION_KEY:
                return _render_range(ranges.get(DURATION_KEY))
        return None


def _render_range(bounds: tuple[float, float] | None) -> str:
    if bounds is None:
        return NUMERIC_MARKER
    lower, upper = bounds

    def fmt(x: float) -> str:
        return str(int(x)) if x == int(x) else f"{x:.6g}"

    return f"({fmt(lower)}, {fmt(upper)}]"


@dataclass
class ParsedSpan:
    """A span split into its pattern id and variable parameters."""

    trace_id: str
    span_id: str
    parent_id: str | None
    node: str
    start_time: float
    pattern_id: str
    params: dict[str, ParamValue] = field(default_factory=dict)

    def params_record(self) -> dict[str, Any]:
        """The variability record buffered / uploaded for this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "pattern_id": self.pattern_id,
            "start_time": self.start_time,
            "params": self.params,
        }

    def compact_record(self, pattern: SpanPattern) -> list[Any]:
        """Positional wire format for parameter uploads.

        ``[span_id, parent_id, node, pattern_id, start_time, values]``
        with ``values`` ordered by the pattern's attribute tuple — the
        pattern already names every key, so repeating key strings per
        span would waste the bytes the whole design is saving.
        """
        values = [self.params[key] for key, _, _ in pattern.attributes]
        return [
            self.span_id,
            self.parent_id,
            self.node,
            self.pattern_id,
            round(self.start_time, 6),
            values,
        ]

    @classmethod
    def from_compact_record(
        cls, trace_id: str, record: list[Any], pattern: SpanPattern
    ) -> "ParsedSpan":
        """Inverse of :meth:`compact_record`."""
        span_id, parent_id, node, pattern_id, start_time, values = record
        params = {
            key: values[i] for i, (key, _, _) in enumerate(pattern.attributes)
        }
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            node=node,
            start_time=start_time,
            pattern_id=pattern_id,
            params=params,
        )

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ParsedSpan":
        """Rebuild a parsed span from a :meth:`params_record` dict."""
        return cls(
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            node=record.get("node", "node-0"),
            start_time=record.get("start_time", 0.0),
            pattern_id=record["pattern_id"],
            params=dict(record.get("params", {})),
        )

    def params_size_bytes(self) -> int:
        """Bytes this span contributes to the Params Buffer.

        Byte-identical to ``encoded_size(self.params_record())`` (the
        invariant the fast-path tests enforce), but computed as a cached
        per-key-set base size plus per-value deltas instead of rendering
        the record as JSON for every span.
        """
        params = self.params
        search = JSON_ESCAPE_RE.search
        dumps = _json.dumps
        isfinite = _math.isfinite
        size_plan = self.__dict__.get("_size_plan")
        if size_plan is not None:
            # Replayed span: the stable portion (record skeleton, stable
            # parameter lists, pattern id) was sized once when the plan
            # was learned; only the per-span variables remain.
            fixed, var_spec = size_plan
            size = fixed
            for key, is_list in var_spec:
                value = params[key]
                if is_list:
                    size += _param_list_size(value)
                elif value.__class__ is float and isfinite(value):
                    size += len(repr(value))
                else:
                    size += json_value_size(value)
        else:
            size = _record_base_size(tuple(params))
            size += _cached_str_size(self.pattern_id)
            for value in params.values():
                cls = value.__class__
                if cls is float:
                    if isfinite(value):
                        size += len(repr(value))
                    else:
                        size += len(dumps(value))
                elif cls is list:
                    size += _param_list_size(value)
                else:
                    size += json_value_size(value)
        parent_id = self.parent_id
        if parent_id is None:
            size += 4
        else:
            size += len(parent_id) + 2 if search(parent_id) is None else len(dumps(parent_id))
        for text in (self.trace_id, self.span_id):
            if text.isalnum() and text.isascii():  # hex ids: no escapes
                size += len(text) + 2
            else:
                size += len(text) + 2 if search(text) is None else len(dumps(text))
        size += _cached_str_size(self.node)
        start_time = self.start_time
        if start_time.__class__ is float and isfinite(start_time):
            size += len(repr(start_time))
        else:
            size += json_value_size(start_time)
        return size


# Base encoded size of a params record per distinct param key set: the
# braces, key strings and punctuation that every record with those keys
# shares.  Derived once from the real JSON ruler (a probe record with
# zero-size variable slots) so the fast sizer cannot drift from it.
_RECORD_BASE_CACHE: dict[tuple[str, ...], int] = {}

# Encoded size per parameter-fill list, keyed by object identity: value
# memos and span plans share one list object per distinct attribute
# value, so the same list is sized for thousands of spans.  The entry
# keeps a strong reference to the list, which both pins the id and
# guarantees the identity check stays valid.  Bounded; misses just
# recompute.
_LIST_SIZE_CACHE: dict[int, tuple[list, int]] = {}
_LIST_SIZE_CACHE_CAP = 1 << 16

# Encoded size per repeated short string (node names, pattern ids):
# one dict hit instead of an escape scan per span.
_STR_SIZE_CACHE: dict[str, int] = {}
_STR_SIZE_CACHE_CAP = 1 << 12


def _cached_str_size(text: str) -> int:
    size = _STR_SIZE_CACHE.get(text)
    if size is None:
        size = (
            len(text) + 2
            if JSON_ESCAPE_RE.search(text) is None
            else len(_json.dumps(text))
        )
        if len(_STR_SIZE_CACHE) < _STR_SIZE_CACHE_CAP:
            _STR_SIZE_CACHE[text] = size
    return size


def _param_list_size(value: list) -> int:
    """Exact JSON size of one parameter-fill list, memoised by identity."""
    entry = _LIST_SIZE_CACHE.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    if value:
        search = JSON_ESCAPE_RE.search
        size = 1 + len(value)
        for item in value:
            if item.__class__ is str:
                # ASCII-alphanumeric needs no escaping; the two C-level
                # predicates are cheaper than the regex scan they skip.
                if item.isalnum() and item.isascii():
                    size += len(item) + 2
                else:
                    size += (
                        len(item) + 2 if search(item) is None else len(_json.dumps(item))
                    )
            else:
                size += json_value_size(item)
    else:
        size = 2
    if len(_LIST_SIZE_CACHE) < _LIST_SIZE_CACHE_CAP:
        _LIST_SIZE_CACHE[id(value)] = (value, size)
    return size


def _record_base_size(keys: tuple[str, ...]) -> int:
    base = _RECORD_BASE_CACHE.get(keys)
    if base is None:
        probe = {
            "trace_id": "",
            "span_id": "",
            "parent_id": None,
            "node": "",
            "pattern_id": "",
            "start_time": 0.0,
            "params": dict.fromkeys(keys),
        }
        # Placeholder payloads: four ``""`` (2 bytes), one ``null`` (4),
        # ``0.0`` (3), the empty pattern_id (2), and ``null`` per param.
        base = encoded_size(probe) - (2 + 2 + 4 + 2 + 2 + 3 + 4 * len(keys))
        _RECORD_BASE_CACHE[keys] = base
    return base


class SpanPatternLibrary:
    """The agent-side Pattern Library for span patterns.

    Besides the patterns themselves, the library tracks the observed
    exponential-bucket range of every numeric attribute per pattern —
    the data behind the bucket-mapped numeric display in approximate
    traces (paper Fig. 10).
    """

    def __init__(self, alpha: float = 0.5) -> None:
        self._patterns: dict[str, SpanPattern] = {}
        self._match_counts: dict[str, int] = {}
        # Structural key -> pattern id: repeated span shapes resolve to
        # their id with one dict lookup, never re-hashing the content.
        self._interned: dict[tuple, str] = {}
        self._bucketer = NumericBucketer(alpha=alpha)
        self._numeric_ranges: dict[str, dict[str, tuple[float, float]]] = {}

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern_id: str) -> bool:
        return pattern_id in self._patterns

    @staticmethod
    def _structural_key(pattern: SpanPattern) -> tuple:
        return (
            pattern.name,
            pattern.service,
            pattern.kind,
            pattern.status,
            pattern.attributes,
        )

    def bump(self, pattern_id: str) -> None:
        """Count one more span matched to an already-interned pattern."""
        self._match_counts[pattern_id] += 1

    def register(self, pattern: SpanPattern) -> str:
        """Add (or re-find) ``pattern``; returns its id and bumps the
        match counter either way."""
        key = self._structural_key(pattern)
        pattern_id = self._interned.get(key)
        if pattern_id is None:
            pattern_id = pattern.pattern_id
            self._interned[key] = pattern_id
            if pattern_id not in self._patterns:
                self._patterns[pattern_id] = pattern
        self._match_counts[pattern_id] = self._match_counts.get(pattern_id, 0) + 1
        return pattern_id

    def intern(
        self,
        name: str,
        service: str,
        kind: str,
        status: str,
        attributes: tuple[tuple[str, str, str], ...],
    ) -> str:
        """Resolve a span shape to its pattern id, constructing (and
        content-hashing) a :class:`SpanPattern` only on first sight.

        This is the parser's hot path: after the first occurrence of a
        shape, identity costs one tuple build and one dict lookup
        instead of a ``repr`` plus SHA1 per span.  Ids are identical to
        :meth:`register`'s — the content hash still defines identity, so
        the backend's cross-agent merge invariant is untouched.
        """
        key = (name, service, kind, status, attributes)
        pattern_id = self._interned.get(key)
        if pattern_id is None:
            return self.register(
                SpanPattern(
                    name=name,
                    service=service,
                    kind=kind,
                    status=status,
                    attributes=attributes,
                )
            )
        self._match_counts[pattern_id] += 1
        return pattern_id

    def get(self, pattern_id: str) -> SpanPattern:
        """Pattern by id; raises KeyError when unknown."""
        return self._patterns[pattern_id]

    def match_count(self, pattern_id: str) -> int:
        """How many spans matched this pattern so far."""
        return self._match_counts.get(pattern_id, 0)

    def observe_numeric(self, pattern_id: str, key: str, value: float) -> None:
        """Fold ``value``'s bucket into the pattern's observed range."""
        ranges_hit = self._numeric_ranges.get(pattern_id)
        if ranges_hit is not None:
            current = ranges_hit.get(key)
            # Envelope edges are bucket-aligned, so a value strictly
            # inside the envelope cannot extend it: its whole bucket is
            # already covered.  Ranges converge after a few spans, so
            # this skips the bucket math for nearly every span.  A
            # positive value may sit exactly on the upper edge (buckets
            # are (lower, upper]); negative values mirror the interval,
            # so their far edge must take the slow path.
            if current is not None and current[0] < value:
                upper = current[1]
                if value < upper or (0.0 < value == upper):
                    return
        bucket = self._bucketer.bucket_of(value)
        lower = -bucket.upper if bucket.negative else bucket.lower
        upper = -bucket.lower if bucket.negative else bucket.upper
        ranges = self._numeric_ranges.setdefault(pattern_id, {})
        current = ranges.get(key)
        if current is None:
            ranges[key] = (lower, upper)
        else:
            ranges[key] = (min(current[0], lower), max(current[1], upper))

    def numeric_ranges(self, pattern_id: str) -> dict[str, tuple[float, float]]:
        """Observed (lower, upper] bucket envelope per numeric key."""
        return dict(self._numeric_ranges.get(pattern_id, {}))

    def pattern_dict(self, pattern_id: str) -> dict[str, Any]:
        """Serialisable pattern including its current numeric ranges."""
        data = self._patterns[pattern_id].to_dict()
        ranges = self._numeric_ranges.get(pattern_id)
        if ranges:
            data["numeric_ranges"] = {k: list(v) for k, v in sorted(ranges.items())}
        return data

    def patterns(self) -> list[SpanPattern]:
        """All patterns in insertion order."""
        return list(self._patterns.values())

    def snapshot(self) -> tuple[str, ...]:
        """Immutable view of the interned pattern ids, insertion order.

        The cheap identity summary the cross-worker interning property
        tests compare: ids are content hashes, so equal id tuples mean
        equal libraries.
        """
        return tuple(self._patterns)

    def size_bytes(self) -> int:
        """Upload size of the whole library."""
        return encoded_size([self.pattern_dict(pid) for pid in self._patterns])


class SpanParser:
    """Parses raw spans into span patterns plus parameters."""

    def __init__(
        self,
        similarity_threshold: float = 0.8,
        alpha: float = 0.5,
        scope_by_operation: bool = True,
    ) -> None:
        """``scope_by_operation`` trains one parser per (service,
        operation, key); disabling it trains one parser per key across
        all operations, which is what makes the similarity threshold a
        live tradeoff (paper Fig. 16): loose thresholds then merge
        values from different operations into wildcard-heavy templates
        whose parameters carry the bytes."""
        self.similarity_threshold = similarity_threshold
        self.alpha = alpha
        self.scope_by_operation = scope_by_operation
        self.library = SpanPatternLibrary(alpha=alpha)
        self._string_parsers: dict[str, StringAttributeParser] = {}
        # (service, operation) -> ({attribute key -> parser}, volatile
        # key set): resolves the per-attribute parser without rebuilding
        # the scope string on every span (the scope-string form stays
        # authoritative in ``_string_parsers`` for the warm-up path),
        # and snapshots which attributes are high-cardinality.
        self._op_parsers: dict[
            tuple[str, str] | None, tuple[dict[str, StringAttributeParser], set[str]]
        ] = {}
        # Whole-span fast path: spans whose string values have all been
        # seen (and value-cached) before resolve to a precomputed plan
        # — pattern id, parameter layout and hit-count bumps — keyed by
        # the span's structural identity plus its exact string values.
        # Only registered when every constituent lookup is guaranteed
        # stable, so a plan hit is byte-identical to a full parse.
        self._span_plans: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Offline stage (paper Section 3.2.1)
    # ------------------------------------------------------------------
    def warm_up(self, spans: Iterable[Span]) -> None:
        """Build per-attribute parsers from a sample of raw spans.

        Parsers are scoped per (service, operation, attribute key):
        values of the same key from different operations share skeleton
        shape but differ in operation-specific constants, and clustering
        them together would fragment templates into wildcard confetti
        that stores those constants as parameters on every span.
        """
        string_values: dict[str, list[str]] = {}
        warmup_spans = list(spans)
        for span in warmup_spans:
            for key, value in span.string_attributes().items():
                scope = self._scope(span, key)
                string_values.setdefault(scope, []).append(value)
        for scope, values in string_values.items():
            parser = self._string_parser(scope)
            parser.warm_up(values)
        # Register the span patterns of the warm-up sample so the library
        # starts populated (mitigates the cold-start issue the paper notes).
        for span in warmup_spans:
            self.parse(span)

    # ------------------------------------------------------------------
    # Online stage (paper Section 3.2.2)
    # ------------------------------------------------------------------
    def parse(self, span: Span, observe_ranges: bool = True) -> ParsedSpan:
        """Hierarchical Attribute Parsing of one raw span.

        Every attribute is parsed independently (the paper runs these in
        parallel; sequential here, same result), then the attribute
        patterns are combined and looked up in the Pattern Library.

        ``observe_ranges=False`` defers numeric-range tracking to the
        caller (the agent withholds range updates for traces it ends up
        sampling, so pattern ranges describe the *common* case and are
        not widened by the very outliers whose exact values are kept).
        """
        attributes = span.attributes
        op_key = (span.service, span.name) if self.scope_by_operation else None
        state = self._op_parsers.get(op_key)
        if state is None:
            state = ({}, set())
            self._op_parsers[op_key] = state
        op_parsers, vol_set = state
        plan = self._span_plans.get(_plan_key(span, attributes, vol_set))
        if plan is not None:
            return self._parse_from_plan(span, plan, attributes, observe_ranges)
        return self._parse_full(span, op_parsers, vol_set, observe_ranges)

    # Bounded so adversarial high-cardinality attribute values cannot
    # grow the plan table without limit (vocabulary-stable traffic fits
    # comfortably; everything else falls back to the full parse).
    _SPAN_PLAN_CAP = 16384
    # Distinct-values-per-attribute threshold above which an attribute
    # is treated as volatile (the parser's value memo is the counter).
    _VOLATILE_DISTINCT = 32

    def _parse_full(
        self,
        span: Span,
        op_parsers: dict[str, StringAttributeParser],
        vol_set: set[str],
        observe_ranges: bool,
    ) -> ParsedSpan:
        """The reference parse path; also learns a replay plan.

        Volatility is (re)classified here from the live parser memos —
        ``vol_set`` is updated in place, so the plan is stored under the
        key every future lookup will build.
        """
        attributes = span.attributes
        entries: list[tuple[str, str, str]] = []
        params: dict[str, ParamValue] = {}
        numeric_values: dict[str, float] = {}
        plan_slots: list[tuple] = []
        plan_bumps: list[tuple] = []
        list_keys: list[str] = []
        plan_ok = True
        for key, value in sorted(attributes.items()):
            if key.startswith("__"):
                raise ValueError(f"attribute key {key!r} uses the reserved prefix")
            if isinstance(value, (str, bool)):
                text = value if value.__class__ is str else str(value)
                parser = self._attribute_parser(op_parsers, span, key)
                parsed = parser.parse(text)
                entries.append((key, parsed.kind, parsed.pattern))
                params[key] = parsed.param
                list_keys.append(key)
                if key in vol_set or len(parser._value_cache) > self._VOLATILE_DISTINCT:
                    vol_set.add(key)
                    plan_slots.append(
                        (key, _VOLATILE_SLOT, parser, parsed.pattern, len(entries) - 1)
                    )
                else:
                    cached = parser._value_cache.get(text)
                    if cached is not None and cached[0] is parsed:
                        plan_slots.append((key, cached[1], parsed.param))
                        # Flattened bump slot: the count cell and ranked
                        # list are mutated in place and never rebound,
                        # so a replayed span bumps without hashing.
                        plan_bumps.append(
                            (
                                parser._hit_counts[cached[1]],
                                parser._hot_ranked,
                                cached[1],
                                parser,
                            )
                        )
                    else:
                        # Value fell outside the parser's memo (cache at
                        # capacity): this shape cannot be replayed safely.
                        plan_ok = False
            else:
                entries.append((key, "numeric", NUMERIC_MARKER))
                params[key] = float(value)
                numeric_values[key] = float(value)
                plan_slots.append((key, _NUMERIC_SLOT))
        entries.append((DURATION_KEY, "numeric", NUMERIC_MARKER))
        params[DURATION_KEY] = span.duration
        numeric_values[DURATION_KEY] = span.duration
        pattern_id = self.library.intern(
            span.name,
            span.service,
            span.kind.value,
            span.status.value,
            tuple(sorted(entries)),
        )
        if plan_ok and len(self._span_plans) < self._SPAN_PLAN_CAP:
            # Storage key built from the (possibly just-updated)
            # classification — exactly what the next lookup for this
            # shape will compute.
            plan_key = _plan_key(span, attributes, vol_set)
            # Pre-size the constant part of the params record: skeleton,
            # pattern id, and every stable parameter list.
            size_fixed = _record_base_size(tuple(params)) + _cached_str_size(pattern_id)
            var_spec: list[tuple[str, bool]] = []
            vol_slots: list[tuple] = []
            params_template = dict(params)
            for slot in plan_slots:
                marker = slot[1]
                if marker is _NUMERIC_SLOT:
                    var_spec.append((slot[0], False))
                    params_template[slot[0]] = None
                elif marker is _VOLATILE_SLOT:
                    var_spec.append((slot[0], True))
                    params_template[slot[0]] = None
                    vol_slots.append((slot[0], slot[2], slot[3], slot[4]))
                else:
                    size_fixed += _param_list_size(slot[2])
            var_spec.append((DURATION_KEY, False))
            params_template[DURATION_KEY] = None
            self._span_plans[plan_key] = (
                pattern_id,
                tuple(vol_slots),
                tuple(k for k in numeric_values if k != DURATION_KEY),
                tuple(plan_bumps),
                tuple(entries),
                (span.name, span.service, span.kind.value, span.status.value),
                (size_fixed, tuple(var_spec)),
                params_template,
                tuple(list_keys),
            )
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

    def _parse_from_plan(
        self,
        span: Span,
        plan: tuple,
        attributes: dict[str, Any],
        observe_ranges: bool,
    ) -> ParsedSpan:
        """Replay a previously parsed span shape.

        Byte-identical to the full parse by construction: the plan's
        pattern id, parameter layout and templates were produced by the
        full path, and are immutable once the constituent stable values
        sit in their parsers' permanent value memos.  Volatile
        (high-cardinality) attributes are re-parsed through their
        parser exactly as the full path would; if one lands on a
        different template than the plan recorded, the entries are
        rebuilt and re-interned so the result never diverges from the
        reference path.  All bookkeeping the full path performs —
        template hit counts, pattern match counts, numeric range
        observation — is replayed too, so downstream sampling decisions
        are unchanged.
        """
        (
            pattern_id,
            vol_slots,
            numeric_keys,
            bumps,
            entries_proto,
            header,
            size_info,
            params_template,
            list_keys,
        ) = plan
        # The template holds the stable parameters in the reference key
        # order; per-span slots (None placeholders) are overwritten in
        # place, so the copy's key order matches a full parse exactly.
        params: dict[str, ParamValue] = dict(params_template)
        substitutions: list[tuple[int, tuple[str, str, str]]] | None = None
        for key, parser, expected_pattern, entry_index in vol_slots:
            value = attributes[key]
            text = value if value.__class__ is str else str(value)
            parsed_attr = parser.parse(text)
            params[key] = parsed_attr.param
            if parsed_attr.pattern != expected_pattern:
                if substitutions is None:
                    substitutions = []
                substitutions.append((entry_index, (key, "string", parsed_attr.pattern)))
        for key in numeric_keys:
            value = attributes[key]
            params[key] = value if value.__class__ is float else float(value)
        duration = span.duration
        params[DURATION_KEY] = duration
        for cell, ranked, template, parser in bumps:
            if ranked and ranked[0] is template:
                cell[0] += 1
            else:
                parser._record_hit(template)
        if substitutions is None:
            self.library.bump(pattern_id)
        else:
            entries = list(entries_proto)
            for index, entry in substitutions:
                entries[index] = entry
            pattern_id = self.library.intern(*header, tuple(sorted(entries)))
        if observe_ranges:
            observe = self.library.observe_numeric
            for key in numeric_keys:
                observe(pattern_id, key, float(attributes[key]))
            observe(pattern_id, DURATION_KEY, duration)
        # Direct construction: the dataclass __init__ is a measurable
        # per-span cost; the instance dict is assigned wholesale (the
        # extra _size_plan entry is not a field, so repr/eq semantics
        # are untouched).  Skipped for the rare re-interned shape, whose
        # pattern id no longer matches the plan's pre-sized layout.
        parsed = ParsedSpan.__new__(ParsedSpan)
        instance_dict = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "node": span.node,
            "start_time": span.start_time,
            "pattern_id": pattern_id,
            "params": params,
            # Which params are wildcard-fill lists — lets downstream
            # scans (symptom sampler) skip the per-param type dispatch.
            "_param_lists": list_keys,
        }
        if substitutions is None:
            instance_dict["_size_plan"] = size_info
        parsed.__dict__ = instance_dict
        return parsed

    def _scope(self, span: Span, key: str) -> str:
        """Parser scope: per (service, operation, key) by default."""
        if self.scope_by_operation:
            return f"{span.service}|{span.name}|{key}"
        return key

    def _attribute_parser(
        self,
        op_parsers: dict[str, StringAttributeParser],
        span: Span,
        key: str,
    ) -> StringAttributeParser:
        parser = op_parsers.get(key)
        if parser is None:
            parser = self._string_parser(self._scope(span, key))
            op_parsers[key] = parser
        return parser

    def _string_parser(self, key: str) -> StringAttributeParser:
        parser = self._string_parsers.get(key)
        if parser is None:
            parser = StringAttributeParser(key, self.similarity_threshold)
            self._string_parsers[key] = parser
        return parser


# ----------------------------------------------------------------------
# Reconstruction helpers (backend side, stateless)
# ----------------------------------------------------------------------
def reconstruct_exact_span(pattern: SpanPattern, parsed: ParsedSpan) -> Span:
    """Rebuild the original span from its pattern and parameters.

    Inverse of :meth:`SpanParser.parse`: operates on pattern text alone
    so the backend does not need parser state.
    """
    templates, kind, status = pattern.reconstruction_plan
    params = parsed.params
    attributes: dict[str, Any] = {}
    duration = 0.0
    for key, template in templates:
        param = params[key]
        if template is not None:
            if not isinstance(param, list):
                raise TypeError(f"string attribute {key!r} carries {type(param)}")
            value: Any = template.reconstruct(param)
        else:
            if isinstance(param, list):
                raise TypeError(f"numeric attribute {key!r} carries a list")
            value = float(param)
        if key == DURATION_KEY:
            duration = float(value)
        else:
            attributes[key] = value
    return Span(
        trace_id=parsed.trace_id,
        span_id=parsed.span_id,
        parent_id=parsed.parent_id,
        name=pattern.name,
        service=pattern.service,
        kind=kind,
        start_time=parsed.start_time,
        duration=duration,
        status=status,
        node=parsed.node,
        attributes=attributes,
    )


def approximate_span_view(
    pattern: SpanPattern,
    numeric_ranges: dict[str, tuple[float, float]] | None = None,
) -> dict[str, Any]:
    """The masked span view returned for unsampled traces (paper Fig. 10).

    String variables appear as ``<*>``; numeric values appear as their
    observed bucket interval when ranges were reported with the pattern.
    """
    return {
        "name": pattern.name,
        "service": pattern.service,
        "kind": pattern.kind,
        "status": pattern.status,
        "duration": pattern.duration_pattern(numeric_ranges),
        "attributes": pattern.masked_attributes(numeric_ranges),
    }
