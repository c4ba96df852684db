"""Unit tests for wire encoding and the byte ruler."""

import json
import re

import pytest

from repro.model.encoding import (
    JSON_ESCAPE_RE,
    decode_span,
    decode_trace,
    encode_span,
    encode_trace,
    encoded_size,
    json_string_size,
)
from repro.model.span import SpanKind, SpanStatus
from tests.conftest import make_chain_trace, make_span


class TestSpanRoundTrip:
    def test_simple_round_trip(self):
        span = make_span(attributes={"sql": "select 1", "rows": 3})
        assert decode_span(encode_span(span)) == span

    def test_round_trip_preserves_kind_and_status(self):
        span = make_span(kind=SpanKind.CLIENT, status=SpanStatus.ERROR)
        decoded = decode_span(encode_span(span))
        assert decoded.kind is SpanKind.CLIENT
        assert decoded.status is SpanStatus.ERROR

    def test_round_trip_preserves_none_parent(self):
        decoded = decode_span(encode_span(make_span(parent_id=None)))
        assert decoded.parent_id is None

    def test_unicode_attribute_values(self):
        span = make_span(attributes={"msg": "延迟过高 — timeout"})
        assert decode_span(encode_span(span)).attributes["msg"] == "延迟过高 — timeout"


class TestTraceRoundTrip:
    def test_trace_round_trip(self):
        trace = make_chain_trace(depth=3)
        assert decode_trace(encode_trace(trace)) == trace

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_trace("")


class TestEncodedSize:
    def test_span_size_positive(self):
        assert encoded_size(make_span()) > 0

    def test_trace_size_is_sum_of_lines(self):
        trace = make_chain_trace(depth=3)
        per_span = sum(encoded_size(s) for s in trace.spans)
        # Newlines join the spans: n-1 extra bytes.
        assert encoded_size(trace) == per_span + len(trace.spans) - 1

    def test_str_and_bytes(self):
        assert encoded_size("abc") == 3
        assert encoded_size(b"abcd") == 4
        assert encoded_size("é") == 2  # utf-8

    def test_json_fallback(self):
        assert encoded_size({"a": 1}) == len('{"a":1}')

    def test_more_attributes_cost_more(self):
        small = make_span(attributes={"a": "1"})
        big = make_span(attributes={"a": "1", "b": "2" * 100})
        assert encoded_size(big) > encoded_size(small) + 100


class TestJsonEscapeClass:
    """The single negated class is the old alternation, code point for code point."""

    def test_agrees_with_the_alternation_on_every_code_point(self):
        alternation = re.compile(r'[^ -~]|["\\]')
        text = "".join(map(chr, range(0x110000)))
        assert JSON_ESCAPE_RE.findall(text) == alternation.findall(text)

    def test_flags_exactly_what_json_dumps_changes(self):
        for ch in map(chr, range(0x250)):
            plain = len(json.dumps(ch)) == 3
            assert (JSON_ESCAPE_RE.search(ch) is None) == plain, repr(ch)
            assert json_string_size(ch) == len(json.dumps(ch))
