"""Unit tests for the span parser (offline + online stages)."""

import pytest

from repro.model.span import SpanStatus
from repro.parsing.span_parser import (
    DURATION_KEY,
    NUMERIC_MARKER,
    SpanParser,
    SpanPattern,
    approximate_span_view,
    reconstruct_exact_span,
)
from tests.conftest import make_span


def sample_span(i: int, **kwargs):
    kwargs.setdefault("duration", 10.0 + i)
    return make_span(
        span_id=f"{i:016x}",
        trace_id=f"{i:032x}",
        attributes={
            "sql": (
                f"SELECT id, name, price, stock, region FROM products "
                f"WHERE id = '{i}' ORDER BY updated_at DESC LIMIT 1"
            ),
            "rows": i % 7 + 1,
        },
        **kwargs,
    )


class TestSpanParser:
    def test_same_shape_spans_share_pattern(self):
        parser = SpanParser()
        parser.warm_up([sample_span(i) for i in range(10)])
        a = parser.parse(sample_span(100))
        b = parser.parse(sample_span(101))
        assert a.pattern_id == b.pattern_id

    def test_numeric_buckets_not_in_identity(self):
        parser = SpanParser()
        parser.warm_up([sample_span(i) for i in range(6)])
        # Wildly different durations must not split the pattern.
        a = parser.parse(sample_span(101, duration=1.0))
        b = parser.parse(sample_span(102, duration=100000.0))
        assert a.pattern_id == b.pattern_id
        pattern = parser.library.get(a.pattern_id)
        assert (DURATION_KEY, "numeric", NUMERIC_MARKER) in pattern.attributes

    def test_status_is_part_of_identity(self):
        parser = SpanParser()
        ok = parser.parse(sample_span(1))
        err = parser.parse(sample_span(2, status=SpanStatus.ERROR))
        assert ok.pattern_id != err.pattern_id

    def test_reserved_key_rejected(self):
        parser = SpanParser()
        with pytest.raises(ValueError):
            parser.parse(make_span(attributes={"__x__": "v"}))

    def test_exact_reconstruction(self):
        parser = SpanParser()
        parser.warm_up([sample_span(i) for i in range(8)])
        span = sample_span(55)
        parsed = parser.parse(span)
        rebuilt = reconstruct_exact_span(parser.library.get(parsed.pattern_id), parsed)
        assert rebuilt.attributes == span.attributes
        assert rebuilt.duration == pytest.approx(span.duration)
        assert rebuilt.span_id == span.span_id
        assert rebuilt.kind is span.kind

    def test_exact_reconstruction_keeps_trailing_newline(self):
        # A ``$``-anchored template regex matched just before a trailing
        # "\n" and dropped it from the extracted parameters.
        def db_span(i: int, tail: str = ""):
            statement = f"select * from users where id = {i} limit 10{tail}"
            return make_span(span_id=f"{i:016x}", attributes={"db.statement": statement})

        parser = SpanParser()
        parser.warm_up([db_span(i) for i in range(20)])
        for i in (41, 42, 43):
            parser.parse(db_span(i))
        span = db_span(77, tail="\n")
        parsed = parser.parse(span)
        rebuilt = reconstruct_exact_span(parser.library.get(parsed.pattern_id), parsed)
        assert rebuilt.attributes == span.attributes

    def test_match_counts(self):
        parser = SpanParser()
        parser.warm_up([sample_span(i) for i in range(6)])
        first = parser.parse(sample_span(201))
        parser.parse(sample_span(202))
        assert parser.library.match_count(first.pattern_id) >= 2

    def test_numeric_ranges_tracked(self):
        parser = SpanParser()
        parsed = parser.parse(sample_span(1, duration=30.0))
        parser.parse(sample_span(2, duration=29.0))
        ranges = parser.library.numeric_ranges(parsed.pattern_id)
        assert DURATION_KEY in ranges
        lower, upper = ranges[DURATION_KEY]
        assert lower < 30.0 <= upper

    def test_bool_attribute_treated_as_string(self):
        parser = SpanParser()
        parsed = parser.parse(make_span(attributes={"flag": True}))
        pattern = parser.library.get(parsed.pattern_id)
        kinds = {key: kind for key, kind, _ in pattern.attributes}
        assert kinds["flag"] == "string"


class TestCompactRecord:
    def test_round_trip(self):
        parser = SpanParser()
        span = sample_span(9)
        parsed = parser.parse(span)
        pattern = parser.library.get(parsed.pattern_id)
        record = parsed.compact_record(pattern)
        from repro.parsing.span_parser import ParsedSpan

        rebuilt = ParsedSpan.from_compact_record(span.trace_id, record, pattern)
        assert rebuilt.params == parsed.params
        assert rebuilt.span_id == parsed.span_id
        assert rebuilt.pattern_id == parsed.pattern_id


class TestPatternSerialisation:
    def test_to_from_dict(self):
        parser = SpanParser()
        parsed = parser.parse(sample_span(4))
        pattern = parser.library.get(parsed.pattern_id)
        rebuilt = SpanPattern.from_dict(pattern.to_dict())
        assert rebuilt == pattern
        assert rebuilt.pattern_id == pattern.pattern_id

    def test_pattern_dict_includes_ranges(self):
        parser = SpanParser()
        parsed = parser.parse(sample_span(4))
        data = parser.library.pattern_dict(parsed.pattern_id)
        assert "numeric_ranges" in data
        assert DURATION_KEY in data["numeric_ranges"]


class TestApproximateView:
    def test_masks_strings_and_buckets_numerics(self):
        parser = SpanParser()
        parser.warm_up([sample_span(i) for i in range(6)])
        parsed = parser.parse(sample_span(77, duration=30.0))
        pattern = parser.library.get(parsed.pattern_id)
        ranges = parser.library.numeric_ranges(parsed.pattern_id)
        view = approximate_span_view(pattern, ranges)
        assert "<*>" in view["attributes"]["sql"]
        assert view["attributes"]["rows"].startswith("(")
        assert view["duration"].endswith("]")

    def test_without_ranges_shows_marker(self):
        parser = SpanParser()
        parsed = parser.parse(sample_span(1))
        pattern = parser.library.get(parsed.pattern_id)
        view = approximate_span_view(pattern, None)
        assert view["attributes"]["rows"] == NUMERIC_MARKER
