"""Property-based tests (hypothesis) for core invariants.

These pin down the guarantees the whole design leans on:

* Bloom filters never produce false negatives;
* templates reconstruct exactly what they extracted;
* numeric bucket + offset reconstructs the original value;
* the Params Buffer never exceeds its byte budget;
* wire encodings round-trip;
* LCS similarity is a symmetric, bounded measure.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bloom_filter import BloomFilter
from repro.model.encoding import decode_span, encode_span
from repro.model.span import Span, SpanKind, SpanStatus
from repro.parsing.lcs import lcs_length, token_similarity
from repro.parsing.numeric_buckets import NumericBucketer
from repro.parsing.string_patterns import WILDCARD, StringTemplate, template_from_text
from repro.parsing.tokenizer import detokenize, tokenize

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
hex_ids = st.text(alphabet="0123456789abcdef", min_size=8, max_size=32)
words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)
token_lists = st.lists(words, min_size=0, max_size=12)
safe_text = st.text(
    alphabet=st.characters(blacklist_characters="<>*", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=60,
)
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


# ----------------------------------------------------------------------
# Bloom filter
# ----------------------------------------------------------------------
class TestBloomProperties:
    @given(st.lists(hex_ids, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_never_false_negative(self, items):
        filt = BloomFilter(expected_insertions=max(64, len(items)))
        for item in items:
            filt.add(item)
        for item in items:
            assert item in filt

    @given(st.lists(hex_ids, min_size=1, max_size=100), st.lists(hex_ids, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_union_superset_of_both(self, left, right):
        a = BloomFilter(256, 0.01)
        b = BloomFilter(256, 0.01)
        for item in left:
            a.add(item)
        for item in right:
            b.add(item)
        merged = a.union(b)
        for item in left + right:
            assert item in merged

    @given(st.lists(hex_ids, min_size=1, max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_serialisation_preserves_membership(self, items):
        filt = BloomFilter(256, 0.01)
        for item in items:
            filt.add(item)
        clone = BloomFilter.from_bytes(filt.to_bytes(), 256, 0.01, len(items))
        for item in items:
            assert item in clone


# ----------------------------------------------------------------------
# Templates
# ----------------------------------------------------------------------
class TestTemplateProperties:
    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_tokenize_detokenize_stable(self, text):
        assert detokenize(tokenize(text)) == text

    @given(st.lists(words, min_size=1, max_size=6), st.lists(words, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_extract_reconstruct_inverse(self, literals, fills):
        # Build a template alternating literals and wildcards.
        tokens: list[str] = []
        for lit in literals:
            tokens.append(lit)
            tokens.append(" ")
            tokens.append(WILDCARD)
            tokens.append(" ")
        template = StringTemplate(tokens=tuple(tokens[:-1]))
        params = [fills[i % len(fills)] for i in range(template.wildcard_count)]
        value = template.reconstruct(params)
        extracted = template.extract(value)
        assert extracted is not None
        assert template.reconstruct(extracted) == value

    @given(st.lists(words, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_template_text_round_trip(self, literals):
        tokens = []
        for i, lit in enumerate(literals):
            tokens.append(lit)
            if i % 2 == 0:
                tokens.append(WILDCARD)
        template = StringTemplate(tokens=tuple(tokens))
        rebuilt = template_from_text(template.text)
        assert rebuilt.wildcard_count == template.wildcard_count


# ----------------------------------------------------------------------
# Numeric bucketing
# ----------------------------------------------------------------------
class TestBucketProperties:
    @given(
        finite_floats,
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_bucket_plus_offset_reconstructs(self, value, alpha):
        bucketer = NumericBucketer(alpha=alpha)
        bucket = bucketer.bucket_of(value)
        param = bucketer.parameter_of(value) if value != 0 else 0.0
        rebuilt = bucketer.reconstruct(bucket, param)
        assert math.isclose(rebuilt, value, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_value_within_bucket(self, value):
        bucketer = NumericBucketer(alpha=0.5)
        bucket = bucketer.bucket_of(value)
        assert bucket.lower <= value * (1 + 1e-12)
        assert value <= bucket.upper * (1 + 1e-12)

    @given(st.floats(min_value=1.001, max_value=1e9))
    @settings(max_examples=100, deadline=None)
    def test_representative_error_bounded(self, value):
        bucketer = NumericBucketer(alpha=0.5)
        bucket = bucketer.bucket_of(value)
        rel_error = abs(bucket.midpoint - value) / value
        assert rel_error <= bucketer.relative_error_bound() + 1e-9


# ----------------------------------------------------------------------
# LCS
# ----------------------------------------------------------------------
class TestLcsProperties:
    @given(token_lists, token_lists)
    @settings(max_examples=100, deadline=None)
    def test_similarity_symmetric_and_bounded(self, a, b):
        s_ab = token_similarity(a, b)
        s_ba = token_similarity(b, a)
        assert math.isclose(s_ab, s_ba)
        assert 0.0 <= s_ab <= 1.0

    @given(token_lists)
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_is_one(self, a):
        assert token_similarity(a, a) == 1.0

    @given(token_lists, token_lists)
    @settings(max_examples=100, deadline=None)
    def test_lcs_bounded_by_shorter(self, a, b):
        assert lcs_length(a, b) <= min(len(a), len(b))


# ----------------------------------------------------------------------
# Params buffer budget
# ----------------------------------------------------------------------
class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(10, 400)),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=500, max_value=5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, additions, capacity):
        from repro.agent.params_buffer import ParamsBuffer
        from repro.parsing.span_parser import ParsedSpan

        buf = ParamsBuffer(capacity_bytes=capacity)
        for i, (trace_n, payload_len) in enumerate(additions):
            buf.add(
                ParsedSpan(
                    trace_id=f"{trace_n:032x}",
                    span_id=f"{i:016x}",
                    parent_id=None,
                    node="n",
                    start_time=0.0,
                    pattern_id="p" * 16,
                    params={"v": ["x" * payload_len]},
                )
            )
            # Invariant: over budget only if a single block exceeds it
            # and is the only block (nothing left to evict).
            assert buf.used_bytes <= capacity or len(buf) == 1


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
class TestEncodingProperties:
    @given(
        hex_ids,
        st.dictionaries(
            st.text(
                alphabet=st.characters(blacklist_characters="_", blacklist_categories=("Cs",)),
                min_size=1,
                max_size=10,
            ).filter(lambda k: not k.startswith("__")),
            st.one_of(safe_text, st.integers(-1000, 1000), finite_floats),
            max_size=5,
        ),
        st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_span_encoding_round_trip(self, span_id_raw, attributes, duration):
        span = Span(
            trace_id="a" * 32,
            span_id=(span_id_raw + "0" * 16)[:16],
            parent_id=None,
            name="op",
            service="svc",
            kind=SpanKind.SERVER,
            status=SpanStatus.OK,
            start_time=1.5,
            duration=duration,
            node="node-0",
            attributes=attributes,
        )
        assert decode_span(encode_span(span)) == span
