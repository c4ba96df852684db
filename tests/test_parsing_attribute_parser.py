"""Unit tests for per-attribute parsers."""

import pytest

from repro.parsing.attribute_parser import NumericAttributeParser, StringAttributeParser


def sql(i: int) -> str:
    return (
        f"SELECT id, name, price, stock, region FROM products "
        f"WHERE id = '{i}' ORDER BY updated_at DESC LIMIT 1"
    )


def template_for_pattern(parser: StringAttributeParser, pattern: str):
    """The parser's template object with this text, or None."""
    for template in parser.templates:
        if template.text == pattern:
            return template
    return None


class TestStringAttributeParser:
    def test_warm_up_then_parse(self):
        parser = StringAttributeParser("sql")
        parser.warm_up([sql(i) for i in range(10)])
        parsed = parser.parse(sql(99))
        assert parsed.kind == "string"
        assert "<*>" in parsed.pattern
        assert any("99" in p for p in parsed.param)

    def test_parse_reconstructable(self):
        parser = StringAttributeParser("sql")
        parser.warm_up([sql(i) for i in range(5)])
        value = sql(12345)
        parsed = parser.parse(value)
        template = template_for_pattern(parser, parsed.pattern)
        assert template is not None
        assert template.reconstruct(parsed.param) == value

    def test_unseen_shape_becomes_new_template(self):
        parser = StringAttributeParser("sql")
        parser.warm_up([sql(i) for i in range(5)])
        before = len(parser.templates)
        parser.parse("totally different text with no shared structure")
        assert len(parser.templates) > before

    def test_online_widening_of_near_miss(self):
        parser = StringAttributeParser("k")
        parser.warm_up(["worker pool alpha thread executor region east zone 1"])
        # A near-miss should widen rather than add a fully-literal copy.
        parsed = parser.parse("worker pool alpha thread executor region east zone 2")
        assert "<*>" in parsed.pattern

    def test_repeated_values_hit_cache(self):
        parser = StringAttributeParser("k")
        first = parser.parse("constant value with several words inside")
        second = parser.parse("constant value with several words inside")
        assert first.pattern == second.pattern
        assert second.param == first.param


class TestNumericAttributeParser:
    def test_parse_splits_bucket_and_offset(self):
        parser = NumericAttributeParser("latency", alpha=0.5)
        parsed = parser.parse(30.0)
        assert parsed.kind == "numeric"
        assert parsed.pattern == "(27, 81]"
        assert parsed.param == pytest.approx(3.0)

    def test_reconstruct(self):
        parser = NumericAttributeParser("latency", alpha=0.5)
        for value in (0.2, 5.0, 29.5, 4096.0):
            parsed = parser.parse(value)
            assert parser.reconstruct(parsed.pattern, parsed.param) == pytest.approx(
                value
            )

    def test_negative_and_zero(self):
        parser = NumericAttributeParser("delta", alpha=0.5)
        for value in (-12.0, 0.0):
            parsed = parser.parse(value)
            assert parser.reconstruct(parsed.pattern, parsed.param) == pytest.approx(
                value
            )

    def test_bucket_for_pattern_rejects_garbage(self):
        parser = NumericAttributeParser("x")
        assert parser.bucket_for_pattern("not a bucket") is None
        with pytest.raises(ValueError):
            parser.reconstruct("not a bucket", 1.0)
