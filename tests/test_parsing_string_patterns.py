"""Unit tests for string templates and template extraction."""

import pytest

from repro.parsing.clustering import cluster_strings
from repro.parsing.string_patterns import (
    WILDCARD,
    StringTemplate,
    extract_template,
    template_from_text,
)
from repro.parsing.tokenizer import tokenize


def template_of(values: list[str], threshold: float = 0.5) -> StringTemplate:
    (cluster,) = cluster_strings(values, threshold=threshold)
    return extract_template(cluster)


class TestStringTemplate:
    def test_literal_template_matches_only_itself(self):
        t = StringTemplate(tokens=tuple(tokenize("select 1")))
        assert t.matches("select 1")
        assert not t.matches("select 2")

    def test_wildcard_matches_and_extracts(self):
        t = StringTemplate(tokens=("select", " ", WILDCARD))
        assert t.matches("select anything at all")
        assert t.extract("select foo") == ["foo"]

    def test_reconstruct_inverts_extract(self):
        t = StringTemplate(tokens=("a", "/", WILDCARD, "/", "c"))
        value = "a/middle-part/c"
        assert t.reconstruct(t.extract(value)) == value

    def test_trailing_newline_is_part_of_the_value(self):
        # The end anchor is the end of the value, not "before a final
        # newline": a literal tail must be the value's true suffix, and
        # a trailing wildcard keeps the newline in its parameter.
        t = StringTemplate(tokens=tuple(tokenize("id = ")) + (WILDCARD,) + (" ", "limit"))
        assert t.extract("id = 77 limit") == ["77"]
        assert t.extract("id = 77 limit\n") is None
        assert not t.matches("id = 77 limit\n")
        t = StringTemplate(tokens=("select", " ", WILDCARD))
        assert t.extract("select x\n") == ["x\n"]
        assert t.reconstruct(t.extract("select x\n")) == "select x\n"
        literal = StringTemplate(tokens=("a",))
        assert literal.matches("a") and not literal.matches("a\n")

    def test_reconstruct_wrong_arity_rejected(self):
        t = StringTemplate(tokens=("a", WILDCARD))
        with pytest.raises(ValueError):
            t.reconstruct(["x", "y"])

    def test_consecutive_wildcards_collapse(self):
        t = StringTemplate(tokens=(WILDCARD, WILDCARD, "x"))
        assert t.wildcard_count == 1

    def test_specificity_counts_literals(self):
        t = StringTemplate(tokens=("a", " ", "b", WILDCARD))
        assert t.literal_token_count == 3
        assert t.wildcard_count == 1

    def test_extract_non_matching_returns_none(self):
        t = StringTemplate(tokens=("fixed",))
        assert t.extract("other") is None


class TestExtractTemplate:
    def test_single_member_is_literal(self):
        t = template_of(["only one value here"])
        assert t.wildcard_count == 0
        assert t.matches("only one value here")

    def test_variable_position_becomes_wildcard(self):
        values = [f"select name from users where id = {i}" for i in (1, 22, 333)]
        t = template_of(values)
        assert t.wildcard_count >= 1
        for value in values:
            assert t.matches(value)
            assert t.reconstruct(t.extract(value)) == value

    def test_template_covers_all_members(self):
        values = [
            "INSERT INTO t (a, b) VALUES (1, 2)",
            "INSERT INTO t (a, b) VALUES (31, 42)",
            "INSERT INTO t (a, b) VALUES (5, 6)",
        ]
        t = template_of(values)
        for value in values:
            assert t.matches(value)

    def test_totally_disjoint_still_covers_members(self):
        values = ["aaa bbb ccc", "xxx yyy zzz"]
        t = template_of(values, threshold=0.0)
        for value in values:
            assert t.matches(value)


class TestTemplateFromText:
    def test_round_trip_simple(self):
        t = StringTemplate(tokens=("select", " ", WILDCARD))
        assert template_from_text(t.text).tokens == t.tokens

    def test_round_trip_embedded_wildcard(self):
        # Wildcard abutting a word with no delimiter.
        t = StringTemplate(tokens=("exec", WILDCARD))
        rebuilt = template_from_text(t.text)
        assert rebuilt.wildcard_count == 1
        assert rebuilt.matches("exec42")

    def test_round_trip_preserves_matching(self):
        values = [f"worker thread pool exec-{i} started ok" for i in (1, 2, 9)]
        t = template_of(values)
        rebuilt = template_from_text(t.text)
        for value in values:
            assert rebuilt.matches(value)
            assert rebuilt.reconstruct(rebuilt.extract(value)) == value
