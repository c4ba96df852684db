"""Unit tests for string tokenisation."""

from repro.model.trace import SubTrace
from repro.parsing.tokenizer import detokenize, tokenize, word_tokens
from tests.conftest import make_span
from tests.test_backend_retroactive_pull import wire


class TestTokenize:
    def test_simple_sql(self):
        tokens = tokenize("select * from A")
        assert "select" in tokens
        assert "from" in tokens
        assert "A" in tokens

    def test_round_trip_simple(self):
        text = "select * from A"
        assert detokenize(tokenize(text)) == text

    def test_delimiters_kept_as_tokens(self):
        tokens = tokenize("a/b=c")
        assert tokens == ["a", "/", "b", "=", "c"]

    def test_compound_identifiers_split(self):
        # Underscore and dash split so common stems count towards LCS.
        assert "patch" in tokenize("patch_inventory")
        assert "scheduling" in tokenize("scheduling-1")

    def test_wildcard_survives(self):
        assert tokenize("select * from <*>")[-1] == "<*>"

    def test_whitespace_kept_verbatim(self):
        assert tokenize("a   b") == ["a", "   ", "b"]
        assert tokenize("a\tb\nc") == ["a", "\t", "b", "\n", "c"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestWordTokens:
    def test_delimiters_excluded(self):
        words = word_tokens(tokenize("a/b = c"))
        assert words == ["a", "b", "c"]

    def test_star_is_a_word(self):
        # '*' is deliberately not a delimiter (wildcard round-tripping).
        assert "*" in word_tokens(tokenize("select * from t"))


class TestWhitespaceThroughTheAgent:
    def test_ingest_and_query_reconstruct_whitespace_exactly(self):
        # One tab, newline or double space once stopped the agent: a
        # template learned from normalised tokens did not match its value.
        backend, collector = wire()
        trace_id = "1" * 32
        attributes = {
            "db.statement": "select  a\tfrom t\nwhere id = 7",
            "note": "two  spaces",
            "tab": "a\tb",
            "lines": "x\ny",
        }
        span = make_span(trace_id=trace_id, attributes=attributes)
        collector.process(SubTrace(trace_id=trace_id, node="node-0", spans=[span]), now=0.0)
        collector.flush(now=10.0)
        result = backend.query(trace_id, pull_params=True)
        assert result.status == "exact"
        assert [s.attributes for s in result.trace.spans] == [attributes]
