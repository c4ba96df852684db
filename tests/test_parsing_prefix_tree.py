"""Unit tests for the template prefix tree and its exactness oracle."""

import random
import sys
from collections import Counter

import pytest
import reference_prefix_tree
from hypothesis import given, settings
from hypothesis import strategies as st
from test_parsing_lcs import library_state

from repro.framework import MintFramework
from repro.parsing import attribute_parser
from repro.parsing.prefix_tree import TemplatePrefixTree
from repro.parsing.string_patterns import WILDCARD, StringTemplate
from repro.parsing.tokenizer import tokenize
from repro.sim.experiment import drive, generate_stream
from repro.workloads.alibaba import build_dataset
from repro.workloads.onlineboutique import build_onlineboutique
from repro.workloads.trainticket import build_trainticket
from tests.conftest import make_chain_trace


def t(*tokens: str) -> StringTemplate:
    return StringTemplate(tokens=tokens)


class TestInsertAndContains:
    def test_insert_and_contains(self):
        tree = TemplatePrefixTree()
        template = t("select", " ", WILDCARD)
        assert tree.insert(template)
        assert template in tree
        assert len(tree) == 1

    def test_duplicate_insert_rejected(self):
        tree = TemplatePrefixTree()
        template = t("a", " ", "b")
        assert tree.insert(template)
        assert not tree.insert(template)
        assert len(tree) == 1

    def test_templates_listing(self):
        tree = TemplatePrefixTree()
        t1, t2 = t("a", " ", "b"), t("a", " ", WILDCARD)
        tree.insert(t1)
        tree.insert(t2)
        assert set(tree.templates()) == {t1, t2}

    def test_prefix_sharing_reduces_nodes(self):
        shared = TemplatePrefixTree()
        shared.insert(t("select", " ", "a"))
        shared.insert(t("select", " ", "b"))
        disjoint = TemplatePrefixTree()
        disjoint.insert(t("select", " ", "a"))
        disjoint.insert(t("update", " ", "b"))
        assert shared.node_count() < disjoint.node_count()


class TestMatching:
    def test_exact_literal_match(self):
        tree = TemplatePrefixTree()
        template = t(*tokenize("select 1"))
        tree.insert(template)
        assert tree.find_match("select 1", tokenize("select 1")) == template

    def test_wildcard_match(self):
        tree = TemplatePrefixTree()
        template = t("select", " ", WILDCARD)
        tree.insert(template)
        value = "select something"
        assert tree.find_match(value, tokenize(value)) == template

    def test_most_specific_wins(self):
        tree = TemplatePrefixTree()
        loose = t(WILDCARD)
        tight = t("select", " ", WILDCARD)
        tree.insert(loose)
        tree.insert(tight)
        value = "select x"
        assert tree.find_match(value, tokenize(value)) == tight

    def test_no_match_returns_none(self):
        tree = TemplatePrefixTree()
        tree.insert(t("update", " ", WILDCARD))
        assert tree.find_match("delete row", tokenize("delete row")) is None

    def test_wildcard_consuming_zero_tokens(self):
        tree = TemplatePrefixTree()
        template = t("prefix", WILDCARD)
        tree.insert(template)
        assert tree.find_match("prefix", tokenize("prefix")) == template

    def test_trailing_wildcard_consumes_rest(self):
        tree = TemplatePrefixTree()
        template = t("a", " ", WILDCARD)
        tree.insert(template)
        value = "a b c d e f"
        assert tree.find_match(value, tokenize(value)) == template

    def test_interior_wildcard(self):
        tree = TemplatePrefixTree()
        template = t("begin", " ", WILDCARD, " ", "end")
        tree.insert(template)
        value = "begin middle stuff end"
        assert tree.find_match(value, tokenize(value)) == template


def node_objects(tree: TemplatePrefixTree) -> int:
    """Node objects the tree allocates (not the per-token ``node_count``)."""
    count, stack = 0, [tree._root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend((node.children or {}).values())
    return count


class TestRadixShape:
    def test_nodes_sit_only_where_templates_branch_or_end(self):
        tree = TemplatePrefixTree()
        tree.insert(t(*tokenize("select a from b where c")))
        assert node_objects(tree) == 2  # root + one edge of 11 tokens
        assert tree.node_count() == 12  # root + every stored token position
        tree.insert(t(*tokenize("select a from d")))
        assert node_objects(tree) == 4  # the edge split at "d"
        assert tree.node_count() == 13

    def test_split_keeps_insertion_order_and_prefix_templates(self):
        tree = TemplatePrefixTree()
        long, short = t("a", " ", "b", " ", "c"), t("a", " ", "b")
        assert tree.insert(long)
        assert tree.insert(short)  # ends mid-edge: the split node holds it
        assert short in tree and long in tree
        assert t("a", " ") not in tree and t("a", " ", "b", " ") not in tree
        assert tree.templates() == [short, long]
        assert not tree.insert(short)

    def test_empty_template_lives_at_the_root(self):
        tree = TemplatePrefixTree()
        empty = t()
        assert tree.insert(empty)
        assert empty in tree
        assert tree.find_match("", []) == empty
        assert tree.node_count() == 1


# ----------------------------------------------------------------------
# A very long value must not exhaust the interpreter stack
# ----------------------------------------------------------------------
def long_insert_trace(trace_id: str, first_row: int):
    """One span whose ``db.statement`` is a 600-row INSERT (~1 200 tokens)."""
    rows = ", ".join(f"({i})" for i in range(first_row, first_row + 600))
    statement = f"INSERT INTO ts_order (id) VALUES {rows}"
    return make_chain_trace(depth=1, trace_id=trace_id, base_attrs={"db.statement": statement})


def test_a_thousand_token_value_runs_through_warm_up_ingest_and_query():
    warm = long_insert_trace("c" * 32, 0)
    assert len(tokenize(warm.spans[0].attributes["db.statement"])) > sys.getrecursionlimit()
    mint = MintFramework()
    mint.warm_up([warm])
    online = [long_insert_trace(f"{i:032x}", 7 * i) for i in range(1, 4)]
    for trace in online:
        mint.process_trace(trace)
    mint.finalize()
    for trace in online:
        assert mint.query(trace.trace_id).is_hit
    mint.close()


# ----------------------------------------------------------------------
# The radix tree against the frozen per-token trie
# (tests/reference_prefix_tree.py)
# ----------------------------------------------------------------------
def trie_candidates(tree: reference_prefix_tree.TemplatePrefixTree, tokens: list[str]):
    out: list[StringTemplate] = []
    tree._walk(tree._root, tokens, 0, out, set())
    return out


@st.composite
def trees_and_values(draw):
    """Templates over a 2-4 letter alphabet plus the wildcard (ties are
    common), a random insertion order, and values that are either
    random or a stored template with its wildcards filled."""
    alphabet = ["a", "b", " ", "c"][: draw(st.integers(2, 4))]
    token_lists = st.lists(st.sampled_from([*alphabet, WILDCARD]), max_size=8)
    templates = draw(st.lists(token_lists.map(lambda ts: t(*ts)), max_size=12))
    order = draw(st.permutations(range(len(templates))))
    fills = st.lists(st.sampled_from(alphabet), max_size=3)
    values = []
    for _ in range(draw(st.integers(1, 8))):
        if templates and draw(st.booleans()):
            base = templates[draw(st.integers(0, len(templates) - 1))].tokens
            tokens = []
            for token in base:
                tokens.extend(draw(fills) if token == WILDCARD else [token])
        else:
            tokens = draw(st.lists(st.sampled_from([*alphabet, WILDCARD]), max_size=10))
        values.append(tokens)
    return [templates[i] for i in order], values


def assert_trees_agree(templates, values):
    radix, trie = TemplatePrefixTree(), reference_prefix_tree.TemplatePrefixTree()
    for template in templates:
        assert radix.insert(template) == trie.insert(template)
        assert len(radix) == len(trie)
        assert radix.templates() == trie.templates()
        assert radix.node_count() == trie.node_count()
    assert node_objects(radix) <= 2 * len(radix) + 1
    for tokens in values:
        assert radix._candidates(tokens) == trie_candidates(trie, tokens), tokens
        value = "".join(tokens)
        assert radix.find_match(value, tokens) is trie.find_match(value, tokens)
        probe = t(*tokens)
        assert (probe in radix) == (probe in trie)


class TestRadixEqualsTrie:
    @given(trees_and_values())
    @settings(max_examples=600, deadline=None)
    def test_random_trees_over_tie_heavy_alphabets(self, case):
        assert_trees_agree(*case)

    def test_seeded_loop(self):
        rng = random.Random(27)
        for _ in range(1500):
            alphabet = ["a", "b", " ", "c", WILDCARD][: rng.randint(2, 5)]
            templates = [
                t(*(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
                for _ in range(rng.randint(0, 12))
            ]
            values = [
                [rng.choice(alphabet) for _ in range(rng.randint(0, 9))] for _ in range(20)
            ]
            assert_trees_agree(templates, values)

    def test_real_values(self):
        values = [
            "SELECT id, name FROM users WHERE id = 42",
            "SELECT id, name FROM users WHERE id = 42 AND org = 7",
            "SELECT id FROM orders WHERE id = 9",
            "GET /api/v1/orders/9/items",
        ]
        templates = [
            t(*tokenize("SELECT id, name FROM users WHERE id = "), WILDCARD),
            t(*tokenize("SELECT "), WILDCARD, *tokenize(" FROM "), WILDCARD),
            t(*tokenize("SELECT id"), WILDCARD, *tokenize(" WHERE id = "), WILDCARD),
            t(*tokenize("GET /api/v1/"), WILDCARD, *tokenize("/items")),
            t(WILDCARD),
        ]
        for order in (templates, templates[::-1]):
            assert_trees_agree(order, [tokenize(v) for v in values])


# ----------------------------------------------------------------------
# Pattern libraries must not move with the tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [build_trainticket, build_onlineboutique, lambda: build_dataset("A")],
    ids=["trainticket", "onlineboutique", "dataset-A"],
)
def test_pattern_libraries_do_not_move(build, monkeypatch):
    workload = build()
    with_radix = library_state(workload)
    walks = Counter()

    class CountingTrie(reference_prefix_tree.TemplatePrefixTree):
        def find_match(self, value, tokens):
            walks["find_match"] += 1
            return super().find_match(value, tokens)

    monkeypatch.setattr(attribute_parser, "TemplatePrefixTree", CountingTrie)
    with_trie = library_state(workload)
    assert walks["find_match"] > 20
    for got, want in zip(with_radix, with_trie):
        assert got == want


# ----------------------------------------------------------------------
# The radix invariant on a real library
# ----------------------------------------------------------------------
def test_trainticket_trees_hold_at_most_two_nodes_per_template():
    stream, _ = generate_stream(build_trainticket(), 350, seed=17)
    mint = MintFramework()
    mint.warm_up([trace for _, trace in stream[:50]])
    drive(mint, stream[50:])
    trees = [
        parser._tree
        for collector in mint._collectors.values()
        for parser in collector.agent.span_parser._string_parsers.values()
    ]
    mint.close()
    assert len(trees) > 100
    for tree in trees:
        assert node_objects(tree) <= 2 * len(tree) + 1, (len(tree), node_objects(tree))
    # A one-node-per-token trie breaks the bound here, so the test bites.
    assert any(tree.node_count() > 2 * len(tree) + 1 for tree in trees)
