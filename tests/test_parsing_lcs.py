"""Unit tests for LCS similarity (paper Eq. 1) and its exactness oracle."""

import random
import sys
from collections import Counter

import pytest
import reference_lcs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import MintFramework
from repro.parsing import lcs as lcs_module
from repro.parsing.lcs import lcs_length, lcs_tokens, token_similarity
from repro.sim.experiment import drive, generate_stream
from repro.transport.deployment import Deployment
from repro.verify import fingerprint
from repro.workloads.alibaba import build_dataset
from repro.workloads.onlineboutique import build_onlineboutique
from repro.workloads.trainticket import build_trainticket


class TestLcsLength:
    def test_identical(self):
        assert lcs_length(list("abcd"), list("abcd")) == 4

    def test_disjoint(self):
        assert lcs_length(list("abc"), list("xyz")) == 0

    def test_subsequence(self):
        assert lcs_length(["a", "b", "c", "d"], ["b", "d"]) == 2

    def test_classic_case(self):
        assert lcs_length(list("ABCBDAB"), list("BDCABA")) == 4

    def test_empty(self):
        assert lcs_length([], list("abc")) == 0
        assert lcs_length([], []) == 0

    def test_symmetry(self):
        a, b = list("tokens vary here"), list("tokens differ here")
        assert lcs_length(a, b) == lcs_length(b, a)


class TestLcsTokens:
    def test_is_subsequence_of_both(self):
        a = ["select", "x", "from", "t1", "where", "id"]
        b = ["select", "y", "from", "t2", "where", "id"]
        common = lcs_tokens(a, b)
        assert common == ["select", "from", "where", "id"]

    def test_length_matches_lcs_length(self):
        a = list("ABCBDAB")
        b = list("BDCABA")
        assert len(lcs_tokens(a, b)) == lcs_length(a, b)

    def test_empty_inputs(self):
        assert lcs_tokens([], ["a"]) == []


class TestTokenSimilarity:
    def test_identical_is_one(self):
        assert token_similarity(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint_is_zero(self):
        assert token_similarity(["a"], ["b"]) == 0.0

    def test_both_empty_is_one(self):
        assert token_similarity([], []) == 1.0

    def test_one_empty_is_zero(self):
        assert token_similarity([], ["a"]) == 0.0

    def test_normalised_by_longer(self):
        # LCS=2 over max(2, 4) = 0.5
        assert token_similarity(["a", "b"], ["a", "b", "c", "d"]) == pytest.approx(0.5)

    def test_paper_threshold_case(self):
        # 4 of 5 tokens shared: exactly the 0.8 default threshold.
        a = ["http", "nio", "8080", "exec", "17"]
        b = ["http", "nio", "8080", "exec", "42"]
        assert token_similarity(a, b) == pytest.approx(0.8)


# ----------------------------------------------------------------------
# The kernel against the frozen full-table oracle (tests/reference_lcs.py)
# ----------------------------------------------------------------------
# 2-5 symbols force LCS ties, so the traceback preference is exercised.
small_alphabets = st.integers(2, 5).flatmap(
    lambda k: st.tuples(
        st.lists(st.sampled_from("abcde"[:k]), max_size=24),
        st.lists(st.sampled_from("abcde"[:k]), max_size=24),
    )
)


def assert_equals_oracle(a, b):
    """Both functions, both argument orders: lengths and exact token lists."""
    for x, y in ((a, b), (b, a)):
        assert lcs_length(x, y) == reference_lcs.lcs_length(x, y), (x, y)
        assert lcs_tokens(x, y) == reference_lcs.lcs_tokens(x, y), (x, y)


def edited(rng, base, alphabet, edits):
    """``base`` after ``edits`` random insert / delete / replace steps."""
    out = list(base)
    for _ in range(edits):
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" or not out:
            out.insert(rng.randint(0, len(out)), rng.choice(alphabet))
        elif op == "delete":
            out.pop(rng.randrange(len(out)))
        else:
            out[rng.randrange(len(out))] = rng.choice(alphabet)
    return out


class TestKernelEqualsOracle:
    @given(small_alphabets)
    @settings(max_examples=400, deadline=None)
    def test_random_pairs_over_small_alphabets(self, pair):
        assert_equals_oracle(*pair)

    @given(
        st.lists(st.sampled_from("abc"), max_size=30),
        st.integers(0, 3),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_near_identical_pairs(self, base, edits_a, edits_b, rng):
        assert_equals_oracle(edited(rng, base, "abc", edits_a), edited(rng, base, "abc", edits_b))

    @pytest.mark.parametrize(
        "a, b",
        [
            ([], []),
            ([], ["x"]),
            (["x"], ["x"]),
            (["x", "x"], ["x"]),  # prefix and suffix would overlap
            (["x", "y", "x"], ["x"]),
            (["x", "y", "x", "y"], ["x", "y"]),
            (["x", "z", "x"], ["x", "x"]),
            (["a", "b"], ["b", "a"]),  # tie: up-then-left picks one of two
            (list("ABCBDAB"), list("BDCABA")),
        ],
    )
    def test_edge_cases(self, a, b):
        assert_equals_oracle(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 130, 256, 257, 300])
    def test_past_machine_word_boundaries(self, length):
        """The bit-vector spans several machine words; carries must cross them."""
        rng = random.Random(length)
        for alphabet in ("ab", "abcde", [f"tok{i}" for i in range(40)]):
            base = [rng.choice(alphabet) for _ in range(length)]
            assert_equals_oracle(base, base)
            assert_equals_oracle(base, [rng.choice(alphabet) for _ in range(length)])
            for edits in (1, 3):
                assert_equals_oracle(
                    edited(rng, base, alphabet, edits), edited(rng, base, alphabet, edits)
                )

    def test_seeded_loop(self):
        rng = random.Random(15)
        for _ in range(3000):
            alphabet = "abcde"[: rng.randint(2, 5)]
            if rng.random() < 0.5:
                a = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
                b = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
            else:
                base = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
                a = edited(rng, base, alphabet, rng.randint(0, 3))
                b = edited(rng, base, alphabet, rng.randint(0, 3))
            assert_equals_oracle(a, b)

    def test_accepts_tuples(self):
        a, b = ("select", "x", "from", "t"), ("select", "y", "from", "t")
        assert lcs_tokens(a, b) == ["select", "from", "t"]
        assert lcs_length(a, b) == 3


# ----------------------------------------------------------------------
# Pattern libraries must not move with the kernel
# ----------------------------------------------------------------------
def library_state(workload):
    """Warm up on 30 traces, run 200 online; everything LCS can influence."""
    stream, _ = generate_stream(workload, 230, abnormal_rate=0.1, seed=5)
    framework = MintFramework(deployment=Deployment.single())
    framework.warm_up([trace for _, trace in stream[:30]])
    online = stream[30:]
    drive(framework, online)
    templates, span_patterns, topo_patterns = {}, {}, {}
    for node, collector in framework._collectors.items():
        agent = collector.agent
        for key, parser in agent.span_parser._string_parsers.items():
            templates[node, key] = [template.tokens for template in parser.templates]
        span_patterns[node] = [p.pattern_id for p in agent.span_parser.library.patterns()]
        topo_patterns[node] = [p.pattern_id for p in agent.topo_library.patterns()]
    state = (templates, span_patterns, topo_patterns, fingerprint(framework, online))
    framework.close()
    return state


def patch_in_oracle(patch, calls):
    """Bind the (call-counting) oracle wherever the kernel's functions are bound."""
    for name in ("lcs_length", "lcs_tokens"):
        kernel = getattr(lcs_module, name)

        def oracle(a, b, name=name):
            calls[name] += 1
            return getattr(reference_lcs, name)(a, b)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("repro") and vars(module).get(name) is kernel:
                patch.setattr(module, name, oracle)


@pytest.mark.parametrize(
    "build",
    [build_trainticket, build_onlineboutique, lambda: build_dataset("A")],
    ids=["trainticket", "onlineboutique", "dataset-A"],
)
def test_pattern_libraries_do_not_move(build, monkeypatch):
    workload = build()
    with_kernel = library_state(workload)
    oracle_calls = Counter()
    patch_in_oracle(monkeypatch, oracle_calls)
    with_oracle = library_state(workload)
    assert oracle_calls["lcs_length"] > 100 and oracle_calls["lcs_tokens"] > 100
    for got, want in zip(with_kernel, with_oracle):
        assert got == want
