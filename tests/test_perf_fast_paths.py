"""Fast-path equivalence tests for the batched ingestion engine.

The engine's optimisations (interned pattern identity, span replay
plans, the incremental byte estimator, incremental hot-template
ranking, Bloom fast paths) are all *supposed to be invisible*: same
ids, same bytes, same decisions as the reference computations.  These
tests pin that equivalence down.
"""

from __future__ import annotations

import collections
import hashlib
import math
import random
import string

import pytest

from repro.agent.agent import MintAgent
from repro.agent.config import MintConfig
from repro.bloom.bloom_filter import BloomFilter, sized_for_bytes
from repro.model.encoding import encoded_size, fast_encoded_size
from repro.model.span import Span, SpanKind, SpanStatus
from repro.model.trace import SubTrace
from repro.parsing.attribute_parser import StringAttributeParser
from repro.parsing.span_parser import SpanParser, SpanPattern, SpanPatternLibrary
from repro.sim.experiment import generate_stream
from repro.workloads import WORKLOAD_BUILDERS, build_onlineboutique


def _make_span(i: int, rng: random.Random, node: str = "node-0") -> Span:
    """Spans mixing stable vocabularies with high-cardinality values."""
    return Span(
        trace_id=f"trace-{i:08x}",
        span_id=f"span-{i:08x}",
        parent_id=None if i % 3 == 0 else f"span-{i - 1:08x}",
        name=f"op-{i % 4}",
        service=f"svc-{i % 3}",
        kind=SpanKind.SERVER,
        start_time=rng.uniform(0, 100),
        duration=rng.uniform(0.1, 50),
        status=SpanStatus.OK if i % 7 else SpanStatus.ERROR,
        node=node,
        attributes={
            "http.method": rng.choice(["GET", "POST"]),
            "http.url": f"/api/items/{rng.randrange(10**9):x}",
            "region": rng.choice(["eu-west", "us-east", "ap-south"]),
            "retries": rng.randrange(4),
            "payload": rng.uniform(1, 1e6),
        },
    )


class TestPatternIdentity:
    def test_pattern_id_is_content_hash(self):
        pattern = SpanPattern(
            name="op",
            service="svc",
            kind="server",
            status="ok",
            attributes=(("k", "string", "v <*>"),),
        )
        expected = hashlib.sha1(repr(pattern).encode("utf-8")).hexdigest()[:16]
        assert pattern.pattern_id == expected
        # Cached access returns the same value.
        assert pattern.pattern_id == expected

    def test_ids_stable_across_libraries_and_processes(self):
        """The backend merge invariant: two agents observing the same
        span shape must derive the same id with no coordination."""
        rng_a, rng_b = random.Random(5), random.Random(5)
        parser_a, parser_b = SpanParser(), SpanParser()
        ids_a = [parser_a.parse(_make_span(i, rng_a)).pattern_id for i in range(60)]
        ids_b = [parser_b.parse(_make_span(i, rng_b)).pattern_id for i in range(60)]
        assert ids_a == ids_b

    def test_intern_matches_register(self):
        library = SpanPatternLibrary()
        pattern = SpanPattern(
            name="op",
            service="svc",
            kind="server",
            status="ok",
            attributes=(("k", "string", "v"),),
        )
        via_register = library.register(pattern)
        via_intern = library.intern("op", "svc", "server", "ok", (("k", "string", "v"),))
        assert via_register == via_intern == pattern.pattern_id
        assert library.match_count(via_intern) == 2

    def test_round_trip_preserves_id(self):
        pattern = SpanPattern(
            name="op",
            service="svc",
            kind="client",
            status="error",
            attributes=(("a", "numeric", "<num>"), ("b", "string", "x <*>")),
        )
        assert SpanPattern.from_dict(pattern.to_dict()).pattern_id == pattern.pattern_id


class TestIncrementalSizeEstimator:
    def _random_value(self, rng: random.Random, depth: int = 0):
        roll = rng.random()
        if depth > 2 or roll < 0.4:
            return rng.choice(
                [
                    rng.uniform(-1e6, 1e6),
                    rng.randrange(-(10**9), 10**9),
                    "".join(rng.choice(string.printable) for _ in range(rng.randrange(20))),
                    'esc"ape\\',
                    "unicode-é中文",
                    None,
                    True,
                    False,
                    float("nan"),
                    float("inf"),
                ]
            )
        if roll < 0.7:
            return [self._random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return {
            "".join(rng.choice(string.ascii_letters) for _ in range(rng.randrange(1, 6))):
                self._random_value(rng, depth + 1)
            for _ in range(rng.randrange(4))
        }

    def test_fast_encoded_size_matches_ruler(self):
        rng = random.Random(99)
        for _ in range(2000):
            value = self._random_value(rng)
            assert fast_encoded_size(value) == encoded_size(value)

    def test_params_size_matches_ruler_on_random_records(self):
        """Every span the parser returns carries its record layout and
        sizes to the JSON ruler's byte, on each parse path: a full parse
        that stores a replay plan, one that cannot (plan table full), a
        replay, and a replay whose volatile value re-interns the shape."""
        rng = random.Random(7)
        parser = SpanParser()
        paths: collections.Counter[str] = collections.Counter()
        parse_full, parse_from_plan = parser._parse_full, parser._parse_from_plan

        def counted_full(span, *args):
            plans = len(parser._span_plans)
            parsed = parse_full(span, *args)
            paths["stored" if len(parser._span_plans) > plans else "unstored"] += 1
            return parsed

        def counted_replay(span, plan, *args):
            parsed = parse_from_plan(span, plan, *args)
            paths["replay" if parsed.pattern_id == plan[0] else "reinterned"] += 1
            return parsed

        parser._parse_full = counted_full
        parser._parse_from_plan = counted_replay
        labels = ['esc"ape\\', "unicode-é中文", "ctl\x01char", "plain"]
        for i in range(600):
            if i == 400:
                parser._SPAN_PLAN_CAP = len(parser._span_plans)  # table full from here
            if i % 50 == 49:
                # A volatile value of a new shape lands on a new template.
                msg = f"quota 'é' exceeded \\ {rng.randrange(99)} retries"
            else:
                msg = f'user {rng.randrange(10**6)} said "hi" é'
            span = Span(
                trace_id=f"t-{i}",
                span_id=f's"{i}\\' if i % 5 == 0 else f"{i:016x}",
                parent_id=None if i % 3 == 0 else f"p-é{i}",
                name=f"op-{i % 4}" if i < 400 or i % 2 else f"op-{i}",
                service="svc",
                kind=SpanKind.CLIENT if i % 4 == 1 else SpanKind.SERVER,
                start_time=rng.uniform(0, 2e9),
                duration=0 if i % 11 == 0 else rng.uniform(0, 1e4),
                status=SpanStatus.ERROR if i % 7 == 0 else SpanStatus.OK,
                node=f"node-{i % 3}",
                attributes={
                    "label": rng.choice(labels),
                    "msg": msg,
                    "big": rng.uniform(-1e15, 1e15),
                    "neg": -rng.randrange(1, 10**12),
                    "flag": i % 2 == 0,
                },
            )
            parsed = parser.parse(span)
            assert parsed.params_size_bytes() == encoded_size(parsed.params_record())
            assert parsed._param_lists == tuple(
                key for key, value in parsed.params.items() if isinstance(value, list)
            )
        assert all(paths[path] for path in ("stored", "unstored", "replay", "reinterned")), paths

    @pytest.mark.parametrize("workload", ["onlineboutique", "trainticket", "alibaba"])
    def test_params_size_matches_ruler_on_each_workload_family(self, workload):
        """The one sizer equals the JSON ruler on every span of each
        workload family, through warmed-up agents (replays and full
        parses alike)."""
        stream, _ = generate_stream(
            WORKLOAD_BUILDERS[workload](), 150, abnormal_rate=0.02, seed=11
        )
        traces = [trace for _, trace in stream]
        warm: dict[str, list[Span]] = {}
        for trace in traces[:50]:
            for span in trace.spans:
                warm.setdefault(span.node, []).append(span)
        agents = {node: MintAgent(node=node) for node in warm}
        for node, spans in warm.items():
            agents[node].warm_up(spans)
        checked = 0
        for trace in traces:
            for sub in trace.sub_traces():
                if sub.node not in agents:
                    agents[sub.node] = MintAgent(node=sub.node)
                result = agents[sub.node].ingest(sub)
                assert result.parsed is not None
                for parsed in result.parsed.parsed_spans:
                    assert parsed.params_size_bytes() == encoded_size(parsed.params_record())
                    checked += 1
        assert checked >= 150

    def test_params_size_matches_ruler_on_ingested_spans(self):
        """The plan-based sizing fast path must agree with the JSON
        ruler on real ingested traffic (including replayed spans)."""
        rng = random.Random(3)
        agent = MintAgent(node="node-0")
        spans = [_make_span(i, rng) for i in range(300)]
        agent.warm_up(spans[:80])
        for i, span in enumerate(spans):
            sub = SubTrace(trace_id=span.trace_id, node="node-0", spans=[span])
            result = agent.ingest(sub)
            assert result.parsed is not None
            for parsed in result.parsed.parsed_spans:
                assert parsed.params_size_bytes() == encoded_size(parsed.params_record())


class TestIngestManyEquivalence:
    def _stream(self, count: int = 120):
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, count, abnormal_rate=0.05, seed=17)
        return [trace for _, trace in stream]

    def test_ingest_many_identical_to_looped_ingest(self):
        traces = self._stream()
        nodes = {s.node for t in traces for s in t.spans}
        config = MintConfig()
        loop_agents = {n: MintAgent(node=n, config=config) for n in nodes}
        batch_agents = {n: MintAgent(node=n, config=config) for n in nodes}
        per_node: dict[str, list[SubTrace]] = {}
        for trace in traces:
            for sub in trace.sub_traces():
                per_node.setdefault(sub.node, []).append(sub)
        for node, subs in per_node.items():
            warm = [s for sub in subs[:30] for s in sub.spans]
            loop_agents[node].warm_up(warm)
            batch_agents[node].warm_up(warm)
        for node, subs in per_node.items():
            looped = [loop_agents[node].ingest(sub) for sub in subs]
            batched = batch_agents[node].ingest_many(subs)
            assert len(looped) == len(batched)
            for a, b in zip(looped, batched):
                assert a.trace_id == b.trace_id
                assert a.topo_pattern_id == b.topo_pattern_id
                assert a.sampled == b.sampled
                assert a.fired_samplers == b.fired_samplers
                assert a.parsed is not None and b.parsed is not None
                assert [p.pattern_id for p in a.parsed.parsed_spans] == [
                    p.pattern_id for p in b.parsed.parsed_spans
                ]
                assert [p.params for p in a.parsed.parsed_spans] == [
                    p.params for p in b.parsed.parsed_spans
                ]
            assert (
                loop_agents[node].params_buffer.used_bytes
                == batch_agents[node].params_buffer.used_bytes
            )
            assert len(loop_agents[node].span_patterns()) == len(
                batch_agents[node].span_patterns()
            )


class TestPlanReplayEquivalence:
    class _NoPlans(dict):
        """A plan table that never hits and never stores."""

        def get(self, key, default=None):  # noqa: D102
            return None

        def __len__(self):
            return SpanParser._SPAN_PLAN_CAP  # always "full"

    def test_plan_replay_equals_reference_parse(self):
        """Parsing with plans enabled must be indistinguishable from the
        reference path, span by span, including high-cardinality
        (volatile) attributes and hit-count bookkeeping."""
        rng_a, rng_b = random.Random(11), random.Random(11)
        fast, reference = SpanParser(), SpanParser()
        reference._span_plans = self._NoPlans()
        for i in range(400):
            a = fast.parse(_make_span(i, rng_a))
            b = reference.parse(_make_span(i, rng_b))
            assert a.pattern_id == b.pattern_id
            assert a.params == b.params
        assert len(fast._span_plans) > 0  # plans actually engaged
        ids_fast = sorted(p.pattern_id for p in fast.library.patterns())
        ids_ref = sorted(p.pattern_id for p in reference.library.patterns())
        assert ids_fast == ids_ref
        for pid in ids_fast:
            assert fast.library.match_count(pid) == reference.library.match_count(pid)
            assert fast.library.numeric_ranges(pid) == reference.library.numeric_ranges(pid)


class TestHotTemplateRanking:
    def test_incremental_ranking_matches_sorted_recompute(self):
        rng = random.Random(23)
        parser = StringAttributeParser("k", similarity_threshold=0.8)
        vocab = [f"request {w} handled" for w in ("alpha", "beta", "gamma", "delta")]
        parser.warm_up(vocab)
        values = [rng.choice(vocab) for _ in range(300)] + [
            f"request {rng.randrange(10**6)} handled" for _ in range(100)
        ]
        rng.shuffle(values)
        for value in values:
            parser.parse(value)
            expected = [
                t
                for t, _ in sorted(
                    parser._hit_counts.items(), key=lambda item: -item[1][0]
                )[: parser._HOT_TEMPLATES]
            ]
            assert parser._hot_ranked == expected


class TestNumericRangeFastPath:
    def test_envelope_short_circuit_matches_reference(self):
        from repro.parsing.numeric_buckets import NumericBucketer

        rng = random.Random(31)
        fast = SpanPatternLibrary()
        bucketer = NumericBucketer(alpha=0.5)
        reference: dict[str, tuple[float, float]] = {}
        gamma = bucketer.gamma
        edge_values = [1.0, -1.0, gamma, -gamma, gamma**3, -(gamma**3), 0.0]
        for _ in range(3000):
            if rng.random() < 0.2:
                value = rng.choice(edge_values)
            else:
                value = rng.uniform(-200, 200)
            fast.observe_numeric("p", "k", value)
            bucket = bucketer.bucket_of(value)
            lower = -bucket.upper if bucket.negative else bucket.lower
            upper = -bucket.lower if bucket.negative else bucket.upper
            current = reference.get("k")
            reference["k"] = (
                (lower, upper)
                if current is None
                else (min(current[0], lower), max(current[1], upper))
            )
            assert fast.numeric_ranges("p") == reference


class TestBloomFastPath:
    def test_no_false_negatives_and_popcount_saturation(self):
        filt = BloomFilter(expected_insertions=500, false_positive_probability=0.01)
        items = [f"trace-{i}" for i in range(500)]
        for item in items:
            filt.add(item)
        assert all(item in filt for item in items)
        reference = sum(bin(b).count("1") for b in filt.to_bytes())
        assert filt.saturation == reference / filt.bit_count

    def test_sized_for_bytes_closed_form_fits_budget(self):
        for budget in (16, 256, 1024, 4096, 65536):
            for fpp in (0.001, 0.01, 0.1):
                filt = sized_for_bytes(budget, fpp)
                assert filt.size_bytes <= budget
                # Capacity is the closed-form floor of the bit budget.
                bits_per_item = -math.log(fpp) / (math.log(2) ** 2)
                assert filt.expected_insertions == max(
                    1, int(budget * 8 / bits_per_item)
                )

    def test_union_consistency(self):
        a = BloomFilter(100, 0.01)
        b = BloomFilter(100, 0.01)
        a.add("x")
        b.add("y")
        merged = a.union(b)
        assert "x" in merged and "y" in merged


class TestFlushCallbackApi:
    def test_drain_and_notify_delivers_filters(self):
        agent = MintAgent(node="node-0", config=MintConfig(bloom_buffer_bytes=64))
        received = []
        agent.mounted_library.flush_callback = received.append
        assert agent.mounted_library.flush_callback is not None
        rng = random.Random(1)
        for i in range(10):
            span = _make_span(i, rng)
            agent.ingest(SubTrace(trace_id=span.trace_id, node="node-0", spans=[span]))
        drained = agent.mounted_library.drain_and_notify()
        assert drained  # active filters existed
        assert received[-len(drained):] == drained

    def test_reconstruct_patterns_uses_public_api(self):
        agent = MintAgent(node="node-0")
        received = []
        agent.mounted_library.flush_callback = received.append
        rng = random.Random(2)
        for i in range(5):
            span = _make_span(i, rng)
            agent.ingest(SubTrace(trace_id=span.trace_id, node="node-0", spans=[span]))
        agent.reconstruct_patterns()
        assert received, "drained filters must reach the flush callback"
        # The callback survives the rebuild.
        assert agent.mounted_library.flush_callback is not None
        assert len(agent.span_patterns()) == 0


class TestDeadNumericParserRemoved:
    def test_span_parser_has_no_unused_numeric_path(self):
        parser = SpanParser()
        assert not hasattr(parser, "_numeric_parser")
        assert not hasattr(parser, "_numeric_parsers")
