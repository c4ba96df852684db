"""Unit tests for the Symptom, Edge-Case, Head and Tail samplers."""

from repro.agent.agent import MintAgent
from repro.agent.samplers import EdgeCaseSampler, HeadSampler, SymptomSampler, TailSampler
from repro.model.trace import SubTrace
from repro.parsing.span_parser import DURATION_KEY, ParsedSpan
from repro.parsing.trace_parser import ParsedSubTrace, TopoPatternLibrary
from tests.conftest import make_span


def parsed_with(params: dict, pattern_id: str = "p" * 16) -> ParsedSubTrace:
    """A one-span parsed sub-trace carrying what the parser gives every
    span: a duration and the keys of its list-valued params."""
    params = {**params}
    params.setdefault(DURATION_KEY, 10.0)
    span = ParsedSpan(
        trace_id="t" * 32,
        span_id="s" * 16,
        parent_id=None,
        node="node-0",
        start_time=0.0,
        pattern_id=pattern_id,
        params=params,
    )
    span._param_lists = tuple(key for key, value in params.items() if isinstance(value, list))
    return ParsedSubTrace(
        trace_id="t" * 32, node="node-0", topo_pattern_id="tp", parsed_spans=[span]
    )


def dummy_subtrace() -> SubTrace:
    return SubTrace(trace_id="t" * 32, node="node-0", spans=[make_span()])


class TestSymptomSampler:
    def test_abnormal_word_fires(self):
        sampler = SymptomSampler(abnormal_words=("timeout",))
        parsed = parsed_with({"msg": ["connection timeout after 3000ms"]})
        assert sampler.observe(dummy_subtrace(), parsed)

    def test_word_boundary_prevents_hex_false_positive(self):
        sampler = SymptomSampler(abnormal_words=("500",))
        parsed = parsed_with({"id": ["a500b3c2"]})
        assert not sampler.observe(dummy_subtrace(), parsed)
        parsed = parsed_with({"status": ["code=500 returned"]})
        assert sampler.observe(dummy_subtrace(), parsed)

    def test_duration_outlier_fires_after_window(self):
        sampler = SymptomSampler(percentile=95.0, min_observations=20)
        sub = dummy_subtrace()
        for i in range(60):
            sampler.observe(sub, parsed_with({DURATION_KEY: 10.0 + (i % 5)}))
        assert sampler.observe(sub, parsed_with({DURATION_KEY: 500.0}))

    def test_normal_durations_do_not_fire(self):
        sampler = SymptomSampler(percentile=95.0, min_observations=20)
        sub = dummy_subtrace()
        fired = 0
        for i in range(200):
            fired += sampler.observe(sub, parsed_with({DURATION_KEY: 10.0 + (i % 7)}))
        assert fired == 0

    def test_non_duration_numeric_ignored_by_default(self):
        sampler = SymptomSampler(percentile=95.0, min_observations=5)
        sub = dummy_subtrace()
        for _ in range(20):
            sampler.observe(sub, parsed_with({"rows": 1.0}))
        assert not sampler.observe(sub, parsed_with({"rows": 10_000.0}))


class TestEdgeCaseSampler:
    def _library_with_counts(self, common: int, rare: int) -> TopoPatternLibrary:
        agent = MintAgent(node="n")
        common_sub = SubTrace(
            trace_id="1" * 32, node="n", spans=[make_span(trace_id="1" * 32)]
        )
        self.common_id = agent.ingest(common_sub).topo_pattern_id
        for i in range(common - 1):
            sub = SubTrace(
                trace_id=f"{i + 2:032x}",
                node="n",
                spans=[make_span(trace_id=f"{i + 2:032x}")],
            )
            agent.ingest(sub)
        rare_sub = SubTrace(
            trace_id="f" * 32,
            node="n",
            spans=[
                make_span(trace_id="f" * 32, name="rare-op", service="rare-svc")
            ],
        )
        self.rare_id = agent.ingest(rare_sub).topo_pattern_id
        for _ in range(rare - 1):
            agent.ingest(rare_sub)
        return agent.topo_library

    def test_rare_pattern_boosted_over_common(self):
        lib = self._library_with_counts(common=200, rare=4)
        sampler = EdgeCaseSampler(lib, base_rate=0.02, seed=5)
        assert sampler.sampling_probability(self.rare_id) > (
            sampler.sampling_probability(self.common_id)
        )

    def test_first_occurrences_always_sampled(self):
        lib = self._library_with_counts(common=50, rare=1)
        sampler = EdgeCaseSampler(lib, base_rate=0.02)
        assert sampler.sampling_probability(self.rare_id) == 1.0

    def test_unknown_pattern_always_sampled(self):
        lib = TopoPatternLibrary()
        sampler = EdgeCaseSampler(lib)
        assert sampler.sampling_probability("nope") == 1.0

    def test_common_pattern_below_base_rate(self):
        lib = self._library_with_counts(common=500, rare=3)
        sampler = EdgeCaseSampler(lib, base_rate=0.02)
        assert sampler.sampling_probability(self.common_id) < 0.02


class TestConventionalSamplers:
    def test_head_sampler_deterministic_per_trace(self):
        sampler = HeadSampler(rate=0.5, seed=1)
        assert sampler.decide("a" * 32) == sampler.decide("a" * 32)

    def test_head_sampler_rate_roughly_respected(self):
        sampler = HeadSampler(rate=0.2, seed=1)
        hits = sum(sampler.decide(f"{i:032x}") for i in range(2000))
        assert 300 < hits < 500

    def test_tail_sampler_default_predicate(self):
        sampler = TailSampler()
        tagged = SubTrace(
            trace_id="t" * 32,
            node="n",
            spans=[make_span(attributes={"is_abnormal": "true"})],
        )
        plain = dummy_subtrace()
        assert sampler.observe(tagged, parsed_with({}))
        assert not sampler.observe(plain, parsed_with({}))
