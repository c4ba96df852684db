"""Integration tests: the full Mint pipeline against real workloads.

These exercise the paper's headline claims end to end on small
corpora: all requests answerable, exact reconstruction fidelity,
overhead far below OT-Full, cross-node coherence, and the experiment
harness that the benchmarks build on.
"""

import pytest

from repro.baselines import Hindsight, OTFull, OTHead, OTTail, Sieve
from repro.framework import MintFramework
from repro.sim.experiment import generate_stream, rca_views_for_framework, run_experiment
from repro.workloads import build_onlineboutique, build_trainticket


@pytest.fixture(scope="module")
def boutique_result():
    return run_experiment(
        build_onlineboutique(),
        factories={
            "OT-Full": OTFull,
            "OT-Head": lambda: OTHead(0.05),
            "OT-Tail": OTTail,
            "Hindsight": Hindsight,
            "Sieve": lambda: Sieve(budget_rate=0.05),
            "Mint": lambda: MintFramework(auto_warmup_traces=50),
        },
        num_traces=800,
        abnormal_rate=0.05,
        seed=13,
    )


class TestHeadlineClaims:
    def test_mint_answers_every_query(self, boutique_result):
        mint = boutique_result.runs["Mint"]
        assert mint.hits["miss"] == 0
        assert mint.hits["exact"] + mint.hits["partial"] == boutique_result.trace_count

    def test_one_or_zero_baselines_miss_queries(self, boutique_result):
        for name in ("OT-Head", "OT-Tail", "Hindsight", "Sieve"):
            assert boutique_result.runs[name].hits["miss"] > 0, name

    def test_mint_overhead_far_below_full(self, boutique_result):
        full = boutique_result.runs["OT-Full"]
        mint = boutique_result.runs["Mint"]
        assert mint.network_bytes < full.network_bytes * 0.15
        assert mint.storage_bytes < full.storage_bytes * 0.15

    def test_tail_network_equals_full(self, boutique_result):
        full = boutique_result.runs["OT-Full"]
        tail = boutique_result.runs["OT-Tail"]
        assert tail.network_bytes == full.network_bytes

    def test_head_costs_track_sampling_rate(self, boutique_result):
        full = boutique_result.runs["OT-Full"]
        head = boutique_result.runs["OT-Head"]
        fraction = head.network_bytes / full.network_bytes
        assert 0.02 < fraction < 0.10

    def test_hindsight_network_above_head_below_tail(self, boutique_result):
        full = boutique_result.runs["OT-Full"]
        hindsight = boutique_result.runs["Hindsight"]
        assert hindsight.network_bytes < full.network_bytes * 0.5
        assert hindsight.network_bytes > 0


class TestExactReconstruction:
    def test_sampled_traces_reconstruct_exactly(self, boutique_result):
        mint = boutique_result.runs["Mint"].framework
        originals = {t.trace_id: t for t in boutique_result.traces}
        checked = 0
        for trace_id in sorted(mint.stored_trace_ids())[:20]:
            result = mint.query(trace_id)
            assert result.status == "exact"
            original = originals[trace_id]
            rebuilt = {s.span_id: s for s in result.trace.spans}
            assert set(rebuilt) == {s.span_id for s in original.spans}
            for span in original.spans:
                twin = rebuilt[span.span_id]
                assert twin.attributes == span.attributes
                assert twin.duration == pytest.approx(span.duration)
                assert twin.parent_id == span.parent_id
            checked += 1
        assert checked > 0

    def test_abnormal_traces_are_sampled(self, boutique_result):
        mint = boutique_result.runs["Mint"].framework
        stored = mint.stored_trace_ids()
        abnormal = set(boutique_result.fault_targets)
        captured = len(abnormal & stored) / max(1, len(abnormal))
        assert captured > 0.9


class TestApproximateTraces:
    def test_partial_queries_return_full_execution_path(self, boutique_result):
        mint = boutique_result.runs["Mint"].framework
        originals = {t.trace_id: t for t in boutique_result.traces}
        checked = 0
        for trace in boutique_result.traces:
            result = mint.query(trace.trace_id)
            if result.status != "partial":
                continue
            approx = result.approximate
            # UC1: the execution path (services) is preserved.
            assert originals[trace.trace_id].services <= approx.services | {
                s["service"] for seg in approx.segments for s in seg.spans
            }
            checked += 1
            if checked >= 10:
                break
        assert checked > 0


class TestRcaFeeds:
    def test_mint_provides_largest_population(self, boutique_result):
        mint_views = rca_views_for_framework(
            boutique_result.runs["Mint"], boutique_result.traces
        )
        head_views = rca_views_for_framework(
            boutique_result.runs["OT-Head"], boutique_result.traces
        )
        assert len(mint_views) == boutique_result.trace_count
        assert len(head_views) < boutique_result.trace_count * 0.15


class TestTrainTicket:
    def test_trainticket_end_to_end(self):
        result = run_experiment(
            build_trainticket(),
            factories={
                "OT-Full": OTFull,
                "Mint": lambda: MintFramework(auto_warmup_traces=40),
            },
            num_traces=300,
            abnormal_rate=0.05,
            seed=17,
        )
        mint = result.runs["Mint"]
        full = result.runs["OT-Full"]
        assert mint.hits["miss"] == 0
        assert mint.storage_bytes < full.storage_bytes * 0.2


class TestStreamGeneration:
    def test_stream_deterministic(self):
        wl = build_onlineboutique()
        a, targets_a = generate_stream(wl, 50, seed=3)
        b, targets_b = generate_stream(wl, 50, seed=3)
        assert [t.trace_id for _, t in a] == [t.trace_id for _, t in b]
        assert targets_a == targets_b

    def test_abnormal_rate_respected(self):
        wl = build_onlineboutique()
        stream, targets = generate_stream(wl, 600, abnormal_rate=0.1, seed=4)
        assert 0.05 < len(targets) / 600 < 0.16
