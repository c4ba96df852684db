"""Unit tests for the Mint framework adapter (agents + backend wired)."""

from repro.framework import MintFramework
from repro.baselines.otel import OTFull
from tests.conftest import make_chain_trace


def small_mint(**kwargs) -> MintFramework:
    kwargs.setdefault("auto_warmup_traces", 5)
    return MintFramework(**kwargs)


class TestIngestAndWarmup:
    def test_warmup_queue_drains_automatically(self):
        mint = small_mint()
        for i in range(10):
            mint.process_trace(make_chain_trace(depth=2, trace_id=f"{i:032x}"), float(i))
        # Auto-warmup after 5 traces; all 10 processed online afterwards.
        assert mint._warmed_up
        assert len(mint._collectors) >= 1

    def test_finalize_drains_pending_warmup(self):
        mint = MintFramework(auto_warmup_traces=1000)
        mint.process_trace(make_chain_trace(depth=2, trace_id="1" * 32), 0.0)
        assert not mint._warmed_up
        mint.finalize(1.0)
        assert mint._warmed_up
        assert mint.query("1" * 32).is_hit

    def test_explicit_warmup(self):
        mint = MintFramework()
        warmup = [make_chain_trace(depth=2, trace_id=f"{i:032x}") for i in range(5)]
        mint.warm_up(warmup)
        assert mint._warmed_up

    def test_agents_created_per_node(self):
        mint = small_mint()
        for i in range(6):
            mint.process_trace(
                make_chain_trace(depth=4, trace_id=f"{i:032x}", nodes=("n0", "n1", "n2")),
                float(i),
            )
        assert set(mint._collectors) == {"n0", "n1", "n2"}


class TestAccounting:
    def test_network_below_full(self):
        mint = small_mint()
        full = OTFull()
        traces = [make_chain_trace(depth=3, trace_id=f"{i:032x}") for i in range(100)]
        for i, trace in enumerate(traces):
            mint.process_trace(trace, float(i))
            full.process_trace(trace, float(i))
        mint.finalize(100.0)
        assert 0 < mint.network_bytes < full.network_bytes

    def test_storage_matches_backend(self):
        mint = small_mint()
        for i in range(20):
            mint.process_trace(make_chain_trace(depth=2, trace_id=f"{i:032x}"), float(i))
        mint.finalize(20.0)
        assert mint.storage_bytes == mint.backend.storage_bytes()


class TestQueries:
    def test_every_trace_answerable(self):
        mint = small_mint()
        traces = [make_chain_trace(depth=3, trace_id=f"{i:032x}") for i in range(50)]
        for i, trace in enumerate(traces):
            mint.process_trace(trace, float(i))
        mint.finalize(50.0)
        for trace in traces:
            assert mint.query(trace.trace_id).is_hit, trace.trace_id

    def test_query_full_returns_payloads(self):
        mint = small_mint()
        traces = [make_chain_trace(depth=2, trace_id=f"{i:032x}") for i in range(30)]
        for i, trace in enumerate(traces):
            mint.process_trace(trace, float(i))
        mint.finalize(30.0)
        statuses = {mint.query(t.trace_id).status for t in traces}
        assert "partial" in statuses or "exact" in statuses
        for trace in traces:
            result = mint.query(trace.trace_id)
            if result.status == "exact":
                assert result.trace is not None
            elif result.status == "partial":
                assert result.approximate is not None

    def test_extra_tail_sampler_captures_tagged(self):
        from repro.agent.samplers import TailSampler
        from repro.model.trace import Trace
        from tests.conftest import make_span

        mint = MintFramework(
            auto_warmup_traces=1,
            extra_sampler_factories=[lambda: TailSampler()],
        )
        tagged = Trace(
            trace_id="b" * 32,
            spans=[
                make_span(trace_id="b" * 32, attributes={"is_abnormal": "true"})
            ],
        )
        mint.process_trace(make_chain_trace(depth=2, trace_id="1" * 32), 0.0)
        mint.process_trace(tagged, 1.0)
        mint.finalize(2.0)
        assert mint.query("b" * 32).is_exact
